"""Smoke tests: the demos run to the end and print their findings."""

import os
import pathlib
import subprocess
import sys

import speclab

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def _run_demo(name):
    src = os.path.dirname(os.path.dirname(speclab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_dispersive_contrast_demo():
    lines = _run_demo("dispersive_contrast.py")
    exponents = {line[:28].strip(): float(line.split()[-3])
                 for line in lines if " exponent " in line}
    assert abs(exponents["free"] + 1.5) < 0.1
    assert exponents["zero mode, unprojected"] >= -0.2
    assert abs(exponents["zero mode, projected"] + 1.5) < 0.15


def test_threshold_classification_demo():
    lines = _run_demo("threshold_classification.py")
    assert "threshold space dims by order: [1]" in lines
    verdicts = [line.split()[1] for line in lines if line.startswith("  verdict ")]
    assert verdicts == ["EIGENVALUE"]


def test_transform_dichotomy_demo():
    lines = _run_demo("transform_dichotomy.py")
    header = lines.index("low-window totals under spectral-grid doubling")
    rows = [line.split() for line in lines[header + 2 : header + 5]]
    assert [row[0] for row in rows] == ["128", "256", "512"]
    # orthogonal data stabilizes; generic data diverges on the finest grid
    assert [row[2] for row in rows] == ["(OK)"] * 3
    assert [row[4] for row in rows] == ["(OK)", "(OK)", "(DIVERGENT)"]
