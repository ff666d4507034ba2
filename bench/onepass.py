"""One benchmark pass in a fresh process.

    python3 bench/onepass.py --workload NAME --seed N --trace 0|1 --pass-id K

Builds the workload's scenario with the public ``speclab.cli`` functions,
runs its pipeline, checks the report and prints one JSON record as the
last line of stdout.  A pass that raises, or whose pipeline rejects the
scenario, is reported with ``ok: false``, as ``speclab`` would exit non-zero.
With ``--trace 1`` every public function of the nine speclab modules is
wrapped first and the spans are written to a JSONL file.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

LAYERS = ("grids", "resolvent", "birman", "potentials", "jordan",
          "lowenergy", "evolution", "ftdiag", "cli")

# name -> (pipeline, scenario file, pass an output directory)
WORKLOADS = {
    "full-ee": ("full", "full_ee.json", False),
    "evolve-cplx": ("evolve", "evolve_cplx.json", False),
    "invert-ee": ("invert", "invert_ee.json", True),
}

# Set-up is repeated in each untraced pass and its median reported: at
# least this many times, and more while the repeats fit in SETUP_BUDGET_S.
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 25
SETUP_BUDGET_S = 1.5


def import_speclab():
    """Import the checkout's speclab package from ROOT/src, never another."""
    src = ROOT / "src"
    if not (src / "speclab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no speclab sources under {src}")
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(f"speclab.{name}") for name in LAYERS}
    origin = Path(mods["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"speclab imported from {origin}, not {src}")
    return mods


def _domain_key(grid, lam):
    # Same key as the domain-resolvent cache: distinct keys = cache misses.
    return (grid.mode.value, float(grid.extent), int(grid.size), float(lam))


def _json_default(obj):
    # The encoder `speclab` itself uses for reports (cli._json_default), kept
    # here so that the benchmark never depends on a private name of the code
    # it measures.
    import numpy as np

    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def blas_threads():
    """OpenBLAS thread count from the loaded library, else the env/default."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(lib), sym)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    env = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return int(env) if env else os.cpu_count()


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "speclab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "src_sha256": digest.hexdigest(),
    }


def run_pass(workload, seed, trace, pass_id):
    import numpy as np

    import accuracy
    from tracer import Tracer

    pipeline, scenario, with_out = WORKLOADS[workload]
    mods = import_speclab()
    cli = mods["cli"]
    tracer = None
    if trace:
        tracer = Tracer(pass_id, keyfns={"lowenergy.domain_resolvent": _domain_key})
        tracer.install(list(mods.values()))
    rec = {"workload": workload, "seed": seed, "trace": trace, "pass_id": pass_id,
           "ok": False, "error": None, "setup_s": [], "run_s": None,
           "residual_max": None, "ref_dev": None, "report_sha256": None,
           "trace_file": None}
    out_dir = OUT_DIR / f"pass-{os.getpid()}" if with_out else None
    try:
        cfg_path = str(BENCH_DIR / "scenarios" / scenario)
        repeats, spent = 0, 0.0
        while True:
            t0 = time.perf_counter()
            cfg = cli.load_config(cfg_path)
            grid = cli.make_scenario_grid(cfg)
            V = cli.make_scenario_potential(cfg, grid)
            dt = time.perf_counter() - t0
            rec["setup_s"].append(dt)
            repeats, spent = repeats + 1, spent + dt
            if trace or repeats >= SETUP_MAX_REPEATS or (
                repeats >= SETUP_MIN_REPEATS and spent >= SETUP_BUDGET_S
            ):
                break
        rng = np.random.default_rng(seed)
        run = getattr(cli, f"run_{pipeline}")
        t0 = time.perf_counter()
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
        report = run(cfg, grid, V, rng, None if out_dir is None else str(out_dir))
        report["seed"] = seed
        report["grid_scale"] = 1
        payload = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
        rec["run_s"] = time.perf_counter() - t0
        rec["report_sha256"] = hashlib.sha256(payload.encode()).hexdigest()
        checked = json.loads(payload)
        rec["residual_max"] = accuracy.residual_max(checked)
        scan = None
        if out_dir is not None and (out_dir / "low_energy_scan.csv").is_file():
            with open(out_dir / "low_energy_scan.csv", newline="") as fh:
                scan = list(csv.DictReader(fh))
        got = accuracy.outputs(checked, V.metadata.get("coupling"), scan)
        rec["outputs"] = got
        ref_path = BENCH_DIR / "reference" / f"{workload}.json"
        if ref_path.is_file():
            ref = json.loads(ref_path.read_text())
            rec["ref_dev"] = accuracy.ref_dev(got, ref["outputs"])
            rec["ref_env"] = ref["env"]
        rec["ok"] = True
    except Exception as exc:  # a pass that raises is a failed pass, not a crash
        rec["error"] = f"{type(exc).__name__}: {exc}"
        traceback.print_exc()
    finally:
        if tracer is not None:
            tracer.uninstall()
            OUT_DIR.mkdir(exist_ok=True)
            path = OUT_DIR / f"trace-{workload}-seed{seed}-pass{pass_id}.jsonl"
            tracer.write_jsonl(path)
            rec["trace_file"] = str(path)
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
    rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rec["env"] = environment()
    return rec


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args(argv)
    rec = run_pass(args.workload, args.seed, args.trace, args.pass_id)
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
