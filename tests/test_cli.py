"""End-to-end tests for the scenario runner CLI."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import speclab
from speclab import birman, cli, evolution, grids, jordan, lowenergy


def write_cfg(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def small_threshold_cfg():
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 6.0, "nodes": 120},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "threshold": {"expect_dim_X1": 1, "expect_verdicts": ["EIGENVALUE"]},
    }


def test_fixtures_emit_and_parse(tmp_path):
    out = str(tmp_path / "fx")
    assert cli.main(["fixtures", "--out", out]) == cli.EXIT_OK
    names = sorted(os.listdir(out))
    assert names == sorted(f"{n}.json" for n in cli._FIXTURE_SCENARIOS)
    for name in names:
        cfg = json.loads((tmp_path / "fx" / name).read_text())
        assert cfg["schema_version"] == cli.SCHEMA_VERSION
        assert "grid" in cfg and "potential" in cfg


def _env_with_package():
    """The environment with the package's source folder on PYTHONPATH, for a
    fresh interpreter."""
    src = os.path.dirname(os.path.dirname(speclab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_runs_as_the_command_line(tmp_path):
    out = tmp_path / "fx"
    proc = subprocess.run(
        [sys.executable, "-m", "speclab", "fixtures", "--out", str(out)],
        capture_output=True, text=True, env=_env_with_package(),
    )
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    assert sorted(os.listdir(out)) == sorted(f"{n}.json" for n in cli._FIXTURE_SCENARIOS)


def test_threshold_ok_and_report(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_threshold_cfg())
    out = str(tmp_path / "run")
    rc = cli.main(["threshold", "--config", cfg_path, "--out", out])
    assert rc == cli.EXIT_OK
    report = json.loads((tmp_path / "run" / "threshold_report.json").read_text())
    assert report["dims"] == [1]
    assert report["verdicts"] == ["EIGENVALUE"]
    assert report["seed"] == 0


def test_threshold_gate_failure_exits_2(tmp_path):
    cfg = small_threshold_cfg()
    cfg["threshold"]["expect_verdicts"] = ["RESONANCE"]
    rc = cli.main(["threshold", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_ASSERT


def test_missing_config_exits_3(tmp_path):
    rc = cli.main(["threshold", "--config", str(tmp_path / "nope.json")])
    assert rc == cli.EXIT_CONFIG


def test_malformed_config_exits_3(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["threshold", "--config", str(path)]) == cli.EXIT_CONFIG


def test_missing_section_exits_3(tmp_path):
    cfg = small_threshold_cfg()
    del cfg["grid"]
    rc = cli.main(["threshold", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG


def test_unknown_builtin_exits_3(tmp_path):
    cfg = small_threshold_cfg()
    cfg["potential"] = {"builtin": "does_not_exist"}
    rc = cli.main(["threshold", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG


def test_reports_are_deterministic(tmp_path):
    cfg_path = write_cfg(tmp_path, small_threshold_cfg())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["threshold", "--config", cfg_path, "--out", out1]) == 0
    assert cli.main(["threshold", "--config", cfg_path, "--out", out2]) == 0
    a = (tmp_path / "a" / "threshold_report.json").read_bytes()
    b = (tmp_path / "b" / "threshold_report.json").read_bytes()
    assert a == b


def test_grid_scale_doubles_nodes(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_threshold_cfg())
    rc = cli.main(["threshold", "--config", cfg_path, "--grid-scale", "2"])
    assert rc == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["grid"]["nodes"] == 240
    assert report["grid_scale"] == 2


def test_invert_report(tmp_path, capsys):
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 2.25, "nodes": 225},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "invert": {"lambdas": [0.05], "window": 0.25},
    }
    out = str(tmp_path / "run")
    rc = cli.main(["invert", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["residuals"]["one_sided_S0"] < 1e-9
    for row in report["per_lambda"]:
        assert row["chain"] < 1e-6
        assert row["telescope"] < 1e-6
        assert row["exact_inverse"] < 1e-6
    assert os.path.exists(os.path.join(out, "low_energy_scan.csv"))


def test_invert_computes_identity_residuals_once_per_lambda(
    tmp_path, capsys, count_calls
):
    fixture = cli._FIXTURE_SCENARIOS["invert_exact_eigen"]
    cfg = write_cfg(tmp_path, fixture)
    out = tmp_path / "run"
    calls = count_calls(lowenergy, "identity_residuals")
    assert cli.main(["invert", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    with_out = capsys.readouterr().out
    assert [args[3] for args in calls] == fixture["invert"]["lambdas"]
    # without --out the report's residuals are computed directly; with it
    # they come from the scan's rows, and the bytes are the same
    assert cli.main(["invert", "--config", cfg]) == cli.EXIT_OK
    assert capsys.readouterr().out == with_out
    assert (out / "invert_report.json").read_text() == with_out
    with open(out / "low_energy_scan.csv") as fh:
        rows = list(csv.DictReader(fh))
    per_lambda = json.loads(with_out)["per_lambda"]
    columns = {"chain": "resid_chain", "telescope": "resid_telescope",
               "exact_inverse": "resid_exactinv"}
    assert len(rows) == len(per_lambda)
    for row, entry in zip(rows, per_lambda):
        assert float(row["lambda"]) == entry["lambda"]
        for key, column in columns.items():
            assert float(row[column]) == entry[key]


def test_invert_factors_each_lambda_once(tmp_path, capsys, count_calls):
    # the invert-ee benchmark scenario with its low-energy scan: R0(0) is
    # factored by build_S0 and kept, and each lambda of the scan once
    fixture = cli._FIXTURE_SCENARIOS["invert_exact_eigen"]
    cfg = {**fixture, "grid": {**fixture["grid"], "nodes": 550},
           "invert": {"lambdas": [0.02, 0.05, 0.1, 0.15, 0.2], "window": 0.25}}
    resolvents = count_calls(lowenergy, "domain_resolvent")
    argv = ["invert", "--config", write_cfg(tmp_path, cfg)]
    assert cli.main([*argv, "--out", str(tmp_path / "run")]) == cli.EXIT_OK
    assert sorted(args[1] for args in resolvents) == [0.0, *cfg["invert"]["lambdas"]]
    # without the scan the residual path factors each lambda once too
    resolvents.clear()
    assert cli.main(argv) == cli.EXIT_OK
    assert sorted(args[1] for args in resolvents) == [0.0, *cfg["invert"]["lambdas"]]


def test_invert_takes_no_svd_or_dense_resolvent(tmp_path, count_calls):
    # the banded threshold and S0: no SVD of an M-row matrix, also with the
    # low-energy scan of --out (the package has no dense R0 to call; see
    # test_source_rules)
    svd = count_calls(np.linalg, "svd")
    cfg = write_cfg(tmp_path, cli._FIXTURE_SCENARIOS["invert_exact_eigen"])
    out = str(tmp_path / "run")
    assert cli.main(["invert", "--config", cfg, "--out", out]) == cli.EXIT_OK
    assert all(max(args[0].shape) == 1 for args in svd)


def test_evolve_free_decay(tmp_path, capsys):
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 40.0, "nodes": 400},
        "potential": {"builtin": "gaussian_well", "params": {"depth": 0.0}},
        "evolve": {
            "t_start": 2.0, "t_end": 6.4, "n_times": 8, "k_max": 2.5,
            "expect_exponent": [-1.5, 0.2],
        },
    }
    out = str(tmp_path / "run")
    rc = cli.main(["evolve", "--config", write_cfg(tmp_path, cfg), "--out", out])
    assert rc == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert abs(report["exponent"] + 1.5) < 0.2
    assert os.path.exists(os.path.join(out, "decay_scan.csv"))


def test_ftscan_verdict_gate(tmp_path):
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 10.0, "nodes": 100},
        "potential": {"builtin": "gaussian_well",
                      "params": {"depth": 4.0, "width": 1.0}},
        "ftscan": {"window": "HIGH", "n": 128, "lam_max": 8.0,
                   "expect_verdict": "OK"},
    }
    rc = cli.main(["ftscan", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_OK


def test_seed_recorded_and_changes_probe(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path, small_threshold_cfg())
    rc = cli.main(["threshold", "--config", cfg_path, "--seed", "5"])
    assert rc == cli.EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 5


def test_numerical_refusal_exits_4(tmp_path, capsys):
    # A LOW window of two samples at lambda = +/-5e-7 sits on the tuned
    # zero-energy eigenvalue, where I + V R0 is numerically singular.
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 20.0, "nodes": 200},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "ftscan": {"window": "LOW", "n": 2, "lam_max": 1e-6},
    }
    rc = cli.main(["ftscan", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: NearSingularError")
    assert err.count("\n") == 1


def test_substep_cap_exits_4(tmp_path, capsys, monkeypatch):
    # every propagator pass counts as resolved, so the first pair of passes
    # that disagree is refused: by propagate, and by the CLI with exit 4.
    # Two times: the spacing 4.4 exceeds t_start, so the scan's first step
    # is the one of length 2 that the plan [2.0] takes.  At h = 0.1 that
    # step takes the Pade path, the only one that refuses.
    monkeypatch.setattr(evolution, "RESOLVED_PHASE", np.inf)
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 40.0, "nodes": 400},
        "potential": {"builtin": "gaussian_well", "params": {"depth": 0.0}},
        "evolve": {"t_start": 2.0, "t_end": 6.4, "n_times": 2, "k_max": 2.5},
    }
    grid = cli.make_scenario_grid(cfg)
    plan = evolution.make_plan(cli.make_scenario_potential(cfg, grid), grid, [2.0])
    with pytest.raises(evolution.SubstepCapError, match="resolve all of H"):
        evolution.propagate(plan, grids.gaussian_bump(grid))
    rc = cli.main(["evolve", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: SubstepCapError: step doubling")
    assert err.count("\n") == 1


def test_unstable_filtration_exits_4(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(jordan, "MAX_FILTRATION_STEPS", 0)
    rc = cli.main(["threshold", "--config", write_cfg(tmp_path, small_threshold_cfg())])
    assert rc == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numerical refusal: NoStabilizationError: filtration")


#: The arguments of the refusals whose constructors take more than a message.
_REFUSAL_ARGS = {
    birman.NearSingularError: (1e17, "in load_config"),
    birman.NoContractionError: (1.5,),
    evolution.SubstepCapError: (2.0, 64, 1e-6),
}


@pytest.mark.parametrize("refusal", cli._NUMERICAL_REFUSALS, ids=lambda cls: cls.__name__)
def test_every_numerical_refusal_exits_4(capsys, monkeypatch, refusal):
    def refuse(path):
        raise refusal(*_REFUSAL_ARGS.get(refusal, ("refused in load_config",)))

    monkeypatch.setattr(cli, "load_config", refuse)
    assert cli.main(["threshold", "--config", "scenario.json"]) == cli.EXIT_NUMERIC
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"numerical refusal: {refusal.__name__}: ")


@pytest.mark.parametrize("pipeline, path, value", [
    ("threshold", ("grid", "mode"), "box3d"),
    ("threshold", ("grid", "nodes"), 7),
    ("threshold", ("grid", "nodes"), "abc"),
    ("threshold", ("grid",), [6.0, 120]),
    ("threshold", ("potential", "params"), [["s", 2.0]]),
    ("threshold", ("potential", "params", "p"), 1.5),
    ("invert", ("invert", "lambdas"), 0.1),
    ("invert", ("invert", "window"), "abc"),
    ("ftscan", ("ftscan", "n"), 100),
    ("ftscan", ("ftscan", "r"), 1.0),
    ("ftscan", ("ftscan", "lam_max"), 0.0),
    ("evolve", ("evolve", "t_end"), 2.0),
    ("evolve", ("evolve", "t_start"), 0.0),
    ("evolve", ("evolve", "delta_im"), "abc"),
    ("evolve", ("evolve", "delta_im"), -1),
    ("evolve", ("evolve", "expect_exponent"), "x"),
    ("evolve", ("evolve", "expect_exponent"), [-1.5]),
    # non-finite numbers, as JSON's NaN / Infinity and as strings
    ("threshold", ("grid", "extent"), float("nan")),
    ("threshold", ("grid", "nodes"), float("inf")),
    ("threshold", ("potential", "params", "s"), "nan"),
    ("invert", ("invert", "lambdas"), [float("nan")]),
    ("ftscan", ("ftscan", "lam_max"), float("inf")),
    ("evolve", ("evolve", "k_max"), 0),
    # a count that is not whole, a boolean as a number, tolerances read as
    # numbers and by name, and a flag that is not a JSON boolean
    ("threshold", ("grid", "nodes"), 200.9),
    ("threshold", ("potential",), {"builtin": "gaussian_well", "params": {"depth": True}}),
    ("threshold", ("tolerances", "identity_residual"), float("inf")),
    ("threshold", ("tolerances", "identity_residual"), True),
    ("threshold", ("tolerances", "identity_residuals"), 1e-6),
    ("ftscan", ("ftscan", "project"), "no"),
    ("evolve", ("evolve", "project"), "no"),
    # numbers given as JSON strings, and expectations of the wrong type
    ("threshold", ("grid", "extent"), "6.0"),
    ("threshold", ("grid", "nodes"), "120"),
    ("threshold", ("potential", "params", "s"), "2"),
    ("threshold", ("threshold", "expect_dim_X1"), "1"),
    ("threshold", ("threshold", "expect_dim_X1"), 1.5),
    ("threshold", ("threshold", "expect_verdicts"), "EIGENVALUE"),
    ("threshold", ("threshold", "expect_verdicts"), ["BOUND_STATE"]),
    ("ftscan", ("ftscan", "expect_verdict"), "PASS"),
])
def test_config_errors_exit_3(tmp_path, capsys, pipeline, path, value):
    cfg = small_threshold_cfg()
    section = cfg
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    rc = cli.main([pipeline, "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    if value == "box3d":
        assert err == "configuration error: unknown grid mode 'box3d'\n"
    if path[-1] in ("t_start", "t_end", "delta_im", "expect_exponent", "k_max", "project"):
        # read before the plan, whose fit window this small grid also fails
        assert path[-1] in err
    if path[-1].startswith("expect_"):
        # read before the threshold or the scan is computed
        assert path[-1] in err


def test_full_pipeline_gates(tmp_path, capsys, count_calls):
    calls = count_calls(jordan, "build_filtration")
    # the sampled potential takes the banded threshold, the Sturm point
    # spectrum and the banded S0: no dense eigensolve, no dense H and no
    # SVD of an M-row matrix anywhere in the pipeline (the package has no
    # dense LU or dense R0 to call; see test_source_rules)
    eigvals = count_calls(np.linalg, "eigvals")
    svd = count_calls(np.linalg, "svd")
    dense_H = count_calls(evolution, "discretize_H")
    resolvents = count_calls(lowenergy, "domain_resolvent")
    cfg = dict(cli._FIXTURE_SCENARIOS["full_exact_eigen"])
    cfg["grid"] = {**cfg["grid"], "nodes": 400}  # the full-ee benchmark scenario
    rc = cli.main(["full", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_OK
    assert len(calls) == 1  # one threshold computation for all four stages
    # each lambda is factored once, R0(0) by build_S0 for all its uses; the
    # one lambda factored twice is where the window search's exact norm
    # certifies the lambda its column search evaluated last
    lams = [args[1] for args in resolvents]
    assert lams.count(0.0) == 1 and len(lams) <= 12 and len(set(lams)) == len(lams) - 1
    assert not eigvals and not dense_H
    report = json.loads(capsys.readouterr().out)
    stages = report["stages"]
    assert sorted(stages) == ["evolve", "ftscan", "invert", "threshold"]
    threshold = stages["threshold"]
    # the SVDs left are those of the K x K restricted problem
    assert all(max(args[0].shape) <= max(threshold["dims"]) for args in svd)
    assert threshold["dims"][0] == cfg["threshold"]["expect_dim_X1"]
    assert threshold["verdicts"] == cfg["threshold"]["expect_verdicts"]
    invert = stages["invert"]
    tol = invert["tolerances"]
    assert max(invert["residuals"].values()) <= tol["one_sided_residual"]
    for row in invert["per_lambda"]:
        for key in ("chain", "telescope", "exact_inverse"):
            assert row[key] <= tol["identity_residual"]
    assert stages["ftscan"]["verdict"] == cfg["ftscan"]["expect_verdict"]
    center, width = cfg["evolve"]["expect_exponent"]
    assert stages["evolve"]["projected"]
    assert abs(stages["evolve"]["exponent"] - center) <= width


def test_bad_schema_version_exits_3(tmp_path):
    cfg = small_threshold_cfg()
    cfg["schema_version"] = 99
    rc = cli.main(["threshold", "--config", write_cfg(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG


def test_evolve_complex_projected(tmp_path, capsys, monkeypatch, count_calls):
    # the benchmark's complex non-normal evolve scenario, at 200 nodes; its
    # complex samples give build_Ppp its eigenvalues from Aberth sweeps on
    # the tridiagonal H, with no dense H and no eigvals
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 40.0, "nodes": 200},
        "potential": {
            "builtin": "complex_perturbed",
            "params": {
                "base": {"name": "gaussian_well",
                         "params": {"depth": 5.0, "width": 1.0}},
                "gamma": 1.5, "width": 1.0,
            },
        },
        "evolve": {
            "t_start": 2.0, "t_end": 6.4, "n_times": 10, "k_max": 2.5,
            "project": True, "delta_im": 0.3,
        },
    }
    cfg_path = write_cfg(tmp_path, cfg)
    eigvals = count_calls(np.linalg, "eigvals")
    dense_H = count_calls(evolution, "discretize_H")
    build_Ppp, inside = jordan.build_Ppp, []

    def counted_build_Ppp(*args, **kwargs):
        before = len(eigvals), len(dense_H)
        P = build_Ppp(*args, **kwargs)
        inside.append((len(eigvals) - before[0], len(dense_H) - before[1]))
        return P

    monkeypatch.setattr(jordan, "build_Ppp", counted_build_Ppp)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["evolve", "--config", cfg_path, "--out", out1]) == cli.EXIT_OK
    assert cli.main(["evolve", "--config", cfg_path, "--out", out2]) == cli.EXIT_OK
    assert inside == [(0, 0), (0, 0)]
    assert not dense_H  # the plan holds the samples, not a dense H
    a = (tmp_path / "a" / "evolve_report.json").read_bytes()
    b = (tmp_path / "b" / "evolve_report.json").read_bytes()
    assert a == b
    report = json.loads(a)
    assert report["projected"]
    assert report["exponent"] == pytest.approx(-1.2237422353, abs=1e-8)


@pytest.mark.parametrize("with_out", [False, True])
@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_invert_lambda_outside_window_exits_3(tmp_path, capsys, lam, with_out):
    # window 0.25: lambda = 0 is the pole and 0.5 lies beyond the window
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 2.25, "nodes": 225},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "invert": {"lambdas": [0.05, lam], "window": 0.25},
    }
    argv = ["invert", "--config", write_cfg(tmp_path, cfg)]
    out = tmp_path / "run"
    if with_out:
        argv += ["--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: invert lambda {lam} outside")
    assert err.count("\n") == 1
    assert not (out / "low_energy_scan.csv").exists()


@pytest.mark.parametrize("with_out", [False, True])
def test_invert_lambda_whose_pole_power_overflows_exits_3(tmp_path, capsys, with_out):
    # one chain of length 1: lambda^-2 overflows at 1e-160, which lies
    # inside the validity window
    cfg = {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 2.25, "nodes": 225},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "invert": {"lambdas": [0.05, 1e-160], "window": 0.25},
    }
    argv = ["invert", "--config", write_cfg(tmp_path, cfg)]
    out = tmp_path / "run"
    if with_out:
        argv += ["--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("configuration error: invert lambda 1e-160: lambda^-2 overflows "
                   "(K = 1, the longest Jordan chain)\n")
    assert not (out / "low_energy_scan.csv").exists()


@pytest.mark.parametrize("pipeline", ["threshold", "full"])
def test_grid_too_coarse_to_classify_exits_3(tmp_path, capsys, pipeline):
    # 16 nodes leave 6 in the outer third, where the tail fit needs 8; a
    # scenario with no threshold state classifies nothing and runs
    cfg = {"schema_version": cli.SCHEMA_VERSION,
           "grid": {"extent": 4.0, "nodes": 16},
           "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}}}
    assert cli.main([pipeline, "--config", write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == ("configuration error: cannot classify a threshold state on the "
                   "grid of 16 nodes over [0, 4.0]: tail-fit window shorter than "
                   "8 nodes\n")
    cfg["potential"] = {"builtin": "gaussian_well", "params": {"depth": 0.0}}
    assert cli.main(["threshold", "--config", write_cfg(tmp_path, cfg)]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["verdicts"] == []


_EXIT_CODES = {cli.EXIT_OK, cli.EXIT_ASSERT, cli.EXIT_CONFIG, cli.EXIT_NUMERIC}

#: Edge scenarios, each a pipeline, a section and the keys set there, on
#: the 200-node exact_eigen(s = 2) grid unless the grid is given.
_EDGE_SCENARIOS = {
    "coarse-grid": ("full", "grid", {"extent": 4.0, "nodes": 16}),
    "tiny-lambda": ("invert", "invert", {"lambdas": [1e-160]}),
    "overflowing-residual": ("invert", "invert", {"lambdas": [1e-154]}),
    "wide-window": ("invert", "invert", {"window": 5.0}),
    "two-low-samples": ("ftscan", "ftscan", {"window": "LOW", "n": 2}),
    "huge-lam-max": ("ftscan", "ftscan", {"lam_max": 1e6}),
    # lam_max = 4 pi / (3 h): the top sample sits at lambda h = pi
    "lambda-h-pi": ("ftscan", "ftscan",
                    {"window": "HIGH", "n": 4, "lam_max": 41.8879020478639}),
    "tiny-k-max": ("evolve", "evolve", {"k_max": 1e-300}),
}


def _edge_cfg(name):
    """(pipeline, scenario) of the edge scenario `name`."""
    pipeline, section, keys = _EDGE_SCENARIOS[name]
    cfg = {"schema_version": cli.SCHEMA_VERSION,
           "grid": {"extent": 20.0, "nodes": 200},
           "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}}}
    cfg[section] = {**cfg.get(section, {}), **keys}
    return pipeline, cfg


@pytest.mark.parametrize("name", sorted(_EDGE_SCENARIOS))
def test_no_input_ends_in_a_traceback(tmp_path, capsys, name):
    pipeline, cfg = _edge_cfg(name)
    rc = cli.main([pipeline, "--config", write_cfg(tmp_path, cfg)])
    assert rc in _EXIT_CODES
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    # a run that passes prints valid JSON, with no NaN or Infinity
    if rc == cli.EXIT_OK:
        assert "NaN" not in out and "Infinity" not in out


def test_ftscan_sample_at_lambda_h_pi_exits_3(tmp_path, capsys):
    # T_lambda does not exist at lambda h = pi: the scan is refused before
    # its first solve, so nothing is written
    pipeline, cfg = _edge_cfg("lambda-h-pi")
    out = tmp_path / "run"
    argv = [pipeline, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "'lam_max'" in err
    assert os.listdir(out) == []


@pytest.mark.parametrize("pipeline, cfg, scan", [
    ("invert", _edge_cfg("overflowing-residual")[1], "low_energy_scan.csv"),
    ("evolve", {**cli._FIXTURE_SCENARIOS["evolve_free"],
                "evolve": {**cli._FIXTURE_SCENARIOS["evolve_free"]["evolve"],
                           "expect_exponent": [0.0, 0.1]}}, "decay_scan.csv"),
    ("ftscan", {**cli._FIXTURE_SCENARIOS["ftscan_well_high"],
                "ftscan": {**cli._FIXTURE_SCENARIOS["ftscan_well_high"]["ftscan"],
                           "expect_verdict": "DIVERGENT"}}, "ftscan_high.csv"),
], ids=["invert", "evolve", "ftscan"])
def test_a_failed_gate_leaves_its_scan_and_no_report(
    tmp_path, capsys, pipeline, cfg, scan
):
    # scans are written before the gates run, to diagnose a failure by;
    # the report only on exit 0
    out = tmp_path / "run"
    argv = [pipeline, "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_ASSERT
    assert capsys.readouterr().err.startswith("assertion failure: ")
    assert os.listdir(out) == [scan]


@pytest.mark.parametrize("with_out", [False, True])
def test_invert_empty_lambdas_exit_3(tmp_path, capsys, with_out):
    # an empty list would leave the scan without a row and the report
    # without a check, with --out or without
    cfg = small_threshold_cfg()
    cfg["invert"] = {"lambdas": [], "window": 0.25}
    argv = ["invert", "--config", write_cfg(tmp_path, cfg)]
    out = tmp_path / "run"
    if with_out:
        argv += ["--out", str(out)]
    assert cli.main(argv) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == "configuration error: invert lambdas must be a nonempty JSON list\n"
    assert not (out / "low_energy_scan.csv").exists()


@pytest.mark.parametrize("with_out", [False, True])
def test_invert_without_threshold_basis_ignores_window(tmp_path, capsys, with_out):
    # the depth-4 well has no threshold basis, so S(lambda) is never built and
    # the default lambdas run although they lie beyond the auto window
    cfg = cli._FIXTURE_SCENARIOS["ftscan_well_high"]
    argv = ["invert", "--config", write_cfg(tmp_path, cfg)]
    if with_out:
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_OK
    invert = json.loads(capsys.readouterr().out)
    assert invert["dims"] == {}
    assert invert["window"] < 0.03
    assert [row["lambda"] for row in invert["per_lambda"]] == [0.03, 0.1, 0.2]
    assert not (tmp_path / "run" / "low_energy_scan.csv").exists()


@pytest.mark.parametrize("with_out", [False, True])
def test_invert_default_lambdas_lie_in_the_window(tmp_path, capsys, with_out):
    # a one-dimensional threshold basis, no invert section and an auto
    # window of about 0.014: the default lambdas are derived from the window
    cfg = cli._FIXTURE_SCENARIOS["threshold_exact_eigen"]
    argv = ["invert", "--config", write_cfg(tmp_path, cfg)]
    if with_out:
        argv += ["--out", str(tmp_path / "run")]
    assert cli.main(argv) == cli.EXIT_OK
    invert = json.loads(capsys.readouterr().out)
    w = invert["window"]
    assert invert["dims"] == {"1": 1}
    assert w < 0.03
    assert [row["lambda"] for row in invert["per_lambda"]] == [w / 4, w / 2, w]
    assert (tmp_path / "run" / "low_energy_scan.csv").exists() == with_out


#: Runs the command line in a fresh interpreter and prints its exit code and
#: the scipy.sparse / scipy.optimize modules it loaded.
_LOADED_MODULES = """
import sys
from speclab import cli
code = cli.main(sys.argv[1:])
heavy = ("scipy.sparse", "scipy.optimize")
print(code, *sorted(m for m in sys.modules if m.startswith(heavy)))
"""


def _heavy_scipy_modules(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv],
        capture_output=True, text=True, env=_env_with_package(), check=True,
    )
    code, *modules = proc.stdout.splitlines()[-1].split()
    return int(code), modules


def test_pipelines_leave_heavy_scipy_modules_unloaded(tmp_path):
    # each import adds to a pass's peak RSS: both pipelines need only
    # scipy.linalg (the transform scan's condition estimate is hand-written)
    fx = cli._FIXTURE_SCENARIOS
    invert_cfg = write_cfg(tmp_path, fx["invert_exact_eigen"], "invert.json")
    code, modules = _heavy_scipy_modules(["invert", "--config", invert_cfg])
    assert code == cli.EXIT_OK
    assert modules == []
    full = dict(fx["full_exact_eigen"])
    full["grid"] = {**full["grid"], "nodes": 400}
    full_cfg = write_cfg(tmp_path, full, "full.json")
    code, modules = _heavy_scipy_modules(["full", "--config", full_cfg])
    assert code == cli.EXIT_OK
    assert modules == []


def _samples_cfg(path):
    return {
        "schema_version": cli.SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 10.0, "nodes": 40},
        "potential": {"samples_file": str(path)},
    }


def test_samples_file_round_trips_complex_values(tmp_path):
    cfg = _samples_cfg(tmp_path / "V.txt")
    grid = cli.make_scenario_grid(cfg)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    np.savetxt(tmp_path / "V.txt", vals)
    V = cli.make_scenario_potential(cfg, grid)
    assert np.array_equal(V.values.values, vals)
    assert V.name == "V.txt"


@pytest.mark.parametrize("content", [
    "abc\n",
    "1.0\n" * 39 + "nan\n",
    "1.0\n" * 39,  # one value short of the 40 nodes
    None,
    "dir",
], ids=["unparsable", "nan", "short", "missing", "directory"])
def test_bad_samples_file_exits_3(tmp_path, capsys, content):
    path = tmp_path / "V.txt"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_text(content)
    cfg_path = write_cfg(tmp_path, _samples_cfg(path))
    assert cli.main(["threshold", "--config", cfg_path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1


def test_ftscan_projected_is_deterministic(tmp_path):
    # project: true removes the threshold component P0 f before the scan
    cfg = small_threshold_cfg()
    cfg["ftscan"] = {"window": "HIGH", "n": 32, "lam_max": 8.0, "project": True}
    cfg_path = write_cfg(tmp_path, cfg)
    for run in ("a", "b"):
        rc = cli.main(["ftscan", "--config", cfg_path, "--out", str(tmp_path / run)])
        assert rc == cli.EXIT_OK
    for name in ("ftscan_report.json", "ftscan_high.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


#: A pipeline that reads each section of the schema before it computes.
_READER = {"grid": "threshold", "potential": "threshold", "tolerances": "threshold",
           "threshold": "threshold", "invert": "invert", "evolve": "evolve",
           "ftscan": "ftscan"}


def _exits_3_naming(tmp_path, capsys, pipeline, cfg, name):
    assert cli.main([pipeline, "--config", write_cfg(tmp_path, cfg)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1
    assert repr(name) in err


def _typed_keys(schema):
    """The keys of a schema whose default is a bool, an int or a float."""
    return [key for key, default in schema.items()
            if isinstance(default, (bool, int, float))]


def test_every_section_is_read_by_some_pipeline():
    assert sorted(_READER) == sorted(cli._SCHEMA)


@pytest.mark.parametrize("section", sorted(cli._SCHEMA))
def test_unknown_key_in_a_section_exits_3(tmp_path, capsys, section):
    cfg = small_threshold_cfg()
    cfg.setdefault(section, {})["bogus_key"] = 1
    _exits_3_naming(tmp_path, capsys, _READER[section], cfg, "bogus_key")


@pytest.mark.parametrize("section, key", [
    (section, key) for section in sorted(cli._SCHEMA)
    for key in _typed_keys(cli._SCHEMA[section])
] + [("threshold", "expect_dim_X1"), ("evolve", "k_max"), ("ftscan", "cap")])
def test_value_of_the_wrong_kind_exits_3(tmp_path, capsys, section, key):
    cfg = small_threshold_cfg()
    cfg.setdefault(section, {})[key] = "1"
    _exits_3_naming(tmp_path, capsys, _READER[section], cfg, key)


@pytest.mark.parametrize("family", sorted(cli._BUILTINS))
def test_unknown_builtin_param_exits_3(tmp_path, capsys, family):
    cfg = small_threshold_cfg()
    cfg["potential"] = {"builtin": family, "params": {"bogus_key": 1}}
    _exits_3_naming(tmp_path, capsys, "threshold", cfg, "bogus_key")


@pytest.mark.parametrize("family, key", [
    (family, key) for family in sorted(cli._BUILTINS)
    for key in _typed_keys(cli._BUILTINS[family])
])
def test_builtin_param_of_the_wrong_kind_exits_3(tmp_path, capsys, family, key):
    cfg = small_threshold_cfg()
    cfg["potential"] = {"builtin": family, "params": {key: "1"}}
    _exits_3_naming(tmp_path, capsys, "threshold", cfg, key)


@pytest.mark.parametrize("base, name", [
    ({"nmae": "gaussian_well"}, "nmae"),
    ({"params": {"depht": 5.0}}, "depht"),
])
def test_unknown_key_in_the_base_exits_3(tmp_path, capsys, base, name):
    cfg = small_threshold_cfg()
    cfg["potential"] = {"builtin": "complex_perturbed", "params": {"base": base}}
    _exits_3_naming(tmp_path, capsys, "threshold", cfg, name)


#: Misspellings and misplaced keys, each of which turned a gate off or was
#: ignored without a word, and the key or section the error names.
_MISSPELLINGS = {
    "expect_dim_x1": (("threshold", "expect_dim_x1"), 3),
    "nodse": (("grid", "nodse"), 120),
    "p": (("potential", "p"), 1.7),
    "samples_file": (("potential", "samples_file"), "V.txt"),
    "evolv": (("evolv",), {"t_start": 2.0}),
}


def _misspelled(names):
    cfg = small_threshold_cfg()
    for name in names:
        path, value = _MISSPELLINGS[name]
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    return cfg


@pytest.mark.parametrize("name", sorted(_MISSPELLINGS))
def test_misspelled_key_exits_3(tmp_path, capsys, name):
    _exits_3_naming(tmp_path, capsys, "threshold", _misspelled([name]), name)


def test_all_misspellings_at_once_exit_3(tmp_path, capsys):
    # the unknown section is refused as the file is loaded, before any read
    _exits_3_naming(tmp_path, capsys, "threshold", _misspelled(_MISSPELLINGS), "evolv")


@pytest.mark.parametrize("width", [0.0, -0.1])
def test_expect_exponent_width_must_be_positive(tmp_path, capsys, width):
    # refused before the evolve runs, not after it as a failed gate
    cfg = dict(cli._FIXTURE_SCENARIOS["evolve_free"])
    cfg["evolve"] = {**cfg["evolve"], "expect_exponent": [-1.5, width]}
    _exits_3_naming(tmp_path, capsys, "evolve", cfg, "expect_exponent")


@pytest.mark.parametrize("cap", [0.0, -1.0])
def test_ftscan_cap_must_be_positive(tmp_path, capsys, cap):
    cfg = small_threshold_cfg()
    cfg["ftscan"] = {"window": "HIGH", "n": 32, "cap": cap}
    _exits_3_naming(tmp_path, capsys, "ftscan", cfg, "cap")
