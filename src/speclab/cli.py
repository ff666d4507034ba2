"""Scenario runner: configure a grid/potential pair, run a named pipeline,
persist JSON reports and CSV scans.

Subcommands: threshold, invert, evolve, ftscan, full, fixtures.
Exit codes: 0 success, 2 assertion failure (a configured check did not
hold), 3 configuration error (the scenario file is missing, malformed or
inconsistent, its samples file is unreadable or holds non-finite values,
or a configured invert lambda is 0 or, with a nonempty threshold basis,
beyond the validity window of S(lambda); without configured lambdas a
nonempty basis gets window / 4, window / 2 and the window itself;
stderr gets one "configuration error: ..." line), 4 numerical refusal
(the scenario is well-formed but a numerical routine declined it: a
near-singular solve, a Neumann series that does not contract or converge,
a non-nilpotent or degenerate threshold space, ambiguous eigenvalue
clusters or a degenerate duality pairing; stderr gets one
"numerical refusal: ..." line).  Reports embed the full tolerance set and
the grid metadata, carry no wall-clock data, and use fixed key order, so
identical scenario files produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import birman, evolution, ftdiag, grids, jordan, lowenergy, potentials
from .grids import GridFunction, Mode

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ASSERT = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

#: Exceptions by which a numerical routine refuses a scenario (exit code 4).
_NUMERICAL_REFUSALS = (
    birman.NearSingularError,
    birman.NoContractionError,
    birman.SeriesNotConvergedError,
    evolution.SubstepCapError,
    jordan.NotNilpotentError,
    jordan.DegeneratePairingError,
    jordan.NoStabilizationError,
    jordan.ClusterAmbiguousError,
    lowenergy.DualityDegenerateError,
    potentials.NoCouplingError,
)


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


class CheckFailure(AssertionError):
    """A configured acceptance check did not hold."""


# ---------------------------------------------------------------------------
# Potential library

def builtin_potential(name, params, grid):
    """Sampled builtin potential as a PotentialSpec.

    Families: exact_eigen(s >= 2, tuned coupling, recorded as [re, im] in
    spec.metadata["coupling"]), gaussian_well(depth, width),
    complex_perturbed(base builtin, gamma, width).
    """
    if not isinstance(params or {}, dict):
        raise ConfigError(f"params of {name} must be a JSON object")
    params = dict(params or {})
    p, q = _exponents(params.pop("p", 1.4), params.pop("q", 2.0))
    if name == "exact_eigen":
        s = _number("s", params.pop("s", 2.0))
        if s < 2.0:
            raise ConfigError(f"exact_eigen requires s >= 2, got {s}")
        _reject_extra(name, params)
        raw = potentials.exact_eigen(grid, s=s, p=p, q=q)
        tuned, c, _ = potentials.tune_coupling(raw, grid)
        tuned.metadata["coupling"] = [c.real, c.imag]
        return tuned
    if name == "gaussian_well":
        depth = _number("depth", params.pop("depth", 4.0))
        width = _number("width", params.pop("width", 1.0))
        _reject_extra(name, params)
        return potentials.gaussian_well(grid, depth=depth, width=width, p=p, q=q)
    if name == "complex_perturbed":
        gamma = _number("gamma", params.pop("gamma", 0.3))
        width = _number("width", params.pop("width", 1.0))
        base_cfg = params.pop("base", None)
        _reject_extra(name, params)
        base = None
        if base_cfg is not None:
            if not isinstance(base_cfg, dict):
                raise ConfigError("base of complex_perturbed must be a JSON object")
            base = builtin_potential(
                base_cfg.get("name", "gaussian_well"),
                base_cfg.get("params", {}),
                grid,
            )
        return potentials.complex_perturbed(
            grid, base=base, gamma=gamma, width=width, p=p, q=q
        )
    raise ConfigError(f"unknown builtin potential {name!r}")


def _reject_extra(name, params):
    if params:
        raise ConfigError(f"unknown parameters for {name}: {sorted(params)}")


def _number(key, value, kind=float):
    """value converted by kind (float or int); ConfigError unless it is a
    finite JSON number (not a boolean, not a string), and for int a whole
    one."""
    number = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if not math.isfinite(number) or (kind is int and not number.is_integer()):
        noun = "a whole number" if kind is int else "a finite number"
        raise ConfigError(f"{key!r} must be {noun}, got {value!r}")
    return kind(number)


def _flag(key, value):
    """value, which must be a JSON boolean; else ConfigError."""
    if not isinstance(value, bool):
        raise ConfigError(f"{key!r} must be true or false, got {value!r}")
    return value


def _exponents(p, q):
    """The potential's Lebesgue exponents, which must satisfy p < 3/2 < q."""
    p, q = _number("p", p), _number("q", q)
    if not p < 1.5 < q:
        raise ConfigError(f"potential exponents need p < 3/2 < q, got p={p}, q={q}")
    return p, q


# ---------------------------------------------------------------------------
# Configuration

#: Sections that, when present, must be JSON objects.
_SECTIONS = ("grid", "potential", "tolerances", "threshold", "invert", "evolve",
             "ftscan")

_DEFAULT_TOLERANCES = {
    "identity_residual": 1e-6,
    "one_sided_residual": 1e-9,
    "verdict_tol_res": 1e-2,
}


def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    version = cfg.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    for key in ("grid", "potential"):
        if key not in cfg:
            raise ConfigError(f"config is missing the {key!r} section")
    for key in _SECTIONS:
        if not isinstance(cfg.get(key, {}), dict):
            raise ConfigError(f"the {key!r} section must be a JSON object")
    return cfg


def make_scenario_grid(cfg, grid_scale=1):
    gspec = cfg["grid"]
    mode = gspec.get("mode", Mode.RADIAL_SWAVE.value)
    try:
        mode = Mode(mode)
    except ValueError:
        raise ConfigError(f"unknown grid mode {mode!r}") from None
    extent = _number("extent", gspec.get("extent", 20.0))
    nodes = _number("nodes", gspec.get("nodes", 200), int)
    try:
        return grids.make_grid(mode, extent, nodes * int(grid_scale))
    except grids.GridError as exc:
        raise ConfigError(str(exc)) from None


def make_scenario_potential(cfg, grid):
    pspec = cfg["potential"]
    if "builtin" in pspec:
        return builtin_potential(pspec["builtin"], pspec.get("params", {}), grid)
    if "samples_file" in pspec:
        path = pspec["samples_file"]
        if not os.path.exists(path):
            raise ConfigError(f"samples file not found: {path}")
        try:
            vals = np.loadtxt(path, dtype=complex)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable samples file {path}: {exc}") from None
        if vals.shape != (grid.size,):
            raise ConfigError(
                f"samples file holds {vals.shape} values, grid has {grid.size}"
            )
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"samples file {path} holds non-finite values")
        p, q = _exponents(pspec.get("p", 1.4), pspec.get("q", 2.0))
        return birman.PotentialSpec(
            os.path.basename(path), GridFunction(grid, vals), p, q
        )
    raise ConfigError("potential needs either 'builtin' or 'samples_file'")


def _tolerances(cfg):
    given = dict(cfg.get("tolerances", {}))
    tol = {
        key: _number(key, given.pop(key, default))
        for key, default in _DEFAULT_TOLERANCES.items()
    }
    _reject_extra("tolerances", given)
    for key, val in tol.items():
        if not val > 0:
            raise ConfigError(f"tolerance {key!r} must be positive")
    return tol


def _header(pipeline, V, grid, tol):
    """The keys every report opens with: pipeline, potential, grid, tolerances."""
    return {
        "pipeline": pipeline,
        "potential": V.name,
        "grid": {
            "mode": grid.mode.value,
            "extent": float(grid.extent),
            "nodes": grid.size,
            "spacing": float(grid.spacing),
        },
        "tolerances": tol,
    }


# ---------------------------------------------------------------------------
# Pipelines (each returns a report dict; CheckFailure on violated gates).
# A stage given no `threshold` (a jordan.Threshold) computes it when it needs
# one; `run_full` computes it once and hands it to every stage.

def run_threshold(cfg, grid, V, rng, out_dir=None, *, threshold=None):
    tol = _tolerances(cfg)
    section = cfg.get("threshold", {})
    expected = section.get("expect_verdicts")
    if expected is not None and not (
        isinstance(expected, list)
        and all(v in (jordan.EIGENVALUE, jordan.RESONANCE) for v in expected)
    ):
        raise ConfigError(
            f"'expect_verdicts' must list EIGENVALUE or RESONANCE, got {expected!r}"
        )
    expected_dim = section.get("expect_dim_X1")
    if expected_dim is not None:
        expected_dim = _number("expect_dim_X1", expected_dim, int)
    if threshold is None:
        threshold = jordan.threshold(V, grid)
    fits = [
        jordan.classify_state(psi, grid, tol_res=tol["verdict_tol_res"])
        for psi in threshold.states
    ]
    verdicts = [fit["verdict"] for fit in fits]
    out = {
        **_header("threshold", V, grid, tol),
        "dims": list(threshold.dims),
        "verdicts": verdicts,
        "c0": [[fit["c0"].real, fit["c0"].imag] for fit in fits],
    }
    if expected is not None and verdicts != expected:
        raise CheckFailure(f"verdicts {verdicts} != expected {expected}")
    if expected_dim is not None:
        got = threshold.dims[0] if threshold.dims else 0
        if got != expected_dim:
            raise CheckFailure(f"dim X1 = {got} != expected {expected_dim}")
    return out


def run_invert(cfg, grid, V, rng, out_dir=None, *, threshold=None):
    tol = _tolerances(cfg)
    section = cfg.get("invert", {})
    lambdas = section.get("lambdas")
    if "lambdas" in section:
        if not isinstance(lambdas, list) or not lambdas:
            raise ConfigError("invert lambdas must be a nonempty JSON list")
        lambdas = [_number("lambdas", l) for l in lambdas]
    window = section.get("window", "auto")
    if window != "auto":
        window = _number("window", window)
    if threshold is None:
        threshold = jordan.threshold(V, grid)
    basis = threshold.basis
    reg = lowenergy.build_S0(V, grid, basis, window=window)
    if lambdas is None:
        # S(lambda) is built only on a nonempty basis, so only there must
        # the default lambdas lie inside its validity window
        w = reg.window
        lambdas = [w / 4, w / 2, w] if basis.dim > 0 else [0.03, 0.1, 0.2]
    # lambda = 0 is the pole of every identity; the window bounds S(lambda),
    # which is built only when there is a threshold basis to invert on
    for lam in lambdas:
        if lam == 0 or (basis.dim > 0 and abs(lam) > reg.window):
            raise ConfigError(
                f"invert lambda {lam} outside the validity window "
                f"0 < |lambda| <= {reg.window}"
            )
    residuals = {
        "one_sided_S0": lowenergy.one_sided_residual(reg, 0.0),
        "range_constraint": lowenergy.range_constraint_residual(reg),
    }
    if out_dir is not None and basis.dim > 0:
        # the scan's rows carry the identity residuals of each lambda
        probe = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        P0 = jordan.build_P0(basis, grid)
        f_adm = GridFunction(grid, grids.apply_complement(P0, probe))
        rows = lowenergy.low_energy_scan(
            reg, np.array(lambdas), f_adm, grids.gaussian_bump(grid),
            path=os.path.join(out_dir, "low_energy_scan.csv"),
        )
    else:
        rows = [lowenergy.identity_residuals(V, grid, basis, lam) for lam in lambdas]
    per_lambda = [
        {"lambda": lam, "chain": row["resid_chain"],
         "telescope": row["resid_telescope"],
         "exact_inverse": row["resid_exactinv"]}
        for lam, row in zip(lambdas, rows)
    ]
    out = {
        **_header("invert", V, grid, tol),
        "window": reg.window,
        "dims": {str(k): v for k, v in basis.multiplicities.items()},
        "residuals": residuals,
        "per_lambda": per_lambda,
    }
    for key in ("one_sided_S0", "range_constraint"):
        if residuals[key] > tol["one_sided_residual"]:
            raise CheckFailure(f"{key} residual {residuals[key]:.3e}")
    for row in per_lambda:
        for key in ("chain", "telescope", "exact_inverse"):
            if row[key] > tol["identity_residual"]:
                raise CheckFailure(
                    f"{key} residual {row[key]:.3e} at lambda={row['lambda']}"
                )
    return out


def run_evolve(cfg, grid, V, rng, out_dir=None, *, threshold=None):
    tol = _tolerances(cfg)
    section = cfg.get("evolve", {})
    t0 = _number("t_start", section.get("t_start", 2.0))
    t1 = _number("t_end", section.get("t_end", 8.0))
    n_times = _number("n_times", section.get("n_times", 10), int)
    project = _flag("project", section.get("project", False))
    k_max = section.get("k_max")
    if k_max is not None:
        k_max = _number("k_max", k_max)
        if not k_max > 0:
            raise ConfigError(f"evolve needs k_max > 0, got {k_max}")
    if not 0 < t0 < t1 or n_times < 2:
        raise ConfigError("evolve needs 0 < t_start < t_end and n_times >= 2")
    delta_im = _number("delta_im", section.get("delta_im", 1e-3))
    if not delta_im > 0:
        raise ConfigError(f"evolve needs delta_im > 0, got {delta_im}")
    gate = section.get("expect_exponent")
    if gate is not None:
        if not isinstance(gate, list) or len(gate) != 2:
            raise ConfigError(f"expect_exponent must be [center, width], got {gate!r}")
        gate = [_number("expect_exponent", x) for x in gate]
    times = np.linspace(t0, t1, n_times)
    plan = evolution.make_plan(V, grid, times, k_max=k_max, T_fit_min=t0)
    try:
        evolution.fit_selection(plan)
    except evolution.FitWindowError as exc:
        raise ConfigError(f"evolve: {exc}") from None
    f = grids.gaussian_bump(grid)
    P = None
    if project:
        if threshold is None:
            threshold = jordan.threshold(V, grid)
        P = jordan.build_Ppp(V, grid, basis=threshold.basis, delta_im=delta_im)
    report = evolution.dispersive_scan(plan, f, P)
    out = {
        **_header("evolve", V, grid, tol),
        "projected": P is not None,
        "exponent": report["exponent"],
        "stderr": report["stderr"],
        "fit_window": report["fit_window"],
        "T_max": report["T_max"],
    }
    if out_dir is not None:
        evolution.write_decay_csv(report, os.path.join(out_dir, "decay_scan.csv"))
    if gate is not None:
        center, width = gate
        if abs(report["exponent"] - center) > width:
            raise CheckFailure(
                f"decay exponent {report['exponent']:.4f} outside "
                f"{center} +/- {width}"
            )
    return out


def run_ftscan(cfg, grid, V, rng, out_dir=None, *, threshold=None):
    tol = _tolerances(cfg)
    section = cfg.get("ftscan", {})
    window = str(section.get("window", "HIGH")).upper()
    if window not in ("HIGH", "MID", "LOW"):
        raise ConfigError(f"unknown transform window {window!r}")
    params = {
        "n": _number("n", section.get("n", 256), int),
        "lam_max": _number("lam_max", section.get("lam_max", 8.0)),
        "lambda1": _number("lambda1", section.get("lambda1", 1.0)),
        "r": _number("r", section.get("r", 0.25)),
    }
    if "cap" in section:
        params["cap"] = _number("cap", section["cap"])
    n = params["n"]
    if n < 2 or n & (n - 1):
        raise ConfigError(f"ftscan n = {n} must be a power of two")
    if not 0 < params["r"] < params["lambda1"] or params["lam_max"] <= 0:
        raise ConfigError("ftscan needs 0 < r < lambda1 and lam_max > 0")
    expected = section.get("expect_verdict")
    if expected not in (None, ftdiag.OK, ftdiag.DIVERGENT):
        raise ConfigError(f"'expect_verdict' must be OK or DIVERGENT, got {expected!r}")
    f = grids.gaussian_bump(grid)
    if _flag("project", section.get("project", False)):
        if threshold is None:
            threshold = jordan.threshold(V, grid)
        P0 = jordan.build_P0(threshold.basis, grid)
        f = GridFunction(grid, grids.apply_complement(P0, f.values))
    scan = ftdiag.t_hat_l1_scan(V, grid, f, window, params)
    out = {
        **_header("ftscan", V, grid, tol),
        "window": window,
        "params": params,
        "total": scan.total,
        "verdict": scan.verdict,
    }
    if out_dir is not None:
        scan.to_csv(os.path.join(out_dir, f"ftscan_{window.lower()}.csv"))
    if expected is not None and scan.verdict != expected:
        raise CheckFailure(f"transform verdict {scan.verdict} != {expected}")
    return out


def run_full(cfg, grid, V, rng, out_dir=None):
    """Threshold classification, inversion residuals, transform scan, and the
    dispersive-decay measurement, in order, on one scenario whose threshold
    is computed once."""
    report = {**_header("full", V, grid, _tolerances(cfg)), "stages": {}}
    threshold = jordan.threshold(V, grid)
    stages = report["stages"]
    stages["threshold"] = run_threshold(cfg, grid, V, rng, threshold=threshold)
    stages["invert"] = run_invert(cfg, grid, V, rng, out_dir, threshold=threshold)
    stages["ftscan"] = run_ftscan(cfg, grid, V, rng, out_dir, threshold=threshold)
    stages["evolve"] = run_evolve(cfg, grid, V, rng, out_dir, threshold=threshold)
    return report


_PIPELINES = {
    "threshold": run_threshold,
    "invert": run_invert,
    "evolve": run_evolve,
    "ftscan": run_ftscan,
    "full": run_full,
}


# ---------------------------------------------------------------------------
# Fixture scenario files

_FIXTURE_SCENARIOS = {
    "threshold_exact_eigen": {
        "schema_version": SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 20.0, "nodes": 200},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "threshold": {"expect_dim_X1": 1, "expect_verdicts": ["EIGENVALUE"]},
    },
    "evolve_free": {
        "schema_version": SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 40.0, "nodes": 800},
        "potential": {"builtin": "gaussian_well", "params": {"depth": 0.0}},
        "evolve": {
            "t_start": 2.0, "t_end": 6.4, "n_times": 10, "k_max": 2.5,
            "expect_exponent": [-1.5, 0.1],
        },
    },
    "invert_exact_eigen": {
        "schema_version": SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 2.25, "nodes": 225},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "invert": {"lambdas": [0.03, 0.1, 0.2], "window": 0.25},
    },
    "full_exact_eigen": {
        "schema_version": SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 80.0, "nodes": 1600},
        "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
        "threshold": {"expect_dim_X1": 1, "expect_verdicts": ["EIGENVALUE"]},
        "invert": {"lambdas": [0.0002, 0.0005], "window": "auto"},
        "ftscan": {"window": "HIGH", "n": 128, "lam_max": 8.0,
                   "expect_verdict": "OK"},
        "evolve": {
            "t_start": 2.5, "t_end": 8.0, "n_times": 10, "k_max": 4.0,
            "project": True, "expect_exponent": [-1.5, 0.15],
        },
    },
    "ftscan_well_high": {
        "schema_version": SCHEMA_VERSION,
        "grid": {"mode": "radial_swave", "extent": 20.0, "nodes": 200},
        "potential": {"builtin": "gaussian_well",
                      "params": {"depth": 4.0, "width": 1.0}},
        "ftscan": {"window": "HIGH", "n": 256, "lam_max": 8.0,
                   "expect_verdict": "OK"},
    },
}


def emit_fixtures(out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name in sorted(_FIXTURE_SCENARIOS):
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(_FIXTURE_SCENARIOS[name], fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# Entry point

def build_parser():
    parser = argparse.ArgumentParser(
        prog="speclab",
        description="Threshold/inversion/evolution scenario runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_PIPELINES, "fixtures"):
        p = sub.add_parser(name)
        if name != "fixtures":
            p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--grid-scale", type=int, choices=(1, 2), default=1)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.command == "fixtures":
        out_dir = args.out or "fixtures"
        for path in emit_fixtures(out_dir):
            print(path)
        return EXIT_OK
    try:
        cfg = load_config(args.config)
        grid = make_scenario_grid(cfg, args.grid_scale)
        V = make_scenario_potential(cfg, grid)
        rng = np.random.default_rng(args.seed)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
        report = _PIPELINES[args.command](cfg, grid, V, rng, args.out)
        report["seed"] = args.seed
        report["grid_scale"] = args.grid_scale
        payload = json.dumps(report, indent=2, sort_keys=True, default=_json_default)
        if args.out is not None:
            with open(os.path.join(args.out, f"{args.command}_report.json"), "w") as fh:
                fh.write(payload + "\n")
        print(payload)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CheckFailure as exc:
        print(f"assertion failure: {exc}", file=sys.stderr)
        return EXIT_ASSERT
    except _NUMERICAL_REFUSALS as exc:
        print(f"numerical refusal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def _json_default(obj):
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


if __name__ == "__main__":
    sys.exit(main())
