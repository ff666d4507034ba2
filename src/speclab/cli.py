"""Scenario runner: configure a grid/potential pair, run a named pipeline,
persist JSON reports and CSV scans.

Subcommands: threshold, invert, evolve, ftscan, full, fixtures.
Exit codes: 0 success, 2 assertion failure (a configured check did not
hold), 3 configuration error (the scenario file is missing or malformed,
breaks its schema, `_SCHEMA` and `_BUILTINS`, or a cross-field rule of
the pipeline that reads it, such as an invert lambda outside the validity
window or whose lambda^-2K overflows, or a grid too coarse to classify a
threshold state; stderr gets one "configuration error: ..." line), 4
numerical refusal (the scenario is well-formed but a numerical routine
declined it: a near-singular solve, a Neumann series that does not
contract, a non-nilpotent or degenerate threshold space, ambiguous
eigenvalue clusters, a degenerate duality pairing, no finite coupling
that tunes an exact_eigen potential, or a propagator step whose substep
doubling cannot meet its tolerance: the classes of `_NUMERICAL_REFUSALS`;
stderr gets one "numerical refusal: ..." line).  Reports embed the full
tolerance set and the grid metadata, carry no wall-clock data, and use
fixed key order, so identical scenario files produce byte-identical JSON.
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
# Configuration

#: Every section of a scenario file, its keys and their defaults, read by
#: `_read`; None marks a key with no default.
_SCHEMA = {
    "grid": {"mode": Mode.RADIAL_SWAVE.value, "extent": 20.0, "nodes": 200},
    "potential": {"builtin": None, "params": {}, "samples_file": None,
                  "p": 1.4, "q": 2.0},
    "tolerances": {"identity_residual": 1e-6, "one_sided_residual": 1e-9,
                   "verdict_tol_res": 1e-2},
    "threshold": {"expect_dim_X1": None, "expect_verdicts": None},
    "invert": {"lambdas": None, "window": "auto"},
    "evolve": {"t_start": 2.0, "t_end": 8.0, "n_times": 10, "project": False,
               "k_max": None, "delta_im": 1e-3, "expect_exponent": None},
    "ftscan": {"window": "HIGH", "n": 256, "lam_max": 8.0, "lambda1": 1.0,
               "r": 0.25, "cap": None, "project": False, "expect_verdict": None},
}

#: The builtin potential families: the keyword arguments of
#: potentials.<family> that a potential's `params` may set, with defaults.
_BUILTINS = {
    "exact_eigen": {"s": 2.0, "p": 1.4, "q": 2.0},
    "gaussian_well": {"depth": 4.0, "width": 1.0, "p": 1.4, "q": 2.0},
    "complex_perturbed": {"base": None, "gamma": 0.3, "width": 1.0,
                          "p": 1.4, "q": 2.0},
}

#: The base potential of complex_perturbed: a builtin name and its params.
_BASE = {"name": "gaussian_well", "params": {}}


def _read(where, given, schema):
    """The JSON object `given` (a section, params or base, `where` in errors)
    with the defaults of `schema` filled in.  A value for a key whose
    default is a bool must be a JSON boolean, and one for a key whose
    default is an int or a float is converted by `_number`; other values
    are read as given.  ConfigError when `given` is not a JSON object or
    names a key that `schema` lacks."""
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be a JSON object")
    out = dict(schema)
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} in {where}")
        kind = type(schema[key])
        if kind is bool and not isinstance(value, bool):
            raise ConfigError(f"{key!r} must be true or false, got {value!r}")
        out[key] = _number(key, value, kind) if kind in (int, float) else value
    return out


def _section(cfg, name):
    """Section `name` of the scenario cfg, read against its schema."""
    return _read(name, cfg.get(name, {}), _SCHEMA[name])


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


def _check_exponents(p, q):
    """ConfigError unless the Lebesgue exponents satisfy p < 3/2 < q."""
    if not p < 1.5 < q:
        raise ConfigError(f"potential exponents need p < 3/2 < q, got p={p}, q={q}")


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
    for key, section in cfg.items():
        if key == "schema_version":
            continue
        if key not in _SCHEMA:
            raise ConfigError(f"unknown section {key!r}")
        if not isinstance(section, dict):
            raise ConfigError(f"the {key!r} section must be a JSON object")
    return cfg


def make_scenario_grid(cfg, grid_scale=1):
    spec = _section(cfg, "grid")
    try:
        mode = Mode(spec["mode"])
    except ValueError:
        raise ConfigError(f"unknown grid mode {spec['mode']!r}") from None
    try:
        return grids.make_grid(mode, spec["extent"], spec["nodes"] * int(grid_scale))
    except grids.GridError as exc:
        raise ConfigError(str(exc)) from None


def builtin_potential(name, params, grid):
    """The builtin family `name` (`_BUILTINS`) with its params, sampled on
    the grid; exact_eigen (s >= 2) has its coupling tuned and recorded as
    [re, im] in spec.metadata["coupling"], and the base of complex_perturbed
    is a builtin (`_BASE`)."""
    if not isinstance(name, str) or name not in _BUILTINS:
        raise ConfigError(f"unknown builtin potential {name!r}")
    params = _read(f"params of {name}", params, _BUILTINS[name])
    _check_exponents(params["p"], params["q"])
    if name == "exact_eigen" and params["s"] < 2.0:
        raise ConfigError(f"exact_eigen requires s >= 2, got {params['s']}")
    if params.get("base") is not None:
        base = _read("base of complex_perturbed", params["base"], _BASE)
        params["base"] = builtin_potential(base["name"], base["params"], grid)
    V = getattr(potentials, name)(grid, **params)
    if name == "exact_eigen":
        V, c, _ = potentials.tune_coupling(V, grid)
        V.metadata["coupling"] = [c.real, c.imag]
    return V


def make_scenario_potential(cfg, grid):
    spec = _section(cfg, "potential")
    if spec["builtin"] is not None:
        for key in ("samples_file", "p", "q"):
            if key in cfg["potential"]:
                raise ConfigError(f"potential takes no {key!r} beside 'builtin' "
                                  "(its p and q go in 'params')")
        return builtin_potential(spec["builtin"], spec["params"], grid)
    path = spec["samples_file"]
    if path is None:
        raise ConfigError("potential needs either 'builtin' or 'samples_file'")
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
    _check_exponents(spec["p"], spec["q"])
    return birman.PotentialSpec(
        os.path.basename(path), GridFunction(grid, vals), spec["p"], spec["q"]
    )


def _tolerances(cfg):
    tol = _section(cfg, "tolerances")
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
    section = _section(cfg, "threshold")
    expected = section["expect_verdicts"]
    if expected is not None and not (
        isinstance(expected, list)
        and all(v in (jordan.EIGENVALUE, jordan.RESONANCE) for v in expected)
    ):
        raise ConfigError(
            f"'expect_verdicts' must list EIGENVALUE or RESONANCE, got {expected!r}"
        )
    expected_dim = section["expect_dim_X1"]
    if expected_dim is not None:
        expected_dim = _number("expect_dim_X1", expected_dim, int)
    if threshold is None:
        threshold = jordan.threshold(V, grid)
    try:
        fits = [
            jordan.classify_state(psi, tol_res=tol["verdict_tol_res"])
            for psi in threshold.states
        ]
    except ValueError as exc:
        raise ConfigError(
            f"cannot classify a threshold state on the grid of {grid.size} "
            f"nodes over [0, {grid.extent}]: {exc}"
        ) from None
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
    section = _section(cfg, "invert")
    lambdas, window = section["lambdas"], section["window"]
    if lambdas is not None:
        if not isinstance(lambdas, list) or not lambdas:
            raise ConfigError("invert lambdas must be a nonempty JSON list")
        lambdas = [_number("lambdas", l) for l in lambdas]
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
    # which is built only when there is a threshold basis to invert on; the
    # identities and the formula scale chains of length K by lambda^-2K
    K = max(basis.multiplicities, default=0)
    for lam in lambdas:
        if lam == 0 or (basis.dim > 0 and abs(lam) > reg.window):
            raise ConfigError(
                f"invert lambda {lam} outside the validity window "
                f"0 < |lambda| <= {reg.window}"
            )
        try:
            abs(lam) ** (-2 * K)
        except OverflowError:
            raise ConfigError(
                f"invert lambda {lam}: lambda^-{2 * K} overflows "
                f"(K = {K}, the longest Jordan chain)"
            ) from None
    residuals = dict(
        zip(("one_sided_S0", "range_constraint"), lowenergy.one_sided(reg, 0.0))
    )
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
        rows = [
            lowenergy.identity_residuals(
                V, grid, basis, lam, lowenergy.domain_resolvent(grid, lam)
            )
            for lam in lambdas
        ]
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
    section = _section(cfg, "evolve")
    t0, t1, k_max = section["t_start"], section["t_end"], section["k_max"]
    if k_max is not None:
        k_max = _number("k_max", k_max)
        if not k_max > 0:
            raise ConfigError(f"evolve needs k_max > 0, got {k_max}")
    if not 0 < t0 < t1 or section["n_times"] < 2:
        raise ConfigError("evolve needs 0 < t_start < t_end and n_times >= 2")
    delta_im = section["delta_im"]
    if not delta_im > 0:
        raise ConfigError(f"evolve needs delta_im > 0, got {delta_im}")
    gate = section["expect_exponent"]
    if gate is not None:
        if not isinstance(gate, list) or len(gate) != 2:
            raise ConfigError(f"expect_exponent must be [center, width], got {gate!r}")
        gate = [_number("expect_exponent", x) for x in gate]
        if not gate[1] > 0:
            raise ConfigError(f"'expect_exponent' needs a width > 0, got {gate[1]}")
    times = np.linspace(t0, t1, section["n_times"])
    plan = evolution.make_plan(V, grid, times, k_max=k_max, T_fit_min=t0)
    try:
        evolution.fit_selection(plan)
    except evolution.FitWindowError as exc:
        raise ConfigError(f"evolve: {exc}") from None
    f = grids.gaussian_bump(grid)
    P = None
    if section["project"]:
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
    section = _section(cfg, "ftscan")
    window = str(section["window"]).upper()
    if window not in ("HIGH", "MID", "LOW"):
        raise ConfigError(f"unknown transform window {window!r}")
    params = {key: section[key] for key in ("n", "lam_max", "lambda1", "r")}
    if section["cap"] is not None:
        params["cap"] = _number("cap", section["cap"])
        if not params["cap"] > 0:
            raise ConfigError(f"ftscan needs 'cap' > 0, got {params['cap']}")
    n = params["n"]
    if n < 2 or n & (n - 1):
        raise ConfigError(f"ftscan n = {n} must be a power of two")
    if not 0 < params["r"] < params["lambda1"] or params["lam_max"] <= 0:
        raise ConfigError("ftscan needs 0 < r < lambda1 and lam_max > 0")
    expected = section["expect_verdict"]
    if expected not in (None, ftdiag.OK, ftdiag.DIVERGENT):
        raise ConfigError(f"'expect_verdict' must be OK or DIVERGENT, got {expected!r}")
    f = grids.gaussian_bump(grid)
    if section["project"]:
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
