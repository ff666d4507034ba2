"""Accuracy checks on a speclab pipeline report.

`residual_max` is the largest gated residual over its tolerance, so a
value above 1 means a gate the pipeline enforces would fail.  `outputs`
picks the report's physics results; `ref_dev` is their largest relative
deviation from a stored reference.  Discrete outputs (dims, verdicts,
transform window name) must match exactly; a mismatch counts as 1.
"""

from __future__ import annotations

# Relative deviation from the reference that still counts as correct.  The
# structured fast paths the roadmap plans move results by 1e-10 to 1e-12,
# and OpenBLAS thread counts move them by less, so 1e-6 passes those while
# any change to the physics itself fails.
REF_TOL = 1e-6

_ONE_SIDED = ("one_sided_S0", "range_constraint")
_IDENTITY = ("chain", "telescope", "exact_inverse")


def residual_max(report):
    """max residual / tolerance over the invert gates; 0 if none apply."""
    inv = report.get("stages", {}).get("invert", report)
    if inv.get("pipeline") != "invert":
        return 0.0
    tol = inv["tolerances"]
    ratios = [inv["residuals"][k] / tol["one_sided_residual"] for k in _ONE_SIDED]
    for row in inv["per_lambda"]:
        ratios += [row[k] / tol["identity_residual"] for k in _IDENTITY]
    return max(ratios)


def outputs(report, coupling=None, scan=None):
    """Flat {path: value} of the physics results of a (possibly full) report,
    the tuned coupling and the rows of a low-energy scan CSV.

    Only the scan columns that do not depend on the seeded random probe are
    kept: the generic-probe norm and the series contraction factor.

    Numeric values are stored as [re, im]; each entry is
    ``[value, floor]`` where `floor` is the magnitude below which the
    deviation is taken as absolute (the verdict scale for tail
    coefficients, 0 elsewhere), or ``[value, None]`` for exact outputs.
    """
    out = {}
    stages = report.get("stages", {"": report})
    for stage, rep in stages.items():
        pre = f"{stage}." if stage else ""
        tol_res = rep["tolerances"]["verdict_tol_res"]
        for key in ("dims", "verdicts", "verdict"):
            if key in rep:
                out[pre + key] = [rep[key], None]
        if "c0" in rep:
            for i, c in enumerate(rep["c0"]):
                out[f"{pre}c0.{i}"] = [list(c), tol_res]
        window = rep.get("window")
        if isinstance(window, str):
            out[pre + "window"] = [window, None]
        elif window is not None:
            out[pre + "window"] = [[float(window), 0.0], 0.0]
        for key in ("total", "exponent"):
            if key in rep:
                out[pre + key] = [[float(rep[key]), 0.0], 0.0]
    if coupling is not None:
        out["coupling"] = [[float(coupling[0]), float(coupling[1])], 0.0]
    for row in scan or ():
        for key in ("norm_generic_f", "contraction"):
            out[f"scan.{row['lambda']}.{key}"] = [[float(row[key]), 0.0], 0.0]
    return out


def ref_dev(got, ref):
    """Largest deviation of `got` from `ref` (both from `outputs`)."""
    if set(got) != set(ref):
        return 1.0
    worst = 0.0
    for key, (value, floor) in ref.items():
        other = got[key][0]
        if floor is None:
            if other != value:
                return 1.0
            continue
        r, x = complex(*value), complex(*other)
        scale = max(abs(r), floor)
        if scale == 0.0:
            dev = 0.0 if x == 0 else 1.0
        else:
            dev = abs(x - r) / scale
        worst = max(worst, dev)
    return worst
