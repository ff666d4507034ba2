"""Discretized Hamiltonian, propagator, and dispersive-decay measurements.

The radial Laplacian acts on the reduced wave u = r psi with a Dirichlet
ghost at the origin and a Neumann ghost at r = L.  This boundary pair is
chosen so that the discretized free H0 and the sampled zero-energy kernel
R0(0) = min(r, r') are *exact* inverses of each other: the kernel is the
Green's function for u(0) = 0, u'(L) = 0, and it is piecewise linear, which
the 3-point stencil differentiates exactly.  All the threshold machinery
inherits machine-precision identities from this pairing.  (The price: free
eigenvalues are ((n + 1/2) pi / L)^2 rather than the Dirichlet-at-L values.)

The potential's samples leave H tridiagonal, and propagate applies
e^{-i tau H} as the (16, 16) diagonal Pade approximant of e^z in product
form,

    e^{-i tau H} ~ prod_j (H + a_j)^{-1} (H - a_j),   a_j = i z_j / tau,

with z_j the roots of the Pade numerator.  The approximant is A-stable and
unitary on the imaginary axis (Ehle, SIAM J. Math. Anal. 4, 1973), so a
mode it does not resolve keeps its size and only its phase is wrong; the
substeps needed follow the data's spectral content, not ||H|| (van den
Eshof & Hochbruck, SIAM J. Sci. Comput. 27, 2006).  Each factor is applied
in Cayley form, x - 2 a_j (H + a_j)^{-1} x: one shifted tridiagonal solve
and one BLAS axpy, O(M) per substep and factor.  A scan covers [0, t_0]
in steps of its own spacing, and each step checks n substeps against
ceil(3n / 2).  The partial-fraction form of the same approximant has a
round-off floor near 1e-6 and is not used.  The scans take a projection P
as its factors (U, W), so no M x M array is formed.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from . import birman, grids
from .grids import Grid, GridFunction

#: Step doubling accepts the finer of two passes over an output interval
#: once they differ by at most this, relative to the finer one's sup norm.
SUBSTEP_TOL = 1e-10

#: A pass whose substep tau has tau ||H||_1 <= RESOLVED_PHASE resolves all
#: of H: the (16, 16) approximant matches e^{-i y} to 7e-15 for |y| <= 8.
#: Step doubling stops there, since more substeps only add round-off.
RESOLVED_PHASE = 8.0

#: `propagate` takes a step length within STEP_RTOL, relative, of an
#: earlier one as that one, so np.linspace steps that differ in their last
#: bits share their factorizations; a wider merge would move the times.
STEP_RTOL = 1e-14


class FitWindowError(ValueError):
    """The decay fit window spans less than half a decade in t."""


class SubstepCapError(ArithmeticError):
    """Two passes that resolve all of H still disagree beyond SUBSTEP_TOL."""

    def __init__(self, dt, substeps, gap):
        self.dt, self.substeps, self.gap = dt, substeps, gap
        super().__init__(
            f"step doubling on an interval of length {dt:.6g} stopped at "
            f"{substeps} substeps, which resolve all of H: relative gap "
            f"{gap:.3e} > {SUBSTEP_TOL:g}"
        )


def discretize_H(V, grid):
    """H = -Delta_grid + V as a dense complex symmetric matrix, from the
    bands of `birman.hamiltonian`.  The pipelines keep H as its bands; the
    dense H serves the Schur projectors and fallback `eigvals` of
    `jordan.build_Ppp` and the tests' oracles.
    """
    d, e = birman.hamiltonian(V, grid)
    return np.diag(d.astype(complex)) + np.diag(e, 1) + np.diag(e, -1)


@dataclass(frozen=True)
class PropagatorPlan:
    """Grid, potential V, time grid, and the reflection horizon T_max."""

    grid: Grid
    V: object
    times: np.ndarray
    T_max: float = np.inf
    T_fit_min: float = 2.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ValueError("time grid must be strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "times", t)


def reflection_horizon(grid, k_max=None):
    """Ballistic estimate 0.8 L / (2 k_max) of the boundary-reflection time.

    k_max defaults to the grid Nyquist pi/h; when the initial data's
    spectral content is known to be narrower, passing its own k_max gives a
    usable (much later) horizon.
    """
    if k_max is None:
        k_max = np.pi / grid.spacing
    return 0.8 * grid.extent / (2.0 * k_max)


def make_plan(V, grid, times, k_max=None, T_fit_min=2.0):
    return PropagatorPlan(grid, V, np.asarray(times, float),
                          reflection_horizon(grid, k_max), T_fit_min)


@functools.cache
def _pade_roots():
    """The roots z_j of the (p, p) Pade numerator of e^z, p = 16.

    N(z) = sum_k (2p - k)! p! / ((2p)! k! (p - k)!) z^k, and the approximant
    is N(z) / N(-z) = prod_j (z - z_j) / (z + z_j) for even p.  Computed on
    the first sampled `propagate`, not at import: np.roots would cost every
    pipeline about 1.25 MB of peak RSS.
    """
    p, f = 16, math.factorial
    return np.roots([f(2 * p - k) * f(p) / (f(2 * p) * f(k) * f(p - k))
                     for k in range(p, -1, -1)])


def _pade_stepper(d, e):
    """step(dt, x) = e^{-i dt H} x for H = tridiag(e, d, e); see `propagate`.

    A step compares the pass of n substeps with the pass of
    m = max(n + 1, ceil(3n / 2)) and keeps the m-pass.  The order-32
    approximant errs by O(tau^33) per substep of length tau = dt / n, so
    by about C n^-32 over the step.  The m-pass then errs by
    (n / m)^32 <= (2/3)^32 ~ 2e-6 of the n-pass, the gap of the two passes
    is the n-pass's error to within that ratio, and an accepted step is off
    by about 2e-6 SUBSTEP_TOL = 2e-16 of its sup norm: round-off.  A check
    against 2n substeps costs a third more per step and only brings the
    ratio to 2^-32.
    """
    levels = {}    # (dt, n) -> [(-2 a_j, solver of H + a_j)], two at most
    accepted = {}  # dt -> n
    norm = birman._one_norm(d, e)
    if not np.isfinite(norm):  # no pass would ever resolve H
        raise ValueError("H has non-finite entries")

    def run(dt, n, x):
        if (dt, n) not in levels:
            shifts = 1j * _pade_roots() * (n / dt)
            levels[dt, n] = [(-2.0 * a, birman._tridiagonal_solver(d + a, e))
                             for a in shifts]
        factors = levels[dt, n]
        y = x.copy()  # the pass's own state, updated in place
        for _ in range(n):
            for c, solve in factors:
                y = blas.zaxpy(solve(y), y, a=c)
        return y

    def step(dt, x):
        n = accepted.get(dt, math.ceil(2 * dt))
        while True:
            m = max(n + 1, (3 * n + 1) // 2)
            for level in set(levels) - {(dt, n), (dt, m)}:
                del levels[level]
            coarse, fine = run(dt, n, x), run(dt, m, x)
            diff, scale = np.abs(coarse - fine).max(), np.abs(fine).max()
            if diff <= SUBSTEP_TOL * scale:
                accepted[dt] = n
                return fine
            if dt / n * norm <= RESOLVED_PHASE:
                raise SubstepCapError(dt, n, diff / scale)
            n *= 2

    return step


def propagate(plan, f):
    """States e^{-i t_k H} f for every t_k in the plan's time grid.

    Steps the state from each time to the next by the (16, 16) Pade
    product of the module docstring on the tridiagonal H of
    `birman.hamiltonian`.  The first interval [0, t_0] of a scan is
    covered in its spacing s = t_1 - t_0: one leading step of the
    remainder r = t_0 mod s, dropped when r <= STEP_RTOL s, then
    floor(t_0 / s) steps of s, so a linspace scan takes two step lengths,
    r and s; a plan of one time takes one step of t_0.  A
    step length within STEP_RTOL of an earlier one is taken as that one.

    Each factor is applied in Cayley form x - 2 a_j (H + a_j)^{-1} x: one
    complex tridiagonal solve (`birman._tridiagonal_solver`) and one BLAS
    axpy into the pass's own copy of the state, O(M) per factor and
    substep; f.values is left as it is.  Each step of length dt is split
    into substeps by the check of `_pade_stepper`: passes a (n substeps)
    and b (m = max(n + 1, ceil(3n / 2))) are compared, b is taken once
    max|a - b| <= SUBSTEP_TOL max|b|, else n doubles.  n starts at the
    count accepted last for the same dt, else at ceil(2 dt).  The
    doublings are capped where pass a already resolves all of H,
    (dt / n) ||H||_1 <= RESOLVED_PHASE: passes that still disagree raise
    SubstepCapError, never a silent result.  Factorizations are kept for
    two substep lengths at most: the pair under comparison, then the pair
    of the step length last accepted.
    """
    grid = plan.grid
    step = _pade_stepper(*birman.hamiltonian(plan.V, grid))
    t = plan.times
    intervals = [[t[0]], *([dt] for dt in np.diff(t))]  # the steps to each t_k
    if t.size > 1 and t[0] > 0:
        spacing = t[1] - t[0]
        count, rest = divmod(t[0], spacing)
        intervals[0] = [rest] if rest > STEP_RTOL * spacing else []
        intervals[0] += [spacing] * int(count)
    out, lengths = [], []
    state = f.values
    for steps in intervals:
        for dt in steps:
            if dt > 0:
                dt = next((s for s in lengths if abs(dt - s) <= STEP_RTOL * s), dt)
                if dt not in lengths:
                    lengths.append(dt)
                state = step(dt, state)
        out.append(GridFunction(grid, state))
    return out


def _inner_mask(grid):
    return grid.nodes <= 0.5 * grid.extent


def _fit_loglog(ts, vals):
    """Slope of log(vals) against log(ts) and its standard error."""
    x, y = np.log(ts), np.log(vals)
    A = np.column_stack([x, np.ones_like(x)])
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    dof = max(len(x) - 2, 1)
    resid = y - A @ coef
    s2 = float(resid @ resid) / dof
    xvar = float(np.sum((x - x.mean()) ** 2))
    stderr = np.sqrt(s2 / xvar) if xvar > 0 else np.inf
    return float(coef[0]), float(stderr)


def fit_selection(plan):
    """Mask of the plan's times inside the fit window [T_fit_min, T_max].

    Raises FitWindowError when the window holds fewer than two times or
    spans less than half a decade.
    """
    t = plan.times
    sel = (t >= plan.T_fit_min) & (t <= plan.T_max)
    if np.sum(sel) < 2 or t[sel].max() / t[sel].min() < np.sqrt(10):
        raise FitWindowError("fit window shorter than half a decade in t")
    return sel


def _complement(P, f):
    """(I - P) f for the factors P = (U, W), or f itself when P is None."""
    return f if P is None else GridFunction(f.grid, grids.apply_complement(P, f.values))


def dispersive_scan(plan, f, P=None):
    """Sup-norm decay table and fitted exponent for e^{-itH}(I - P) f.

    Sup norms are taken over the 3-D profile on the inner half of the domain
    (the boundary layer is polluted first); the log-log fit runs over the
    window [T_fit_min, T_max] intersected with the time grid.
    """
    grid = plan.grid
    sel = fit_selection(plan)
    states = propagate(plan, _complement(P, f))
    mask = _inner_mask(grid)
    sups, l2s = [], []
    for st in states:
        prof = grids.profile_values(st)
        sups.append(float(np.abs(prof[mask]).max()))
        l2s.append(grids.profile_lp_norm(st, 2))
    sups = np.asarray(sups)
    slope, stderr = _fit_loglog(plan.times[sel], sups[sel])
    return {
        "t": plan.times.tolist(),
        "sup_norm": sups.tolist(),
        "l2_norm": l2s,
        "exponent": slope,
        "stderr": stderr,
        "fit_window": [float(plan.times[sel].min()), float(plan.times[sel].max())],
        "T_max": float(plan.T_max),
    }


def stone_check(V, grid, f, t, lambda_cap, n_quad):
    """Stone-formula cross-check of the propagator.

    Compares e^{-itH} f against the spectral integral
    (1 / 2 pi i) int_0^Lambda e^{-i t E} [R_V^+(E) - R_V^-(E)] f dE
    with midpoint quadrature (offset from 0 by half a step, which also
    avoids a nontrivial threshold space); R_V^{+/-}(E) f is one
    `birman.bs_solve` per energy and branch.  Returns the relative sup-norm
    discrepancy of the profiles.
    """
    from .resolvent import Branch

    plan = make_plan(V, grid, [t])
    lhs = propagate(plan, f)[0]
    dE = lambda_cap / n_quad
    acc = np.zeros(grid.size, complex)
    for j in range(n_quad):
        E = (j + 0.5) * dE
        lam = np.sqrt(E)
        jump = np.zeros(grid.size, complex)
        for sign in (Branch.PLUS, Branch.MINUS):
            rv_f, _, _ = birman.bs_solve(
                V, grid, lam, f.values, sign, context=f"E={E}"
            )
            jump += int(sign) * rv_f
        acc += np.exp(-1j * t * E) * jump * dE
    rhs = GridFunction(grid, acc / (2j * np.pi))
    lp, rp = grids.profile_values(lhs), grids.profile_values(rhs)
    mask = _inner_mask(grid)
    denom = np.abs(lp[mask]).max()
    return float(np.abs((lp - rp)[mask]).max() / denom)


def write_decay_csv(report, path):
    """Decay report to CSV: t, sup_norm, l2_norm, fitted_exponent, fit_window, T_max."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "sup_norm", "l2_norm", "fitted_exponent", "fit_window", "T_max"])
        lo, hi = report["fit_window"]
        for t, s, l2 in zip(report["t"], report["sup_norm"], report["l2_norm"]):
            w.writerow([t, s, l2, report["exponent"], f"{lo}:{hi}", report["T_max"]])
