"""Discretized Hamiltonian, propagator, and dispersive-decay measurements.

The radial Laplacian acts on the reduced wave u = r psi with a Dirichlet
ghost at the origin and a Neumann ghost at r = L.  This boundary pair is
chosen so that the discretized free H0 and the sampled zero-energy kernel
R0(0) = min(r, r') are *exact* inverses of each other: the kernel is the
Green's function for u(0) = 0, u'(L) = 0, and it is piecewise linear, which
the 3-point stencil differentiates exactly.  All the threshold machinery
inherits machine-precision identities from this pairing.  (The price: free
eigenvalues are ((n + 1/2) pi / L)^2 rather than the Dirichlet-at-L values.)

The potential's samples leave H = tridiag(e, d, e) tridiagonal, and
propagate steps e^{-i tau H} by one of two propagators, chosen per step
length from H's bands alone.

Real bands are real symmetric, so H is normal with real spectrum inside its
Gershgorin interval [c - r, c + r], and the Chebyshev series

    e^{-i tau H} = e^{-i tau c} sum_k (2 - delta_k0) (-i)^k J_k(tau r) T_k((H - c) / r)

converges like the Bessel coefficients J_k(tau r) (Tal-Ezer & Kosloff,
J. Chem. Phys. 81, 3967, 1984).  Since ||T_k((H - c) / r)||_2 <= 1, cutting
it after the least N with 2 sum_{k > N} |J_k(tau r)| <= eps leaves each
step within eps ||x||_2 of the exact one, an a-priori bound with no second
pass to compare.  Each term of the three-term recurrence is one banded BLAS
product (zgbmv) and one axpy.  The coefficients come from Miller's backward
recurrence (`_bessel_j`).

Complex bands make H complex symmetric and in general not normal, with
complex spectrum: ||T_k|| then grows with k and the tail bound fails, so
those steps, and real ones whose series would take more banded products
than the Pade check pair takes solves (fine grids, where r ~ 2 / h^2),
apply the (16, 16) diagonal Pade approximant of e^z in product form,

    e^{-i tau H} ~ prod_j (H + a_j)^{-1} (H - a_j),   a_j = i z_j / tau,

with z_j the roots of the Pade numerator.  The approximant is A-stable and
unitary on the imaginary axis (Ehle, SIAM J. Math. Anal. 4, 1973), so a
mode it does not resolve keeps its size and only its phase is wrong; the
substeps needed follow the data's spectral content, not ||H|| (van den
Eshof & Hochbruck, SIAM J. Sci. Comput. 27, 2006).  Each factor is applied
in Cayley form, x - 2 a_j (H + a_j)^{-1} x: one shifted tridiagonal solve
and one BLAS axpy, O(M) per substep and factor.  Each Pade step checks n
substeps against ceil(3n / 2).  The partial-fraction form of the same
approximant has a round-off floor near 1e-6 and is not used.

A scan covers [0, t_0] in steps of its own spacing.  The scans take a
projection P as its factors (U, W), so no M x M array is formed.
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

#: The degree p of the (p, p) Pade approximant: one solve per factor.
_PADE_ORDER = 16


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
    p, f = _PADE_ORDER, math.factorial
    return np.roots([f(2 * p - k) * f(p) / (f(2 * p) * f(k) * f(p - k))
                     for k in range(p, -1, -1)])


def _start_substeps(dt):
    """The substep count a Pade step of length dt tries first."""
    return math.ceil(2 * dt)


def _finer(n):
    """The substep count m = max(n + 1, ceil(3n / 2)) that checks n."""
    return max(n + 1, (3 * n + 1) // 2)


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
        n = accepted.get(dt, _start_substeps(dt))
        while True:
            m = _finer(n)
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


def _bessel_j(x):
    """J_0(x), ..., J_K(x) for x > 0, by Miller's backward recurrence.

    J_{k-1} = (2k / x) J_k - J_{k+1} runs down from J_{K+1} = 0, J_K = 1,
    rescaled by 1e-250 whenever a value passes 1e250, and the result is
    normalized by J_0 + 2 sum_k J_2k = 1.  J_k is the recurrence's minimal
    solution, so the start's error decays on the way down.  The start
    K = x + 15 x^(1/3) + 40 lies past the transition region k ~ x, where
    J_K(x) is below 1e-32 for x up to 3000, far beyond the eps tail.
    Against 40-digit mpmath values (every seventh k at x = 33.7, 1000 and
    1100) the results agree to 5e-16 absolute.  A step with x <= eps keeps
    J_0 = 1 alone.
    """
    if x <= np.finfo(float).eps:  # J_0 = 1 and a tail of about x
        return np.ones(1)
    K = int(x + 15.0 * x ** (1.0 / 3.0) + 40.0)
    j = np.zeros(K + 2)
    j[K] = 1.0
    for k in range(K, 0, -1):
        j[k - 1] = (2.0 * k / x) * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1:] *= 1e-250
    j = j[:-1]
    return j / (j[0] + 2.0 * j[2::2].sum())


def _chebyshev_terms(j):
    """The least N with 2 sum_{k > N} |J_k| <= eps, for j = `_bessel_j(x)`."""
    tail = 2.0 * np.cumsum(np.abs(j[:0:-1]))[::-1]  # tail[N] = 2 sum_{k > N}
    return int(np.argmax(np.append(tail, 0.0) <= np.finfo(float).eps))


def _chebyshev_stepper(d, e, fallback):
    """step(dt, x) = e^{-i dt H} x for real bands d, e; see `propagate`.

    A step whose series needs more than the 16 (n_0 + m_0) banded products
    of the first pair of Pade passes, n_0 = ceil(2 dt) and
    m_0 = max(n_0 + 1, ceil(3 n_0 / 2)), goes to `fallback`, the Pade
    stepper: the Pade path never takes fewer solves for a step, and a
    solve costs more than a banded product.  N >= dt r (J_k(dt r) is far
    above eps for k <= dt r), so the coefficients are not computed for a
    step with dt r beyond that budget.
    """
    lo, hi = birman._gershgorin(d, e)
    c, r = (hi + lo) / 2, (hi - lo) / 2
    M = d.size
    band = np.zeros((3, M), complex, order="F")  # zgbmv's storage of H - c
    band[0, 1:], band[1], band[2, :-1] = e, d - c, e
    series = {}  # dt -> the N + 1 coefficients of T_k x, or None for Pade

    def coefficients(dt):
        if dt not in series:
            n = _start_substeps(dt)
            budget = _PADE_ORDER * (n + _finer(n))
            series[dt] = None
            if dt * r <= budget:
                j = _bessel_j(dt * r)
                N = _chebyshev_terms(j)
                if N <= budget:
                    # (-i)^k exactly; numpy's complex power errs by 2e-13
                    # at k ~ 1000
                    phase = np.array([1, -1j, -1, 1j])[np.arange(N + 1) % 4]
                    a = 2.0 * phase * j[:N + 1]
                    a[0] /= 2.0
                    series[dt] = np.exp(-1j * dt * c) * a
        return series[dt]

    def step(dt, x):
        a = coefficients(dt)
        if a is None:
            return fallback(dt, x)
        x = np.asarray(x, complex)
        out = a[0] * x
        if a.size > 1:
            prev = x.copy()  # T_{k-1} x, overwritten by T_{k+1} x
            cur = blas.zgbmv(M, M, 1, 1, 1.0 / r, band, x)
            out = blas.zaxpy(cur, out, a=a[1])
            for ak in a[2:]:
                prev = blas.zgbmv(M, M, 1, 1, 2.0 / r, band, cur, beta=-1.0,
                                  y=prev, overwrite_y=True)
                prev, cur = cur, prev
                out = blas.zaxpy(cur, out, a=ak)
        return out

    return step


def _stepper(d, e):
    """step(dt, x) = e^{-i dt H} x for H = tridiag(e, d, e): the Chebyshev
    series for real bands where it is the cheaper path, else the Pade
    product."""
    if not np.isfinite(birman._one_norm(d, e)):  # neither path would end
        raise ValueError("H has non-finite entries")
    pade = _pade_stepper(d, e)
    return pade if np.iscomplexobj(d) else _chebyshev_stepper(d, e, pade)


def propagate(plan, f):
    """States e^{-i t_k H} f for every t_k in the plan's time grid.

    Steps the state from each time to the next on the tridiagonal
    H = tridiag(e, d, e) of `birman.hamiltonian`, by one of the two
    propagators of the module docstring.  The first interval [0, t_0] of a
    scan is covered in its spacing s = t_1 - t_0: one leading step of the
    remainder r = t_0 mod s, dropped when r <= STEP_RTOL s, then
    floor(t_0 / s) steps of s, so a linspace scan takes two step lengths,
    r and s; a plan of one time takes one step of t_0.  A
    step length within STEP_RTOL of an earlier one is taken as that one.
    H with a non-finite entry raises ValueError before any step.

    Which propagator takes a step of length dt follows from the bands and
    dt alone.  Real bands take the Chebyshev series of `_chebyshev_stepper`
    when its order N, the least with 2 sum_{k > N} |J_k(dt r)| <= eps for
    the half-width r of H's Gershgorin interval, is at most the
    16 (n_0 + m_0) solves of the first Pade check pair (n_0 = ceil(2 dt),
    m_0 = max(n_0 + 1, ceil(3 n_0 / 2))).  The step is then within
    eps ||x||_2 of the exact one: N banded products (BLAS zgbmv) and N
    axpys, into buffers of its own.  Complex bands, whose H is not normal
    and may have complex spectrum so that the tail bound does not hold,
    and real bands where the series is longer (fine grids: r ~ 2 / h^2)
    take the Pade product.

    Each Pade factor is applied in Cayley form x - 2 a_j (H + a_j)^{-1} x:
    one complex tridiagonal solve (`birman._tridiagonal_solver`) and one
    BLAS axpy into the pass's own copy of the state, O(M) per factor and
    substep; f.values is left as it is on both paths.  Each Pade step of
    length dt is split into substeps by the check of `_pade_stepper`:
    passes a (n substeps) and b (m = max(n + 1, ceil(3n / 2))) are
    compared, b is taken once max|a - b| <= SUBSTEP_TOL max|b|, else n
    doubles.  n starts at the count accepted last for the same dt, else at
    ceil(2 dt).  The doublings are capped where pass a already resolves
    all of H, (dt / n) ||H||_1 <= RESOLVED_PHASE: passes that still
    disagree raise SubstepCapError, never a silent result.  Factorizations
    are kept for two substep lengths at most: the pair under comparison,
    then the pair of the step length last accepted.  The Chebyshev
    coefficients are kept per step length.
    """
    grid = plan.grid
    step = _stepper(*birman.hamiltonian(plan.V, grid))
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
    `birman.bs_solve` per energy and branch, which raises ValueError where
    sqrt(E) h is near a nonzero multiple of pi.  Returns the relative
    sup-norm discrepancy of the profiles.
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
