"""Regularized low-energy inverse of I + V R0(lambda^2) near the threshold.

With a zero-energy Jordan basis in hand, the inverse is rebuilt from three
ingredients: the constrained one-sided inverse S0 of I + V R0(0) on the
complement of X-bar_1 (a bordered solve), its Neumann continuation S(lambda),
and a pole-isolating inversion formula whose coefficients
come from pairings with the chain basis.  The identities this relies on,
the chain identity, its telescoped form and the inverse-action formula,
are checked in one place, `identity_residuals`, which reports the largest
residual of each per lambda; with `one_sided_residual` for S(lambda) on its
window, the whole construction can be audited numerically against dense
inversion.

Pairing convention: the abstract <f, conj(g)> pairings are realized through
the unconjugated bilinear pair against the stored basis members; in
particular <u, R0^-(l^2) conj(psi)> becomes pair(u, R0^+(l^2) psi).

Resolvent realization: within this module R0(lambda^2) is the exact
inverse of (H0 - lambda^2) for the same discrete H0 that defined the Jordan
basis.  The chain/telescope/exact-inverse identities are then pure linear
algebra and hold to round-off at every lambda below the first free domain
eigenvalue; the sampled free-space kernels of the resolvent module differ
from this family by a domain-truncation boundary term that would otherwise
pollute the pole coefficients with an O(1) defect.  H0 is tridiagonal, so
`domain_resolvent` applies this inverse by tridiagonal solves, O(M) per
vector; no M x M resolvent is formed except `_bs_matrix`, the dense
I + V R0(lambda^2) of the dense bordered S0 system and of the tests'
oracles.  H0 is real symmetric, so products X R0(lambda^2) are formed as
(R0(lambda^2) X^T)^T.

Cost: for a sampled potential nothing here is O(M^3).  `build_S0` forms
S0 column by column from tridiagonal solves (`_banded_S0`), O(M^2) in all,
and Q~0 = I - P~0 is applied through the rank-n factors of P~0, so S0 Q~0 V
and the defect of `one_sided_residual` cost O(M^2 n).  S(lambda) itself is
never formed: the scan and the formula apply it to their data, one column
per probe, so the work per lambda is the O(M^2) series step (M tridiagonal
solves, one M x M array) and its products with those columns.  The window
search (`_auto_window`) runs on one column of the step, one tridiagonal
solve and one O(M^2) product per trial lambda, and takes the full step,
M solves, only at lambda = 1 and to certify the window, about three times
in all.  Only a dense perturbation matrix takes the O(M^3) dense LU of the
bordered system (`_bordered_S0`).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from . import birman, grids, jordan
from .grids import GridFunction, bilinear_pair, lp_norm, operator_l1_norm


class DualityDegenerateError(ArithmeticError):
    """Pairing of V X_1 against R0(0) X_diag is singular."""


def domain_resolvent(grid, lam):
    """R0(lambda^2), the exact inverse of (H0 - lambda^2) on the domain.

    Factors the tridiagonal H0 - lambda^2 once (H0's bands are
    `birman.tridiagonal_bs(grid, 0.0)`) and returns the function that maps
    x, a vector or a matrix of columns, to (H0 - lambda^2)^{-1} x in O(M)
    per column.  Requires lambda^2 below the first eigenvalue of the
    discrete free Hamiltonian (`jordan.free_edge_scale` at leading order) so
    the inverse is positive definite.
    """
    dl, d, du = birman.tridiagonal_bs(grid, 0.0)
    return birman._tridiagonal_solver(dl, d - lam**2, du, f"lambda={lam}")


def _bs_matrix(V, grid, lam):
    """The dense I + V R0(lambda^2) with the domain resolvent family."""
    R = domain_resolvent(grid, lam)(np.eye(grid.size, dtype=complex))
    return np.eye(grid.size) + birman.potential_operator(V, R)


@dataclass
class RegularizedInverse:
    """S0 plus everything needed to continue it to small lambda.

    Q~0 = I - P~0 is kept as the rank-n factors (Y, Z) of P~0 = Y Z^T from
    `jordan.build_Ptilde0` and applied by `grids.apply_complement`: the
    columns of Y are the chain tops psi_{k,k}, those of Z the weighted
    chain bottoms w psi_{1,k}, n the number of chains.
    """

    S0: np.ndarray
    basis: "jordan.JordanBasis"
    V: object
    grid: object
    Y: np.ndarray
    Z: np.ndarray
    window: float
    range_constraints: np.ndarray  # R0(0) Y, whose columns the range of S0 pairs to 0
    # (S0 Q~0 V)^T and R0(0) (S0 Q~0 V)^T, the lambda-independent factors of
    # `_series_step`: formed once here rather than on every call.
    Xt: np.ndarray = field(init=False, repr=False)
    R0Xt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        S0Qt0 = self.S0 - (self.S0 @ self.Y) @ self.Z.T
        self.Xt = birman.potential_operator(self.V, S0Qt0, right=True).T
        self.R0Xt = domain_resolvent(self.grid, 0.0)(self.Xt)


def build_S0(V, grid, basis, window="auto"):
    """Constrained one-sided inverse of I + V R0(0).

    S0 f = u solves the bordered system [[Q~0 (I + V R0(0)), Y], [C, 0]]
    [u; mu] = [f; 0] where Y spans the psi_{k,k} (absorbing the cokernel)
    and the rows of C impose the range constraint pair(u, R0(0) psi_{k,k})
    = 0 (output orthogonal to R0(0) applied to the chain tops).  The
    duality normalization pair(V psi_{1,k}, R0(0) psi_{k',k'}) = -delta
    guarantees the bordered matrix is nonsingular.

    The path is read off the input.  For the samples of a multiplier,
    `_banded_S0` solves the system column by column in O(M) each, O(M^2)
    in all; with no threshold basis S0 is the plain inverse of I + V R0(0),
    M banded solves of `birman.bs_solve` with its near-singular refusal.  A
    dense perturbation matrix takes the dense LU of the bordered matrix
    (`_bordered_S0`, O(M^3)), which is also the oracle of the banded path.
    """
    Y, Z = jordan.build_Ptilde0(basis, grid)
    R0Y = domain_resolvent(grid, 0.0)(Y)
    # Duality check: pairing V psi_{1,k} against R0(0) psi_{k',k'}, with
    # Z = w psi_{1,k} and uniform weights w.
    D = birman.potential_operator(V, Z).T @ R0Y
    if basis.chains and np.linalg.cond(D) > 1e8:
        raise DualityDegenerateError(
            f"duality Gram matrix has condition {np.linalg.cond(D):.3e}"
        )
    v = birman._samples(V)
    if v is None:
        S0 = _bordered_S0(V, grid, Y, Z, R0Y)
    elif not basis.chains:
        eye = np.eye(grid.size, dtype=complex)
        S0 = birman.bs_solve(V, grid, 0.0, eye, context="S0")[1]
    else:
        S0 = _banded_S0(v, grid, Y, Z, R0Y)
    reg = RegularizedInverse(S0, basis, V, grid, Y, Z, np.inf, R0Y)
    reg.window = _auto_window(reg) if window == "auto" else window
    return reg


def _bordered_S0(V, grid, Y, Z, R0Y):
    """S0 from the dense LU of the bordered matrix of `build_S0`, O(M^3).

    The path of a dense perturbation matrix and the oracle of `_banded_S0`;
    with no chains (Y and Z of width 0) it is the dense inverse of
    I + V R0(0).
    """
    M, n = Y.shape
    T0 = _bs_matrix(V, grid, 0.0)
    K = np.zeros((M + n, M + n), complex)
    K[:M, :M] = T0 - Y @ (Z.T @ T0)
    K[:M, M:] = Y
    K[M:, :M] = (grid.weights[:, None] * R0Y).T
    Kinv, _ = birman.direct_inverse(K, context="S0 bordered solve")
    return Kinv[:M, :M]


def _banded_S0(v, grid, Y, Z, R0Y):
    """S0 for the samples v of a multiplier, in O(M) per column.

    R0(0) is exactly H0^{-1}, so I + V R0(0) = H H0^{-1} with H = H0 + V
    tridiagonal, and the weights are uniform (w = h), so C H0 = h Y^T.  The
    substitution u = H0 y turns the bordered system of `build_S0` into
    [[Q~0 H, Y], [h Y^T, 0]] [y; mu] = [f; 0], which `_bordered_solver`
    solves without forming any M x M matrix but the columns themselves.
    Forming u = H0 y loses about eps cond(H0) ~ eps M^2 in the T0 form that
    `one_sided_residual` checks, so one step of iterative refinement on that
    form follows, with I + V R0(0) applied by tridiagonal solves.
    """
    M, n = Y.shape
    dl, d0, du = birman.tridiagonal_bs(grid, 0.0)
    solve = _bordered_solver(dl, d0 + v, du, Y, Z, grid.weights[:, None] * Y)
    C = grid.weights[:, None] * R0Y
    F = np.eye(M, dtype=complex)
    y, mu = solve(F, np.zeros((n, M)))
    S0 = birman._tridiagonal_apply(dl, d0, du, y)
    del y
    # The residual [F; 0] - [[Q~0 T0, Y], [C, 0]] [S0; mu], formed in place
    # so that no more M x M arrays are alive than in the dense path.
    T = domain_resolvent(grid, 0.0)(S0)
    T *= v[:, None]
    T += S0
    T -= Y @ (Z.T @ T - mu)
    F -= T
    del T
    dy, _ = solve(F, -(C.T @ S0))
    del F
    S0 += birman._tridiagonal_apply(dl, d0, du, dy)
    return S0


def _bordered_solver(dl, d, du, Y, Z, B):
    """Solver of [[Q~0 H, Y], [B^T, 0]] with H = tridiag(dl, d, du), Q~0 = I - Y Z^T.

    H is singular: the psi_{1,k} of Z span its kernel.  The tridiagonal
    A = H + alpha E E^T (`birman._pinned_solver`), with E the unit columns
    at the rows where the psi_{1,k} are largest (column-pivoted QR of Z^T),
    is nonsingular.  Q~0 H = A + U W^T with U = [E, Y] and
    W = [-alpha E, -H^T Z], so block elimination leaves one tridiagonal
    solve per column and a 3n x 3n capacitance system for z = W^T y and mu.
    Returns solve(F, G) -> (y, mu) for the right-hand side [F; G], F of M
    rows and G of n rows.
    """
    M, n = Y.shape
    rows = sla.qr(Z.T, mode="r", pivoting=True)[1][:n]
    solve_A, alpha = birman._pinned_solver(dl, d, du, rows, "S0 bordered solve")
    E = np.zeros((M, n), complex)
    E[rows, np.arange(n)] = 1.0
    W = np.hstack([-alpha * E, -birman._tridiagonal_apply(du, d, dl, Z)])
    P, Q = solve_A(np.hstack([E, Y])), solve_A(Y)
    cap = np.block([[np.eye(2 * n) + W.T @ P, W.T @ Q], [B.T @ P, B.T @ Q]])

    def solve(F, G):
        y = solve_A(F)
        zmu = np.linalg.solve(cap, np.vstack([W.T @ y, B.T @ y - G]))
        y -= P @ zmu[: 2 * n] + Q @ zmu[2 * n :]
        return y, zmu[2 * n :]

    return solve


def _series_step(reg, lam):
    """The contraction factor operator -S0 Q~0 V B0(lambda^2).

    With X = S0 Q~0 V (stored transposed as reg.Xt, R0(0) X^T as reg.R0Xt),
    X B0 = D^T for D = R0(lambda^2) X^T - R0(0) X^T (`_difference`): M
    tridiagonal solves per lambda in place of the M x M difference kernel.
    D is negated in place and returned as its transposed view, so the step
    holds one M x M array.  The difference keeps the step consistent with
    the R0(lambda^2) that `one_sided_residual` applies; the equal product
    lambda^2 R0(lambda^2) R0(0) X^T leaves that residual near 4e-11 instead
    of 1e-13 on the full-ee grid.
    """
    D = _difference(reg, lam)
    np.negative(D, out=D)
    return D.T


def _difference(reg, lam):
    """D = R0(lambda^2) X^T - R0(0) X^T, the series step's negative transpose."""
    D = domain_resolvent(reg.grid, lam)(reg.Xt)
    D -= reg.R0Xt
    return D


def _step_column_norms(reg, lam):
    """The weighted L^1 norms sum_i w_i |step_ij| / w_j of the step's columns.

    Column j of the step is minus row j of D (`_difference`), so the norms
    are (|D| w) / w, with no transposed copy; their max is the induced norm.
    """
    w = reg.grid.weights
    return (np.abs(_difference(reg, lam)) @ w) / w


def contraction_factor(reg, lam):
    """||S0 Q~0 V B0(lambda^2)||_1, the induced L^1 norm of the series step."""
    return float(_step_column_norms(reg, lam).max())


def _column_factor(reg, lam, j):
    """The weighted L^1 norm of column j of the series step, in O(M^2).

    R0 is symmetric, so that column is -(X (R0(lambda^2) e_j) - (R0(0) X^T)_j):
    one tridiagonal solve, one product with X and a stored row of reg.R0Xt.
    The product is an einsum, not a BLAS gemv: the search makes a dozen of
    them in a row, and a threaded gemv that waits for a busy core took
    8 ms each at M = 400 on a 2-vCPU machine, where the einsum takes
    0.4 ms.  In exact arithmetic the factor is a lower bound on
    `contraction_factor`; on the full-ee grid near the window it agrees
    with the column norm of `_step_column_norms` to about 1e-13 relative.
    """
    e = np.zeros(reg.grid.size, complex)
    e[j] = 1.0
    r = domain_resolvent(reg.grid, lam)(e)
    column = np.einsum("ij,j->i", reg.Xt.T, r) - reg.R0Xt[j]
    w = reg.grid.weights
    return float(w @ np.abs(column) / w[j])


def _auto_window(reg):
    """The validity window: a multiple lo of xtol = 2^-30 in [0, 1] at which
    the contraction factor cf crosses target = 1/2.

    What is certified: cf(lo) <= target by the exact induced norm
    (`_step_column_norms`; cf(0) = 0 needs no evaluation), and, unless
    lo = 1 (cf(1) <= target), cf(lo + xtol) > target, by the exact norm or
    by one column's factor above target by more than 1e-12 relative.  Where
    cf increases on [0, 1] this is the one crossing on the xtol grid, the
    point that 30-step bisection returns; above the first eigenvalue of the
    box H0 cf need not increase, and lo is then some crossing.

    The search runs on a single column j of the step (`_column_factor`, one
    vector solve per lambda), the argmax column of the exact norms at the
    upper end of the bracket: `_regula_falsi` closes [L, U] over the
    integers k of the trial points k xtol.  The exact norm then certifies
    the returned lo; where it fails, another column has crossed first, and
    the search repeats below lo on the argmax column there.  A column value
    within 1e-12 relative of target at lo + xtol is checked by the exact
    norm; should that norm still be at most target, the search goes on
    above.  On full-ee that is 3 exact norms and 13 column evaluations.
    """
    target, n = 0.5, 2**30
    upper = _step_column_norms(reg, 1.0)
    if upper.max() <= target:
        return 1.0
    # certified: cf(L / n) <= target < cf(U / n), with the exact column
    # norms lower and upper there; the step vanishes at lambda = 0
    L, U, lower = 0, n, np.zeros_like(upper)
    j = int(np.argmax(upper))
    while True:
        lo, hi, ghi = _regula_falsi(
            lambda k: _column_factor(reg, k / n, j) - target,
            L, U, lower[j] - target, upper[j] - target,
        )
        if lo > L:
            norms = _step_column_norms(reg, lo / n)
            if norms.max() > target:
                U, upper, j = lo, norms, int(np.argmax(norms))
                continue
            L, lower = lo, norms
        if hi == U or ghi > 1e-12 * target:
            return L / n
        norms = _step_column_norms(reg, hi / n)
        if norms.max() > target:
            return L / n
        L, lower = hi, norms


def _regula_falsi(g, lo, hi, glo, ghi):
    """Close the integer bracket lo < hi of g, glo = g(lo) <= 0 < ghi = g(hi),
    to hi = lo + 1.

    Safeguarded regula falsi (Illinois): each trial point is rounded to an
    integer strictly inside the bracket, so a one-sided approach still
    closes it, and an endpoint kept twice in a row has its value halved.
    About ten evaluations where bisection takes 30; past 30 falsi steps it
    bisects, so it ends within 60 evaluations whatever the shape of g.
    Returns (lo, hi, g(hi)), g(hi) as given when hi did not move.
    """
    kept, steps, g_hi = 0, 0, ghi  # kept: -1 (+1) when hi (lo) survived the last step
    while hi - lo > 1:
        steps += 1
        if steps > 30:
            k = (lo + hi) // 2
        else:
            k = round(hi - ghi * (hi - lo) / (ghi - glo))
            k = min(max(k, lo + 1), hi - 1)
        gk = g(k)
        if gk <= 0:
            lo, glo = k, gk
            if kept < 0:
                ghi *= 0.5
            kept = -1
        else:
            hi, ghi, g_hi = k, gk, gk
            if kept > 0:
                glo *= 0.5
            kept = 1
    return lo, hi, g_hi


def build_S_lambda(reg, lam, X, max_terms=200):
    """S(lambda) X for the Neumann continuation S(lambda) = sum_m step^m S0.

    step = -S0 Q~0 V B0(lambda^2) (`_series_step`).  S(lambda) is not
    formed: the series sum_m step^m (S0 X) is summed on the columns of X, a
    matrix (the identity gives S(lambda) itself), in O(M^2) per column and
    term.  It stops once every column's term is below 1e-13 relative to the
    L^1 norm of its column of X; for X = I that is the induced-norm rule.
    Returns S(lambda) X and the contraction factor ||step||_1 (0 at
    lambda = 0).  Raises ValueError outside the validity window and
    NoContractionError or SeriesNotConvergedError (see birman) rather than
    return a partial sum.
    """
    if lam == 0:
        return reg.S0 @ X, 0.0
    x_norms = reg.grid.weights @ np.abs(X)
    return _continue_S0(reg, lam, reg.S0 @ X, x_norms, max_terms)


def _continue_S0(reg, lam, S0X, x_norms, max_terms=200):
    """The series of `build_S_lambda` from its first term S0 X, where the
    columns of X have L^1 norms x_norms; S0X is not modified."""
    if abs(lam) > reg.window:
        raise ValueError(f"lambda {lam} outside validity window {reg.window}")
    step = _series_step(reg, lam)
    return birman._neumann_series(S0X, step, reg.grid, 1e-13, max_terms, x_norms)


def one_sided_residual(reg, lam=0.0):
    """Residual of Q~0 (I + V R0(l^2)) S(l) = identity on X-bar_1-perp.

    Measured in induced L^1 after composing with the projector onto
    X-bar_1-perp = {f : pair(f, psi_{1,k}) = 0}, I - pinv(Z^T) Z^T.  Both
    Q~0 and that projector are applied through their rank-n factors, and
    I + V R0(l^2) through tridiagonal solves, never through H, so the check
    stays independent of how S0 was solved.
    """
    grid = reg.grid
    if lam == 0:
        S = reg.S0.copy()
    else:
        # S(l) itself: the series on X = I, whose first term is S0 (no product)
        S, _ = _continue_S0(reg, lam, reg.S0, grid.weights)
    # The defect Q~0 (I + V R0(l^2)) S - I, updated in place: the check
    # holds no more M x M arrays than S and one temporary.
    S += birman.potential_operator(reg.V, domain_resolvent(grid, lam)(S))
    S -= reg.Y @ (reg.Z.T @ S)
    S[np.diag_indices(grid.size)] -= 1.0
    S -= (S @ np.linalg.pinv(reg.Z.T)) @ reg.Z.T
    return operator_l1_norm(S, grid)


def range_constraint_residual(reg):
    """sup over 8 fixed-seed random f of |pair(S0 f, R0(0) psi_kk)| / ||f||_1."""
    rng = np.random.default_rng(0)
    grid = reg.grid
    worst = 0.0
    for _ in range(8):
        f = GridFunction(
            grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        )
        u = GridFunction(grid, reg.S0 @ f.values)
        for c in reg.range_constraints.T:
            val = abs(bilinear_pair(u, GridFunction(grid, c)))
            worst = max(worst, val / lp_norm(f, 1))
    return worst


# ---------------------------------------------------------------------------
# The pole-isolating inverse formula


def inverse_via_formula(reg, lam, f, variant="R0"):
    """(I + V R0(lambda^2))^{-1} f through the pole-isolating formula.

    variant "R0" pairs the S(lambda)-term against R0^-(lambda^2) psi-bar;
    variant "B0" uses the difference kernel B0 instead (equivalent on the
    range of S(lambda) thanks to the range constraint).  Returns the result
    and a diagnostics dict whose "inverse1" is the alternative form, with
    the coefficients F_k = pair((I + V R0(lambda^2)) u, psi_{1,k}), for the
    algebraic-equivalence check.
    """
    V, grid = reg.V, reg.grid
    Qf = grids.apply_complement((reg.Y, reg.Z), f.values)
    u = build_S_lambda(reg, lam, Qf[:, None])[0][:, 0]
    result = _formula(reg, lam, u, f, variant)
    Ru = domain_resolvent(grid, lam)(u)
    Tu = GridFunction(grid, u + birman.potential_operator(V, Ru))
    out1 = u.copy()
    for C in reg.basis.chains:
        psi1 = GridFunction(grid, C[:, 0])
        Fk = bilinear_pair(Tu, psi1)
        out1 = out1 + (bilinear_pair(f, psi1) - Fk) * _brackets(V, C, lam)[1]
    return result, {"inverse1": GridFunction(grid, out1)}


def _brackets(V, C, lam):
    """The two brackets of the formula for the chain C = [psi_{1,k} ...
    psi_{k,k}]: sum_j l^{2(j-1)} V psi_{j,k} + l^{2k} psi_{k,k} and
    sum_j l^{-2(k+1-j)} V psi_{j,k} + psi_{k,k}."""
    k = C.shape[1]
    Vchain = [birman.potential_operator(V, C[:, j]) for j in range(k)]
    return (
        sum(lam ** (2 * j) * Vchain[j] for j in range(k)) + lam ** (2 * k) * C[:, -1],
        sum(lam ** (-2 * (k - j)) * Vchain[j] for j in range(k)) + C[:, -1],
    )


def _formula(reg, lam, u, f, variant="R0"):
    """The formula of `inverse_via_formula` with u = S(lambda) Q~0 f given."""
    if lam == 0:
        raise ValueError("formula applies for lambda != 0")
    V, grid = reg.V, reg.grid
    ugf = GridFunction(grid, u)
    R = domain_resolvent(grid, lam)
    if variant == "R0":
        pair_op = R
    elif variant == "B0":
        R_0 = domain_resolvent(grid, 0.0)

        def pair_op(x):
            return R(x) - R_0(x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    result = u.copy()
    for C in reg.basis.chains:
        bracket2, bracket3 = _brackets(V, C, lam)
        coef2 = bilinear_pair(ugf, GridFunction(grid, pair_op(C[:, -1])))
        coef3 = sum(
            lam ** (2 * i) * bilinear_pair(f, GridFunction(grid, C[:, i]))
            for i in range(C.shape[1])
        )
        result = result + coef2 * bracket2 + coef3 * bracket3
    return GridFunction(grid, result)


def identity_residuals(V, grid, basis, lam):
    """The largest chain, telescope and exact-inverse residuals at lambda != 0.

    Over the chains, with l = lambda and psi_{0,k} = 0: the L^1
    residuals of the chain identity (I + R0(l^2)V) psi_{j,k} =
    R0(l^2)(psi_{j-1,k} - l^2 psi_{j,k}) relative to (1 + l^2)||psi_{j,k}||_1;
    of its telescoped form (I + R0(l^2)V) A = -l^{2k} R0(l^2) psi_{k,k},
    A = sum_j l^{2(j-1)} psi_{j,k}, relative to (1 + l^2)||A||_1; and of the
    inverse-action formula (I + V R0(l^2)) Psi = psi_{k,k}, Psi = psi_{k,k} +
    sum_j l^{-2(k+1-j)} V psi_{j,k}, relative to the intrinsic blowup
    max(l^{-2k}, 1)||psi_{k,k}||_1.  The keys are the `low_energy_scan`
    columns resid_chain, resid_telescope and resid_exactinv; an empty basis
    gives 0 for each.  lambda = 0, the pole of the formula, raises ValueError.
    """
    if lam == 0:
        raise ValueError("inverse-action formula is singular at lambda = 0")
    R0 = domain_resolvent(grid, lam)
    w = grid.weights
    chain, telescope, exactinv = [], [], []
    for C in basis.chains:
        k = C.shape[1]
        psis = [C[:, j] for j in range(k)]
        Vpsis = [birman.potential_operator(V, psi) for psi in psis]
        for j, psi in enumerate(psis, start=1):
            lhs = psi + R0(Vpsis[j - 1])
            rhs = R0((psis[j - 2] if j > 1 else 0.0) - lam**2 * psi)
            absres = float(np.sum(w * np.abs(lhs - rhs)))
            scale = (1.0 + lam**2) * max(np.sum(w * np.abs(psi)), 1e-300)
            chain.append(absres / scale)
        acc = np.zeros(grid.size, complex)
        for j in range(1, k + 1):
            acc += lam ** (2 * (j - 1)) * psis[j - 1]
        lhs = acc + R0(birman.potential_operator(V, acc))
        rhs = -(lam ** (2 * k)) * R0(psis[k - 1])
        absres = float(np.sum(w * np.abs(lhs - rhs)))
        scale = (1.0 + lam**2) * max(np.sum(w * np.abs(acc)), 1e-300)
        telescope.append(absres / scale)
        psikk = psis[k - 1]
        Psi = psikk.astype(complex).copy()
        for j in range(1, k + 1):
            Psi += lam ** (-2 * (k + 1 - j)) * Vpsis[j - 1]
        lhs = Psi + birman.potential_operator(V, R0(Psi))
        absres = float(np.sum(w * np.abs(lhs - psikk)))
        blowup = max(lam ** (-2 * k), 1.0)
        scale = blowup * max(np.sum(w * np.abs(psikk)), 1e-300)
        exactinv.append(absres / scale)
    return {
        "resid_chain": max(chain, default=0.0),
        "resid_telescope": max(telescope, default=0.0),
        "resid_exactinv": max(exactinv, default=0.0),
    }


def low_energy_scan(reg, lambdas, f_admissible, f_generic, path=None):
    """lambda scan of formula outputs and identity residuals, optionally to CSV.

    Columns: lambda, norm_admissible_f, norm_generic_f, contraction,
    resid_chain, resid_telescope, resid_exactinv.  S(lambda) and its
    contraction factor come from one Neumann series per lambda, summed on
    the two columns Q~0 f_admissible and Q~0 f_generic.
    """
    V, grid, basis = reg.V, reg.grid, reg.basis
    X = grids.apply_complement(
        (reg.Y, reg.Z), np.column_stack([f_admissible.values, f_generic.values])
    )
    rows = []
    for lam in lambdas:
        resid = identity_residuals(V, grid, basis, lam)
        SX, contraction = build_S_lambda(reg, lam, X)
        ga = _formula(reg, lam, SX[:, 0], f_admissible)
        gg = _formula(reg, lam, SX[:, 1], f_generic)
        rows.append(
            {
                "lambda": lam,
                "norm_admissible_f": lp_norm(ga, 1),
                "norm_generic_f": lp_norm(gg, 1),
                "contraction": contraction,
                **resid,
            }
        )
    if path is not None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows
