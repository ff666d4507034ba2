"""Regularized low-energy inverse of I + V R0(lambda^2) near the threshold.

With a zero-energy Jordan basis in hand, the inverse is rebuilt from three
ingredients: the constrained one-sided inverse S0 of I + V R0(0) on the
complement of X-bar_1 (a bordered solve), its Neumann continuation S(lambda)
(that solve at lambda), and a pole-isolating inversion formula whose
coefficients come from pairings with the chain basis.  The identities this relies on,
the chain identity, its telescoped form and the inverse-action formula,
are checked in one place, `identity_residuals`, which reports the largest
residual of each per lambda; with `one_sided` for S(lambda) on its window,
the whole construction can be audited numerically against dense inversion.

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
vector; no M x M resolvent is formed.  H0 is real symmetric, so products
X R0(lambda^2) are formed as (R0(lambda^2) X^T)^T.

Cost: nothing here is O(M^3), and there is no M x M array.  S0 and S0^T
are applied by the bordered solve (`_bordered_S` at lambda = 0) and its
transpose, O(M) per column, and everything that spans M columns is
streamed in column blocks of BLOCK_BYTES (`_blocks`).  Q~0 = I - P~0 is
applied through the rank-n factors of P~0, and X^T, X = S0 Q~0 V, is
formed a block at a time from columns of S0^T (`_xt_block`), so the
exact contraction factor costs O(M^2 n).  Each exact-norm pass forms
R0(0) X^T a block at a time from the block of X^T it has just formed, M
tridiagonal solves, and then takes M more per lambda; the scan takes the
factors of all its lambdas in one pass.  The check `one_sided` forms the
columns of S(lambda) a block at a time, O(M^2) in all.  S(lambda) itself
is never formed: the scan and the formula apply it to their data, one
column per probe, by the solve that gives S0 at lambda.  R0(0) is factored
once, by `build_S0`, and kept; H0 - lambda^2 once per call, by the code
that starts work at lambda, which hands it to S(lambda), its exact factor
and the identity residuals.
The window search (`_auto_window`) runs on one column j of the step, one
tridiagonal and one bordered solve per trial lambda, after one of each on
R0(0) for row j of R0(0) X^T.  It starts on the last column,
whose factor certifies the crossing below lambda = 1, and takes the
exact norm to certify the window: once on full-ee.  A real potential
makes the basis, the factors of S0 and every block here real (float64),
half the memory of complex ones.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import birman, grids, jordan
# operator_l1_norm is unused here but stays importable as lowenergy's alias
# of the grids function, which the benchmark's tracer tests rebind.
from .grids import GridFunction, bilinear_pair, lp_norm, operator_l1_norm  # noqa: F401


#: Bytes of one column block of the streamed M-column products.
BLOCK_BYTES = 2**17


class DualityDegenerateError(ArithmeticError):
    """Pairing of V X_1 against R0(0) X_diag is singular."""


def _blocks(M, itemsize):
    """The column blocks of an M x M array of itemsize bytes per entry:
    BLOCK_BYTES worth of columns, a multiple of 8 columns (8 at least).

    With OpenBLAS, a product on a block of 8k columns that starts at a
    multiple of 8 gives the bits of the same columns of one product on all
    M columns (blocks of 5 or 41 columns do not), so the columns of S0 do
    not depend on BLOCK_BYTES.  A sum over all M columns taken block by
    block does: the exact norms of `_scan_column_norms` move by a few ulp
    with it.
    """
    width = max(8, BLOCK_BYTES // (M * itemsize) // 8 * 8)
    return [slice(a, min(a + width, M)) for a in range(0, M, width)]


def domain_resolvent(grid, lam):
    """R0(lambda^2), the exact inverse of (H0 - lambda^2) on the domain.

    Factors the tridiagonal H0 - lambda^2 once (H0's bands are
    `birman.tridiagonal_bs(grid, 0.0)`; `birman._tridiagonal_solver`) and
    returns the function that maps x, a vector or a matrix of columns, to
    (H0 - lambda^2)^{-1} x in O(M) per column.  Requires lambda^2 not to be
    an eigenvalue of the box H0; an exact zero pivot raises
    birman.NearSingularError.  Below the first box eigenvalue H0 - lambda^2
    is positive definite and is factored as LDL^T; lambda^2 may also lie
    above it (`_auto_window` starts at lambda = 1), where the factorization
    is pivoted LU.
    """
    d, e = birman.tridiagonal_bs(grid, 0.0)
    return birman._tridiagonal_solver(d - lam**2, e, f"lambda={lam}")


@dataclass
class RegularizedInverse:
    """S0 plus everything needed to continue it to small lambda.

    Q~0 = I - P~0 is kept as the rank-n factors (Y, Z) of P~0 = Y Z^T from
    `jordan.build_Ptilde0` and applied by `grids.apply_complement`: the
    columns of Y are the chain tops psi_{k,k}, those of Z the weighted
    chain bottoms w psi_{1,k}, n the number of chains.

    No M x M array is kept.  S0 is F -> S0 F, `_bordered_S` at lambda = 0,
    and S0T maps a slice J to the columns J of S0^T, by the transposed
    solve on the same factorization without refinement: O(M) per column.
    `_xt_block` forms any block of the columns of X^T, X = S0 Q~0 V, from
    S0T and S0Y = S0 Y (M x n), and each exact-norm pass
    (`_scan_column_norms`) applies R0(0) to the block it has just formed.
    """

    S0: object
    S0T: object
    R0: object  # R0(0), the `domain_resolvent` that build_S0 factored
    basis: "jordan.JordanBasis"
    V: object
    grid: object
    Y: np.ndarray
    Z: np.ndarray
    window: float
    range_constraints: np.ndarray  # R0(0) Y, whose columns the range of S0 pairs to 0
    # S0 Y, the lambda-independent factor of every block of X^T: formed
    # once here rather than on every call.
    S0Y: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.S0Y = self.S0(self.Y)


def _xt_block(reg, J):
    """Columns J of X^T = (S0 Q~0 V)^T: v (S0^T[:, J] - Z S0Y[J]^T), with v
    the samples of the potential.  Rank-n products here are einsums, not
    BLAS calls: at n = 1 each entry is one multiply either way, in half
    the time."""
    columns = reg.S0T(J)
    columns -= np.einsum("ik,jk->ij", reg.Z, reg.S0Y[J])
    columns *= birman._samples(reg.V)[:, None]
    return columns


def build_S0(V, grid, basis, window="auto"):
    """Constrained one-sided inverse of I + V R0(0).

    S0 f = u solves the bordered system [[Q~0 (I + V R0(0)), Y], [C, 0]]
    [u; mu] = [f; 0] where Y spans the psi_{k,k} (absorbing the cokernel)
    and the rows of C impose the range constraint pair(u, R0(0) psi_{k,k})
    = 0 (output orthogonal to R0(0) applied to the chain tops).  The
    duality normalization pair(V psi_{1,k}, R0(0) psi_{k',k'}) = -delta
    guarantees the bordered matrix is nonsingular.

    S0 is never formed: the RegularizedInverse keeps `_bordered_S` at
    lambda = 0, which applies it in O(M) per column, and the transposed
    solve on its factorization for the columns of S0^T.  With no threshold
    basis (n = 0) S0 is the plain inverse of I + V R0(0).
    """
    Y, Z = jordan.build_Ptilde0(basis, grid)
    R0 = domain_resolvent(grid, 0.0)
    R0Y = R0(Y)
    # Duality check: pairing V psi_{1,k} against R0(0) psi_{k',k'}, with
    # Z = w psi_{1,k} and uniform weights w.
    D = birman.potential_operator(V, Z).T @ R0Y
    cond = np.linalg.cond(D) if basis.chains else 0.0
    if cond > 1e8:
        raise DualityDegenerateError(f"duality Gram matrix has condition {cond:.3e}")
    v = birman._samples(V)
    S0, transposed = _bordered_S(v, grid, Y, Z, R0Y, 0.0, R0)
    reg = RegularizedInverse(S0, transposed(v), R0, basis, V, grid, Y, Z, np.inf, R0Y)
    reg.window = _auto_window(reg) if window == "auto" else window
    return reg


#: Largest relative L^1 residual of the first solve of `_bordered_S`.  One
#: refinement step about squares it, so 1e-6 leaves at most about 1e-12.
RESIDUAL_BOUND = 1e-6


def _bordered_S(v, grid, Y, Z, R0Y, lam, R):
    """The map F -> S(lambda) F, F a matrix of columns, in O(M) per column;
    R is `domain_resolvent` at lambda.

    u = S(lambda) f lies in the range of S0, where every term of the series
    starts, so C u = 0, C = w R0(0) Y, and pushing S0 through the series
    gives Q~0 (I + V R0(lambda^2)) u + Y mu = f.  R0(lambda^2) is exactly
    (H0 - lambda^2)^{-1} and w = h, so u = (H0 - lambda^2) y turns this into
    [[Q~0 (H - lambda^2), Y], [B^T, 0]] [y; mu] = [f; 0], H = H0 + V and
    B = w (Y - lambda^2 R0(0) Y), for `birman._bordered_solver`; lambda = 0
    gives S0.  Forming u loses about eps cond(H0) ~ eps M^2, so one step of
    iterative refinement follows on the form `one_sided` checks.
    A first residual above RESIDUAL_BOUND (relative L^1, in any column)
    raises birman.NearSingularError naming lambda, with cond residual / eps.
    Returns the map and the solver's `transposed`, whose transposed(v)
    gives the columns of S(lambda)^T before refinement.
    """
    n, w = Y.shape[1], grid.weights
    d0, e = birman.tridiagonal_bs(grid, 0.0)
    d = d0 - lam**2
    B = Y - lam**2 * R0Y if lam else Y
    context = f"S(lambda) bordered solve at lambda={lam}"
    solve, transposed = birman._bordered_solver(d + v, e, Y, Z, w[:, None] * B, context)
    C = w[:, None] * R0Y

    def apply(F):
        F = np.array(F, np.result_type(F, v, Y))
        scale = np.maximum(np.einsum("i,ij->j", w, np.abs(F)), 1e-300)
        y, mu = solve(F, np.zeros((n, F.shape[1])))
        S = birman._tridiagonal_apply(d, e, y)
        del y
        # the residual [F; 0] - [[Q~0 T, Y], [C, 0]] [S; mu], T = I + V R0(l^2)
        T = R(S)
        T *= v[:, None]
        T += S
        T -= np.einsum("ik,kj->ij", Y, Z.T @ T - mu)
        F -= T
        del T
        residual = float((np.einsum("i,ij->j", w, np.abs(F)) / scale).max(initial=0.0))
        if residual > RESIDUAL_BOUND:
            msg = f"{context}: first residual {residual:.1e}"
            raise birman.NearSingularError(residual / np.finfo(float).eps, msg)
        dy, _ = solve(F, -(C.T @ S))
        S += birman._tridiagonal_apply(d, e, dy)
        return S

    return apply, transposed


def _step_column_norms(reg, lam):
    """The weighted L^1 norms sum_i w_i |step_ij| / w_j of the columns of
    the step -S0 Q~0 V B0(lambda^2) (`_scan_column_norms`)."""
    return _scan_column_norms(reg, [domain_resolvent(reg.grid, lam)])[0]


def _scan_column_norms(reg, solvers):
    """The step's column norms at each lambda, one row per lambda, from
    solvers, the `domain_resolvent`s of those lambdas.

    Column j of the step is minus row j of D = R0(lambda^2) X^T - R0(0) X^T,
    so the norms are (|D| w) / w; their max is the induced norm.  Each block
    X^T_J (`_xt_block`) is formed once, with R0(0) X^T_J, and then
    D_J = R0(lambda^2) X^T_J - R0(0) X^T_J for each lambda, and |D_J| w_J is
    added into that lambda's row sums: one tridiagonal solve per column and
    lambda, plus one per column for R0(0), no M x M array, and the bits of
    one lambda alone.  The sums are einsums, added block by block, in
    block order, so the norms depend on the partition of `_blocks`:
    another BLOCK_BYTES gives the same columns of S0 but moves a norm by a
    few ulp.
    """
    w, sums = reg.grid.weights, np.zeros((len(solvers), reg.grid.size))
    for J in _blocks(reg.grid.size, reg.S0Y.itemsize):
        Xt = _xt_block(reg, J)
        R0Xt = reg.R0(Xt)
        for R, row in zip(solvers, sums):
            D = R(Xt)
            D -= R0Xt
            row += np.einsum("ij,j->i", np.abs(D), w[J])
    return sums / w


def _x_resolvent_column(reg, R, j):
    """X R e_j, X = S0 Q~0 V and R = R0(lambda^2), in O(M); R is symmetric,
    so this is row j of R X^T: one tridiagonal solve, Q~0 by its rank-n
    factors and S0 by its bordered solve on the one column."""
    e = np.zeros(reg.grid.size)
    e[j] = 1.0
    x = birman._samples(reg.V) * R(e)
    x -= np.einsum("ik,k->i", reg.Y, np.einsum("ik,i->k", reg.Z, x))
    return reg.S0(x[:, None])[:, 0]


def _column_factor(reg, lam, j, r0_row):
    """The weighted L^1 norm of column j of the series step, in O(M).

    That column is -(X R0(lambda^2) e_j - X R0(0) e_j); r0_row is its
    lambda-independent term, `_x_resolvent_column` on `reg.R0`, which
    the window search forms once per column j, and the other term is
    `_x_resolvent_column` at lambda.  In exact arithmetic the factor is a
    lower bound on the max of `_step_column_norms`; on the full-ee grid
    near the window it agrees with column j there to about 1e-13 relative.
    """
    column = _x_resolvent_column(reg, domain_resolvent(reg.grid, lam), j) - r0_row
    w = reg.grid.weights
    return float(w @ np.abs(column) / w[j])


def _column_rounding(reg, j, r0_row):
    """A bound on the rounding error of `_column_factor` at column j.

    The column is the difference of two vectors of about the size of
    r0_row, row j of R0(0) X^T, each from length-M solves and sums, so its
    weighted L^1 norm is good to M eps times that row's: an error that does
    not shrink with lambda, so relative to the factor it grows like
    1 / lambda^2.
    """
    w = reg.grid.weights
    return w.size * np.finfo(float).eps * float(w @ np.abs(r0_row) / w[j])


def _auto_window(reg):
    """The validity window: a multiple lo of xtol = 2^-30 in [0, 1] at which
    the contraction factor cf crosses target = 1/2.

    What is certified: cf(lo) <= target by the exact induced norm
    (`_step_column_norms`; cf(0) = 0 needs no evaluation), and, unless
    lo = 1 (cf(1) <= target), cf(lo + xtol) > target, by the exact norm or
    by one column's factor above target by more than 1e-12 relative plus
    its rounding bound (`_column_rounding`).  Where
    cf increases on [0, 1] this is the one crossing on the xtol grid, the
    point that 30-step bisection returns; above the first eigenvalue of the
    box H0 cf need not increase, and lo is then some crossing.

    The search runs on a single column j of the step (`_column_factor`, a
    vector solve and a bordered solve per lambda, after one of each on
    `reg.R0` for the column):
    `_regula_falsi` closes [L, U] over the integers k of the trial points
    k xtol.  It starts on the last column, j = M - 1: R0(0) = h min(r, r')
    is positive, so the step's small-lambda columns, about
    lambda^2 R0(0)^2 X^T, grow with r.  That column's factor, above target
    by the margin above, certifies cf(1) > target; only where it does not
    is the exact norm at lambda = 1 taken, and the search run on its argmax
    column.  The exact norm then certifies the returned lo; where it fails,
    another column has crossed first, and the search repeats below lo on
    the argmax column there.  A column value
    within that margin of target at lo + xtol is checked by the exact
    norm; should that norm still be at most target, the search goes on
    above.  On full-ee that is 1 exact norm and 8 column evaluations.
    """
    target, n = 0.5, 2**30
    j = reg.grid.size - 1
    r0_row = _x_resolvent_column(reg, reg.R0, j)
    g_upper = _column_factor(reg, 1.0, j, r0_row) - target
    if g_upper <= 1e-12 * target + _column_rounding(reg, j, r0_row):
        upper = _step_column_norms(reg, 1.0)
        if upper.max() <= target:
            return 1.0
        j, g_upper = int(np.argmax(upper)), upper.max() - target
        r0_row = _x_resolvent_column(reg, reg.R0, j)
    # certified: cf(L / n) <= target < cf(U / n), by the exact column norms
    # lower at L (the step vanishes at 0) and column j's g_upper + target at U
    L, U, lower = 0, n, np.zeros(reg.grid.size)
    while True:
        lo, hi, ghi = _regula_falsi(
            lambda k: _column_factor(reg, k / n, j, r0_row) - target,
            L, U, lower[j] - target, g_upper,
        )
        if lo > L:
            norms = _step_column_norms(reg, lo / n)
            if norms.max() > target:
                U, j, g_upper = lo, int(np.argmax(norms)), norms.max() - target
                r0_row = _x_resolvent_column(reg, reg.R0, j)
                continue
            L, lower = lo, norms
        if hi == U or ghi > 1e-12 * target + _column_rounding(reg, j, r0_row):
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


def build_S_lambda(reg, lam, R, factor=None):
    """F -> S(lambda) F for S(lambda) = sum_m (-S0 Q~0 V B0(lambda^2))^m S0,
    and the factor ||S0 Q~0 V B0(lambda^2)||_1; R is the `domain_resolvent`
    at lambda.

    At lambda = 0 that is `reg.S0` and 0.  Elsewhere the map is one
    bordered solve on the columns of F (`_bordered_S`, O(M) per column),
    and the factor, unless given, the exact induced norm on R
    (`_scan_column_norms`).  Raises ValueError outside the validity window,
    birman.NoContractionError where the factor is >= 1 and
    birman.NearSingularError (`_bordered_S`).
    """
    if lam == 0:
        return reg.S0, 0.0
    if abs(lam) > reg.window:
        raise ValueError(f"lambda {lam} outside validity window {reg.window}")
    factor = float(_scan_column_norms(reg, [R]).max()) if factor is None else factor
    if factor >= 1.0:
        raise birman.NoContractionError(factor)
    v = birman._samples(reg.V)
    return _bordered_S(v, reg.grid, reg.Y, reg.Z, reg.range_constraints, lam, R)[0], factor


def one_sided(reg, lam):
    """The residual of Q~0 (I + V R0(l^2)) S(l) = identity on X-bar_1-perp,
    and the range constraint of S(l), from one pass over its columns.

    The residual is measured in induced L^1 after composing with the
    projector onto X-bar_1-perp = {f : pair(f, psi_{1,k}) = 0},
    I - pinv(Z^T) Z^T.  Both Q~0 and that projector are applied through
    their rank-n factors, and I + V R0(l^2) through tridiagonal solves,
    never through H, so the check stays independent of how S0 and S(l) were
    solved.  The defect E = Q~0 (I + V R0(l^2)) S(l) - I is streamed in
    column blocks E_J, each from S(l) on the columns J of the identity
    (`build_S_lambda`, with its refusals; at l = 0 the refined columns of
    S0).  The projector mixes the columns,
    E (I - pinv(Z^T) Z^T) = E - (E pinv(Z^T)) Z^T, so E pinv(Z^T) is formed
    first, as the defect on the n columns of pinv(Z^T).  The functional
    f -> pair(S(l) f, c) = (S(l)^T W c)^T f has induced norm
    max_j |(S(l)^T W c)_j| / w_j on weighted L^1: the range constraint is
    that max over j and c = R0(0) psi_kk, exactly, from the same blocks.
    """
    grid, Y, Z = reg.grid, reg.Y, reg.Z
    M, w = grid.size, grid.weights
    R = domain_resolvent(grid, lam) if lam else reg.R0
    S = build_S_lambda(reg, lam, R)[0]
    v = birman._samples(reg.V)
    C = w[:, None] * reg.range_constraints

    def image(SX):
        """Q~0 (I + V R0(l^2)) SX."""
        E = R(SX)
        E *= v[:, None]
        E += SX
        E -= np.einsum("ik,kj->ij", Y, Z.T @ E)
        return E

    pinvZt = np.linalg.pinv(Z.T)
    EP = image(S(pinvZt)) - pinvZt
    norm = constraint = 0.0
    for J in _blocks(M, reg.S0Y.itemsize):
        eye = np.eye(M, J.stop - J.start, -J.start, reg.S0Y.dtype)
        SJ = S(eye)
        pairs = np.abs(np.einsum("ij,ik->jk", SJ, C)) / w[J, None]
        constraint = max(constraint, float(pairs.max(initial=0.0)))
        E = image(SJ)
        E -= eye
        E -= np.einsum("ik,jk->ij", EP, Z[J])
        norm = max(norm, float((np.einsum("i,ij->j", w, np.abs(E)) / w[J]).max()))
    return norm, constraint


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
    R = domain_resolvent(grid, lam)
    U = build_S_lambda(reg, lam, R)[0](Qf[:, None])
    (result,) = _formula(reg, lam, R, U, [f], variant)
    u = U[:, 0]
    Ru = R(u)
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


def _formula(reg, lam, R, U, fs, variant="R0"):
    """The formula of `inverse_via_formula` for each f of fs, given the
    matching column u = S(lambda) Q~0 f of U and R, the `domain_resolvent`
    at lambda.  The chain terms do not depend on f: they are formed once."""
    if lam == 0:
        raise ValueError("formula applies for lambda != 0")
    V, grid = reg.V, reg.grid
    if variant == "R0":
        pair_op = R
    elif variant == "B0":
        def pair_op(x):
            return R(x) - reg.R0(x)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    results = [U[:, j].copy() for j in range(len(fs))]
    for C in reg.basis.chains:
        bracket2, bracket3 = _brackets(V, C, lam)
        top = GridFunction(grid, pair_op(C[:, -1]))
        for j, f in enumerate(fs):
            coef2 = bilinear_pair(GridFunction(grid, U[:, j]), top)
            coef3 = sum(
                lam ** (2 * i) * bilinear_pair(f, GridFunction(grid, C[:, i]))
                for i in range(C.shape[1])
            )
            results[j] = results[j] + coef2 * bracket2 + coef3 * bracket3
    return [GridFunction(grid, result) for result in results]


def identity_residuals(V, grid, basis, lam, R):
    """The largest chain, telescope and exact-inverse residuals at lambda != 0,
    R the `domain_resolvent` at lambda.

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
    w = grid.weights
    chain, telescope, exactinv = [], [], []
    for C in basis.chains:
        k = C.shape[1]
        psis = [C[:, j] for j in range(k)]
        Vpsis = [birman.potential_operator(V, psi) for psi in psis]
        for j, psi in enumerate(psis, start=1):
            lhs = psi + R(Vpsis[j - 1])
            rhs = R((psis[j - 2] if j > 1 else 0.0) - lam**2 * psi)
            absres = float(np.sum(w * np.abs(lhs - rhs)))
            scale = (1.0 + lam**2) * max(np.sum(w * np.abs(psi)), 1e-300)
            chain.append(absres / scale)
        acc = np.zeros(grid.size, complex)
        for j in range(1, k + 1):
            acc += lam ** (2 * (j - 1)) * psis[j - 1]
        lhs = acc + R(birman.potential_operator(V, acc))
        rhs = -(lam ** (2 * k)) * R(psis[k - 1])
        absres = float(np.sum(w * np.abs(lhs - rhs)))
        scale = (1.0 + lam**2) * max(np.sum(w * np.abs(acc)), 1e-300)
        telescope.append(absres / scale)
        psikk = psis[k - 1]
        Psi = psikk.astype(complex).copy()
        for j in range(1, k + 1):
            Psi += lam ** (-2 * (k + 1 - j)) * Vpsis[j - 1]
        lhs = Psi + birman.potential_operator(V, R(Psi))
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
    resid_chain, resid_telescope, resid_exactinv.  The exact factors of
    the lambdas come from one pass (`_scan_column_norms`); S(lambda) from
    one bordered solve per lambda on the two columns Q~0 f_admissible and
    Q~0 f_generic, with the refusals of `build_S_lambda`, and the formula
    from one `_formula` on both.  H0 - lambda^2 is factored once per
    lambda: the norm pass, the bordered solve, the formula and
    `identity_residuals` share its `domain_resolvent`.
    """
    V, grid, basis = reg.V, reg.grid, reg.basis
    X = grids.apply_complement(
        (reg.Y, reg.Z), np.column_stack([f_admissible.values, f_generic.values])
    )
    solvers = {
        lam: domain_resolvent(grid, lam)
        for lam in lambdas if lam and abs(lam) <= reg.window
    }
    norms = _scan_column_norms(reg, list(solvers.values())).max(1)
    factors = dict(zip(solvers, map(float, norms)))
    rows = []
    for lam in lambdas:
        # outside the window both are None, and build_S_lambda refuses lam
        R = solvers.get(lam)
        S, contraction = build_S_lambda(reg, lam, R, factors.get(lam))
        resid = identity_residuals(V, grid, basis, lam, R)
        ga, gg = _formula(reg, lam, R, S(X), (f_admissible, f_generic))
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
