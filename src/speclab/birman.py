"""The operator family I + V R0(lambda^2) and its inverses.

Potentials are carried as :class:`PotentialSpec`, multiplication by a
vector of samples; `_samples` reads them, and tells real samples from
complex ones.  Operators are application matrices (see
:mod:`speclab.grids`).

The sampled R0(lambda^2) is the inverse of a tridiagonal T_lambda
(`tridiagonal_bs`, see :mod:`speclab.resolvent`), so for a sampled
potential I + V R0 = (T_lambda + V) R0 and

    R_V(lambda^2) f = (T_lambda + V)^{-1} f,
    (I + V R0)^{-1} f = T_lambda (T_lambda + V)^{-1} f.

`bs_solve` takes both from one tridiagonal factorization in O(M) per
vector, with the same near-singular refusal as the dense LU; its
condition estimate (`_inverse_norm_estimate`) is a Hager-Higham loop of a
few solves with the same factors.  It serves the transform scan, the Stone
check, `uniform_inverse_scan` and the S0 of `local_neumann_inverse`.  Its
factorization, `_tridiagonal_solver` (LDL^T for positive definite real
bands, pivoted LU otherwise), applies R0(lambda^2) in the checks here and
in `ftdiag.k2_bound_check`, and the domain resolvent of
:mod:`speclab.lowenergy`; `_bordered_solver` solves the bordered systems
of a singular H, made nonsingular at its kernel, for the S0 of
:mod:`speclab.lowenergy` (its columns, and by the transposed solve on the
same factorization those of S0^T, each in O(M); S0 is never stored) and
the threshold chain of :mod:`speclab.jordan`, and those of H - lambda^2
for the S(lambda) of :mod:`speclab.lowenergy`.
The dense LU (`direct_inverse`) stays only in `bs_solve`, for lambda h
near a nonzero multiple of pi, and as the tests' oracle of the banded
paths.

Every tridiagonal matrix here is symmetric and travels as its bands
(d, e), the diagonal and the off-diagonal of tridiag(e, d, e); those of
H = H0 + V come from `hamiltonian`, the free potential being zero samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from . import resolvent
from .grids import GridFunction, lp_norm, operator_l1_norm
from .resolvent import Branch

#: Condition-number cutoff defining NEAR_SINGULAR.
COND_CUTOFF = 1e12

#: Neumann-safe threshold for ||(V R0)^2||.
NEUMANN_SAFE = 0.25

#: Smallest |sin(lambda h)| at which `bs_solve` uses the tridiagonal
#: T_lambda; the banded path loses about M eps / |sin(lambda h)| in relative
#: accuracy (4e-14 / |sin(lambda h)| measured at M = 400).
SIN_MIN = 1e-3


class NearSingularError(ArithmeticError):
    """Inversion refused: condition estimate beyond the singularity cutoff."""

    def __init__(self, cond, context=""):
        self.cond = cond
        super().__init__(f"near-singular operator (cond ~ {cond:.3e}) {context}")


class NoContractionError(ArithmeticError):
    """Neumann series refused: contraction factor >= 1."""

    def __init__(self, factor):
        self.factor = factor
        super().__init__(f"no contraction: factor {factor:.3f} >= 1")


class SeriesNotConvergedError(ArithmeticError):
    """Neumann series refused: max_terms reached before the tolerance."""

    def __init__(self, max_terms, last_norm, tol):
        self.max_terms = max_terms
        self.last_norm = last_norm
        super().__init__(
            f"Neumann series not converged after {max_terms} terms: "
            f"last term norm {last_norm:.3e} >= tol {tol:.1e}"
        )


@dataclass(frozen=True)
class PotentialSpec:
    """Complex potential with its L^p / L^q composite norm."""

    name: str
    values: GridFunction
    p: float = 1.4
    q: float = 2.0
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.p < 1.5 < self.q:
            raise ValueError(f"need p < 3/2 < q, got p={self.p}, q={self.q}")

    @property
    def composite_norm(self):
        """max(||V||_p, ||V||_q) as 3-D norms.

        Potential samples are plain values V(r_i) (they are multipliers,
        not reduced waves), so the 3-D norm weights them with the volume
        weights directly.
        """
        vw = self.values.grid.volume_weights
        return max(
            lp_norm(self.values, self.p, weights=vw),
            lp_norm(self.values, self.q, weights=vw),
        )

    @property
    def epsilon(self):
        """Contraction exponent min(3/p - 2, 2 - 3/q)."""
        return min(3.0 / self.p - 2.0, 2.0 - 3.0 / self.q)


def potential_operator(V, X):
    """V @ X for the PotentialSpec V and a vector or a matrix of columns X:
    its samples broadcast over the rows of X, never a dense diagonal."""
    v = _samples(V)
    return X * v if X.ndim == 1 else v[:, None] * X


def _samples(V):
    """The samples of the PotentialSpec V.

    The one test of the potential's format: every path of the package
    reads the potential here.  Samples with no nonzero imaginary part come
    back real, and so does every operator built from them.  Anything but a
    PotentialSpec raises TypeError.
    """
    if not isinstance(V, PotentialSpec):
        raise TypeError(f"potential must be a PotentialSpec, got {type(V)}")
    v = V.values.values
    return v if np.any(v.imag) else v.real


def sample_potential(name, grid, fn, p=1.4, q=2.0):
    """Sample a radial potential profile V(|x|) as a multiplication operator spec.

    Unlike wave functions, potentials multiply pointwise, so the stored
    values are plain samples V(r_i), not reduced waves r V.
    """
    r = grid.nodes
    return PotentialSpec(name, GridFunction(grid, np.asarray(fn(r), complex)), p, q)


def direct_inverse(A, context=""):
    """Dense LU inverse of the square matrix A with a condition estimate.

    Raises NearSingularError when the 1-norm condition estimate exceeds
    COND_CUTOFF; this is the numerical detector for threshold eigenvalues
    and resonances.  zgecon reports a zero inverse norm or a NaN/Inf
    estimate with info > 0, which counts as singular.
    """
    lu, piv = sla.lu_factor(A)
    anorm = np.linalg.norm(A, 1)
    rcond, info = sla.lapack.zgecon(lu, anorm)
    if info < 0:
        raise ValueError(f"zgecon rejected argument {-info} (1-norm {anorm})")
    with np.errstate(divide="ignore", over="ignore"):
        cond = np.inf if info > 0 or rcond == 0 else 1.0 / rcond
    if not np.isfinite(cond) or cond > COND_CUTOFF:
        raise NearSingularError(cond, context)
    inv = sla.lu_solve((lu, piv), np.eye(A.shape[0], dtype=complex))
    return inv, float(cond)


def tridiagonal_bs(grid, lam, sign=Branch.PLUS):
    """The bands (d, e) of T_lambda, the tridiagonal inverse of R0(lambda^2).

    With h the spacing, s = sin(lambda h) and kappa = lambda / (h s), the
    off-diagonal entries are -kappa, the interior diagonal ones
    2 cos(lambda h) kappa, the first kappa sin(3 lambda h / 2) / sin(lambda h / 2)
    and the last kappa e^{-i sign lambda h}; lambda = 0 gives the H0 stencil
    (3, 2, ..., 2, 1) / h^2 with off-diagonal -1 / h^2, the one definition
    of the discrete free Laplacian (Dirichlet ghost u_{-1} = -u_0 at the
    origin, Neumann ghost u_M = u_{M-1} at L; see :mod:`speclab.evolution`).
    Raises ValueError where lambda h is near a nonzero multiple of pi (see
    `banded_energy`).
    """
    M, h = grid.size, grid.spacing
    if not banded_energy(grid, lam):
        raise ValueError(f"lambda h = {lam * h} is too close to a multiple of pi")
    if lam == 0:
        main = np.full(M, 2.0)
        main[0], main[-1] = 3.0, 1.0
        return main / h**2, np.full(M - 1, -1.0 / h**2)
    kappa = lam / (h * np.sin(lam * h))
    d = np.full(M, 2.0 * np.cos(lam * h) * kappa, complex)
    d[0] = kappa * np.sin(1.5 * lam * h) / np.sin(0.5 * lam * h)
    d[-1] = kappa * np.exp(-1j * int(sign) * lam * h)
    return d, np.full(M - 1, -kappa, complex)


def hamiltonian(V, grid):
    """The bands (d, e) of H = H0 + V: the H0 stencil of `tridiagonal_bs` at
    lambda = 0, with the samples of V added to its diagonal."""
    d0, e = tridiagonal_bs(grid, 0.0)
    return d0 + _samples(V), e


def banded_energy(grid, lam):
    """Whether `tridiagonal_bs` applies: lambda h is not within SIN_MIN (in
    |sin(lambda h)|) of a nonzero multiple of pi, where R0 is singular."""
    x = lam * grid.spacing
    return round(x / np.pi) == 0 or abs(np.sin(x)) >= SIN_MIN


def _tridiagonal_apply(d, e, x):
    """tridiag(e, d, e) @ x for a vector or a matrix of columns."""
    shape = (-1,) + (1,) * (x.ndim - 1)
    e = e.reshape(shape)
    out = d.reshape(shape) * x
    out[:-1] += e * x[1:]
    out[1:] += e * x[:-1]
    return out


def _one_norm(d, e):
    """||tridiag(e, d, e)||_1, the largest column sum."""
    col = np.abs(d)
    col[1:] += np.abs(e)
    col[:-1] += np.abs(e)
    return float(col.max())


def bs_norm(v, grid, lam, sign=Branch.PLUS):
    """||I + V R0(lambda^2)||_1 for the samples v of a multiplier, in O(M).

    Column j sums |b_j| sum_{i<j} |v_i a_i| h, |a_j| sum_{i>j} |v_i b_i| h
    and |1 + v_j a_j b_j h|, with (a, b) the kernel generators.
    """
    h = grid.spacing
    a, b = resolvent.kernel_generators(grid.nodes, lam, sign)
    below = np.concatenate(([0.0], np.cumsum(np.abs(v * a)[:-1]))) * h
    above = np.concatenate((np.cumsum(np.abs(v * b)[:0:-1])[::-1], [0.0])) * h
    diag = np.abs(1.0 + v * a * b * h)
    return float((np.abs(b) * below + np.abs(a) * above + diag).max())


def bs_solve(V, grid, lam, f, sign=Branch.PLUS, context=""):
    """R_V(lambda^2) f and T(lambda)^{-1} f, T(lambda) = I + V R0(lambda^2).

    f is a vector or a matrix of columns.  For a multiplier V,
    I + V R0 = (T_lambda + V) R0, so one tridiagonal factorization
    (`_tridiagonal_solver`) of T_lambda + V gives
    R_V f = (T_lambda + V)^{-1} f and T^{-1} f = T_lambda R_V f in O(M) per
    column.  The refusal is the dense one: NearSingularError when the
    condition estimate, ||I + V R0||_1 (exact, `bs_norm`) times the
    Hager-Higham lower estimate of ||T^{-1}||_1 =
    ||I - V (T_lambda + V)^{-1}||_1 (`_inverse_norm_estimate`, at most a
    dozen solves with the same factors), exceeds COND_CUTOFF.  Where lambda h
    is near a nonzero multiple of pi (`banded_energy`) it takes the dense LU
    of `direct_inverse`.  Returns (R_V f, T^{-1} f, condition estimate).
    """
    M = grid.size
    v = _samples(V)
    if not banded_energy(grid, lam):
        R0 = resolvent.build_R0(grid, lam, sign)
        tinv, cond = direct_inverse(np.eye(M) + v[:, None] * R0, context)
        tinv_f = tinv @ f
        return R0 @ tinv_f, tinv_f, cond
    d, e = tridiagonal_bs(grid, lam, sign)
    solve = _tridiagonal_solver(d + v, e, context)
    # T^{-1} = T_lambda (T_lambda + V)^{-1} = I - V (T_lambda + V)^{-1}, and
    # its adjoint I - (T_lambda + V)^{-H} conj(V): one solve each, and no
    # product with the bands of T_lambda.
    cond = bs_norm(v, grid, lam, sign) * _inverse_norm_estimate(
        M,
        lambda x: x - v * solve(x),
        lambda x: x - solve(v.conj() * x, "C"),
    )
    if not np.isfinite(cond) or cond > COND_CUTOFF:
        raise NearSingularError(cond, context)
    rv_f = solve(np.asarray(f))
    return rv_f, _tridiagonal_apply(d, e, rv_f), cond


def _tridiagonal_solver(d, e, context=""):
    """Factor tridiag(e, d, e) once and return its solver.

    Real bands first try LAPACK dpttrf, the LDL^T factorization without
    pivoting.  Its pivots are all positive exactly when the matrix is
    positive definite, and then the solver applies dpttrs.  Pivoting is
    unnecessary there: with positive pivots p_k, each diagonal entry
    d_k = p_k + l_{k-1}^2 p_{k-1} is a sum of positive terms, so
    |L| D |L|^T = |tridiag(e, d, e)|, no entry grows, and LDL^T is backward
    stable (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    SIAM 2002).  Indefinite real bands and complex ones are factored by
    pivoted LU (d/zgttrf) and solved with d/zgttrs; an exactly singular
    matrix raises NearSingularError.

    The solver maps x, a vector or a matrix of columns, to
    tridiag(e, d, e)^{-1} x in O(M) per column; trans="C" solves with the
    conjugate transpose, which real bands equal.  With real bands a complex
    x is solved as its real view, two real columns per complex one: the
    bits of dpttrs on its real and imaginary parts, or those of zgttrs,
    with no complex copy of the factors.  A vector of the bands' dtype goes
    to pttrs or gttrs as it is, with no reshape: the bits of the same
    vector as a one-column matrix, at the cost of the LAPACK call alone
    (`evolution.propagate` makes thousands of such solves per scan).
    """
    M = d.size
    pttrf, pttrs, gttrf, gttrs = sla.get_lapack_funcs(
        ("pttrf", "pttrs", "gttrf", "gttrs"), (d, e)
    )
    real = gttrs.dtype == float
    definite = False
    if real:
        *factors, info = pttrf(d, e)
        definite = info == 0
    if not definite:
        *factors, info = gttrf(e, d, e)
        if info > 0:
            raise NearSingularError(np.inf, context)

    def solve(x, trans="N"):
        if not x.size:  # pttrs and gttrs with no right-hand side corrupt memory
            return np.zeros(x.shape, np.result_type(x, gttrs.dtype))
        if x.ndim == 1 and x.dtype == gttrs.dtype:  # one column, passed as is
            if definite:
                return pttrs(*factors, x)[0]
            return gttrs(*factors, x, trans=trans)[0]
        b = x.reshape(M, -1)
        as_real = real and x.dtype == complex
        if as_real:
            b = np.ascontiguousarray(b).view(float)
        y = pttrs(*factors, b)[0] if definite else gttrs(*factors, b, trans=trans)[0]
        if as_real:
            y = np.ascontiguousarray(y).view(complex)
        return y.reshape(x.shape)

    return solve


def _bordered_solver(d, e, Y, Z, B, context):
    """Solver of [[Q~0 H, Y], [B^T, 0]] with H = tridiag(e, d, e), Q~0 = I - Y Z^T.

    The n columns of Z span the kernel of H where H is singular.  The
    tridiagonal A = H + alpha E E^T, with E the unit columns at the rows
    where the columns of Z are largest (column-pivoted QR of Z^T) and
    alpha = max |e| the off-diagonal scale, is then nonsingular: for a
    one-dimensional kernel psi and E = e_r, det A = alpha times the minor of
    H without row and column r, which is proportional to psi_r^2.  For the
    S(lambda) of :mod:`speclab.lowenergy`, H is H0 + V - lambda^2, not
    singular, and Z spans the kernel of H0 + V; A, shifted by -lambda^2, is
    singular only at its own eigenvalues, for one chain the least positive
    one between 0 and that of H0 + V (interlacing), far past the window.
    Q~0 H = A + U W^T with U = [E, Y] and W = [-alpha E, -H Z] (H is
    symmetric), so block elimination leaves one tridiagonal solve per
    column and a 3n x 3n capacitance system for z = W^T y and mu.  With
    WB = [W, B] and PQ = A^{-1} [E, Y, Y], that system is
    WB^T PQ + diag(I_2n, 0), and each solve takes one product with WB^T and
    one with PQ, so few small BLAS calls per block of columns.  Returns
    solve(F, G) -> (y, mu) for the right-hand side [F; G], F of M rows and
    G of n rows, and transposed(c), the map from a slice J to the columns J
    of (T y(I))^T, T = H - diag(c) and y(F) the y of solve(F, 0): with
    u = c + alpha E 1, T = A - diag(u), so T y(I) = I - u A^{-1} - Gm Hm^T
    for Gm = ([E, Y, Y] - u PQ) cap^{-1} and Hm = A^{-1} WB (A is
    symmetric), and its columns J are E_J - A^{-1} (u E_J) - Hm Gm[J]^T,
    one tridiagonal solve per column.  A singular A raises
    NearSingularError naming `context`.

    It serves the S0 and S(lambda) of :mod:`speclab.lowenergy` (Y the
    chain tops, Z the weighted chain bottoms, B = w (Y - lambda^2 R0(0) Y),
    and T = H0 - lambda^2, c = v, for the columns of S0^T at lambda = 0)
    and the threshold chain of :mod:`speclab.jordan`, Keller's bordered
    system [[H, e_r], [e_r^T, 0]] for H phi = f with phi_r = 0: Y = B = e_r and
    Z = psi, the kernel of H.  There psi^T H = 0, so Q~0 H = H, and the
    pivoted QR picks r where |psi| is largest.
    """
    M, n = Y.shape
    rows = sla.qr(Z.T, mode="r", pivoting=True)[1][:n]
    alpha = np.abs(e).max()
    shifted = d.copy()
    shifted[rows] += alpha
    solve_A = _tridiagonal_solver(shifted, e, context)
    E = np.zeros((M, n), np.result_type(d, Y))
    E[rows, np.arange(n)] = 1.0
    WB = np.hstack([-alpha * E, -_tridiagonal_apply(d, e, Z), B])
    PQ = solve_A(np.hstack([E, Y, Y]))
    cap = WB.T @ PQ
    cap[: 2 * n, : 2 * n] += np.eye(2 * n)

    def solve(F, G):
        y = solve_A(F)
        rhs = WB.T @ y
        rhs[2 * n :] -= G
        zmu = np.linalg.solve(cap, rhs)
        y -= PQ @ zmu
        return y, zmu[2 * n :]

    def transposed(c):
        u = np.array(c, np.result_type(c, shifted))
        u[rows] += alpha
        Gm = np.linalg.solve(cap.T, (np.hstack([E, Y, Y]) - u[:, None] * PQ).T).T
        Hm = solve_A(WB)

        def columns(J):
            diagonal = (np.arange(J.start, J.stop), np.arange(J.stop - J.start))
            uE = np.zeros((M, J.stop - J.start), Gm.dtype, order="F")
            uE[diagonal] = u[J]
            out = (Gm[J] @ Hm.T).T  # Fortran order, as the solves take it
            out += solve_A(uE)
            np.negative(out, out=out)
            out[diagonal] += 1.0
            return out

        return columns

    return solve, transposed


def _inverse_norm_estimate(M, apply, adjoint):
    """Hager-Higham lower estimate of ||A||_1 for the M x M operator A = apply.

    LAPACK zlacn2's iteration (Higham, ACM TOMS 14, 1988) on vectors: from
    x = 1/M, at most five steps of xi = y / |y| (entrywise, y = A x; 1
    where |y| is 0 or subnormal), j = argmax |A^H xi| and x = e_j, while
    ||A x||_1 grows and j moves; then the alternating-sign vector
    x_i = (-1)^i (1 + i / (M - 1)), for which ||A x||_1 / ||x||_1 =
    2 ||A x||_1 / (3 M).  The estimate is the largest such ratio met, so
    it never exceeds ||A||_1.  `adjoint` applies A^H.
    """
    y = apply(np.full(M, 1.0 / M, complex))
    est, j = np.abs(y).sum(), None
    for _ in range(5):
        mag = np.abs(y)
        normal = mag >= np.finfo(float).tiny
        z = np.abs(adjoint(np.divide(y, mag, out=np.ones(M, complex), where=normal)))
        j_last, j = j, int(np.argmax(z))
        if j_last is not None and z[j_last] == z[j]:
            break
        e = np.zeros(M, complex)
        e[j] = 1.0
        y = apply(e)
        norm = np.abs(y).sum()
        if norm <= est:
            break
        est = norm
    x = np.linspace(1.0, 2.0, M, dtype=complex)
    x[1::2] *= -1.0
    return float(np.maximum(est, 2.0 * np.abs(apply(x)).sum() / (3 * M)))


def high_energy_norm_scan(V, grid, lambda_list):
    """Scan ||(V R0(lambda^2))^2|| over lambda; flag the Neumann-safe point.

    (V R0)^2 = v R(v R(I)), R = T_lambda^{-1}: 2M tridiagonal solves per
    lambda (ValueError where lambda h is near a nonzero multiple of pi).
    Returns a dict with the norms, in lambda_list's order, and lambda1, the
    smallest scanned lambda whose squared-factor norm falls below 1/4.
    """
    if len(lambda_list) == 0:
        raise ValueError("empty lambda list")
    v, eye = _samples(V)[:, None], np.eye(grid.size)
    norms = []
    for lam in lambda_list:
        R = _tridiagonal_solver(*tridiagonal_bs(grid, lam))
        norms.append(operator_l1_norm(v * R(v * R(eye)), grid))
    norms = np.asarray(norms)
    safe = [l for l, n in zip(lambda_list, norms) if n < NEUMANN_SAFE]
    return {
        "norms": norms.tolist(),
        "lambda1": float(safe[0]) if safe else None,
    }


def uniform_inverse_scan(V, grid, lambda_grid):
    """Induced-L1 norms of (I + V R0(lambda^2))^{-1} over a lambda grid.

    Each inverse is `bs_solve` applied to the identity: M tridiagonal
    solves, O(M^2), for a sampled potential.  Propagates NearSingularError
    (annotated with the offending lambda); a hit signals an embedded
    eigenvalue or resonance in the scenario.  Returns a dict with the norms,
    in lambda_grid's order, and their sup.
    """
    eye = np.eye(grid.size, dtype=complex)
    norms = []
    for lam in lambda_grid:
        _, inv, _ = bs_solve(V, grid, lam, eye, context=f"lambda={lam}")
        norms.append(operator_l1_norm(inv, grid))
    norms = np.asarray(norms)
    return {"norms": norms.tolist(), "sup": float(norms.max())}


def smooth_cutoff(t):
    """C-infinity plateau cutoff: 1 on |t| <= 1, 0 on |t| >= 2.

    Built from the standard exp(-1/x) partition ramp.
    """
    t = np.abs(np.asarray(t, dtype=float))
    out = np.zeros_like(t)
    out[t <= 1.0] = 1.0
    mid = (t > 1.0) & (t < 2.0)
    if np.any(mid):
        s = 2.0 - t[mid]  # in (0, 1)
        g1 = np.exp(-1.0 / s)
        g2 = np.exp(-1.0 / (1.0 - s))
        out[mid] = g1 / (g1 + g2)
    return out


def local_neumann_inverse(V, grid, lambda0, r, lam):
    """Local Neumann series for (I + V R0(lambda^2))^{-1} around lambda0.

    Sums (-S0 V B_{l0}(lambda^2))^m S0, S0 = (I + V R0(lambda0^2))^{-1} from
    `bs_solve`, until a term's norm is below 1e-12, within 200 terms (see
    `_neumann_series` for the refusals).  The step
    u -> -S0 V (R0(lambda^2) u - R0(lambda0^2) u) takes tridiagonal solves,
    O(M^2) per term and for its exact norm; ValueError where lambda h is
    near a nonzero multiple of pi.  Returns (operator, contraction_factor).
    """
    if abs(lam - lambda0) > r:
        raise ValueError(f"|lambda - lambda0| = {abs(lam - lambda0)} exceeds window {r}")
    v, eye = _samples(V)[:, None], np.eye(grid.size)
    R, R_0 = (_tridiagonal_solver(*tridiagonal_bs(grid, l)) for l in (lam, lambda0))

    def S0(x):
        return bs_solve(V, grid, lambda0, x, context=f"lambda0={lambda0}")[1]

    def step(u):
        return -S0(v * (R(u) - R_0(u)))

    factor = operator_l1_norm(step(eye), grid)
    return _neumann_series(S0(eye), step, factor, grid, 1e-12, 200, grid.weights)


def _neumann_series(first, step, factor, grid, tol, max_terms, x_norms):
    """sum_m step^m first, where first = S0 X for data X of column norms x_norms.

    step maps a matrix of columns to its image under the step operator,
    whose induced L^1 norm is factor.  x_norms are the L^1 norms of the
    columns x_j of X.  The sum stops once max_j ||term_j||_1 / ||x_j||_1 <
    tol.  For X = I (x_norms = grid.weights) that is the induced L^1 norm
    of the term, the rule of an operator series.  The series loop of
    `local_neumann_inverse`, private so that traced self times stay there.

    Raises NoContractionError when factor >= 1 and SeriesNotConvergedError
    when max_terms terms do not reach tol.  Returns (sum, factor).
    """
    if factor >= 1.0:
        raise NoContractionError(factor)
    w = grid.weights
    scale = np.maximum(x_norms, 1e-300)
    total = first.copy()
    term, norm = first, np.inf
    for _ in range(max_terms):
        term = step(term)
        total += term
        norm = float(((w @ np.abs(term)) / scale).max())
        if norm < tol:
            return total, factor
    raise SeriesNotConvergedError(max_terms, norm, tol)
