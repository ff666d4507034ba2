"""The operator family I + V R0(lambda^2) and its inverses.

Potentials are carried as :class:`PotentialSpec` (multiplication by a
vector of samples) or, for synthetic fixtures, as a dense perturbation
matrix; `potential_operator` is the one place that tells them apart.
Operators are application matrices (see :mod:`speclab.grids`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg as sla

from . import resolvent
from .grids import GridFunction, lp_norm, operator_l1_norm
from .resolvent import Branch, ResolventSpec

#: Condition-number cutoff defining NEAR_SINGULAR.
COND_CUTOFF = 1e12

#: Neumann-safe threshold for ||(V R0)^2||.
NEUMANN_SAFE = 0.25


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


def potential_operator(V, X=None, right=False):
    """The potential V as an application matrix, or its product with X.

    V is a PotentialSpec, whose samples multiply the reduced wave
    pointwise, or a dense perturbation matrix.  With X
    (a vector or a matrix) given, returns V @ X, or X @ V when `right`;
    samples multiply by broadcasting, never through a dense diagonal.
    """
    if isinstance(V, PotentialSpec):
        v = V.values.values
        if X is None:
            return np.diag(v)
        return X * v if right or X.ndim == 1 else v[:, None] * X
    if isinstance(V, np.ndarray):
        if X is None:
            return V
        return X @ V if right else V @ X
    raise TypeError(f"potential must be PotentialSpec or ndarray, got {type(V)}")


def sample_potential(name, grid, fn, p=1.4, q=2.0):
    """Sample a radial potential profile V(|x|) as a multiplication operator spec.

    Unlike wave functions, potentials multiply pointwise, so the stored
    values are plain samples V(r_i), not reduced waves r V.
    """
    r = grid.radii
    return PotentialSpec(name, GridFunction(grid, np.asarray(fn(r), complex)), p, q)


def build_bs(V, grid, lam, sign=Branch.PLUS):
    """I + V R0(lambda^2 +/- i0) (V = None means free)."""
    if V is None:
        return np.eye(grid.size, dtype=complex)
    R0 = resolvent.build_R0(grid, ResolventSpec(lam, Branch(sign)))
    return np.eye(grid.size) + potential_operator(V, R0)


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


def bs_inverse(V, grid, lam, sign=Branch.PLUS):
    """(I + V R0(lambda^2))^{-1} via dense LU."""
    op, _ = direct_inverse(build_bs(V, grid, lam, sign), context=f"lambda={lam}")
    return op


def high_energy_norm_scan(V, grid, lambda_list):
    """Scan ||(V R0(lambda^2))^2|| over lambda; flag the Neumann-safe point.

    Returns a dict with the norm table and lambda1, the smallest scanned
    lambda whose squared-factor norm falls below 1/4.
    """
    if len(lambda_list) == 0:
        raise ValueError("empty lambda list")
    norms = []
    for lam in lambda_list:
        R0 = resolvent.build_R0(grid, ResolventSpec(lam, Branch.PLUS))
        M = potential_operator(V, R0)
        norms.append(operator_l1_norm(M @ M, grid))
    norms = np.asarray(norms)
    safe = [l for l, n in zip(lambda_list, norms) if n < NEUMANN_SAFE]
    return {
        "lambda": list(map(float, lambda_list)),
        "norms": norms.tolist(),
        "lambda1": float(safe[0]) if safe else None,
    }


def uniform_inverse_scan(V, grid, lambda_grid):
    """Induced-L1 norms of (I + V R0(lambda^2))^{-1} over a lambda grid.

    Propagates NearSingularError (annotated with the offending lambda);
    a hit signals an embedded eigenvalue or resonance in the scenario.
    """
    norms = []
    for lam in lambda_grid:
        inv, _ = direct_inverse(build_bs(V, grid, lam), context=f"lambda={lam}")
        norms.append(operator_l1_norm(inv, grid))
    norms = np.asarray(norms)
    imax = int(np.argmax(norms))
    return {
        "lambda": list(map(float, lambda_grid)),
        "norms": norms.tolist(),
        "sup": float(norms[imax]),
        "argmax_lambda": float(lambda_grid[imax]),
    }


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


def local_neumann_inverse(V, grid, lambda0, r, lam, tol=1e-12, max_terms=200):
    """Local Neumann series for (I + V R0(lambda^2))^{-1} around lambda0.

    Sums (-S0 V B_{l0}(lambda^2))^m S0 with S0 the dense inverse at the
    benchmark energy, stopping when the term norm falls below tol (see
    `_neumann_series` for the refusals).  Returns (operator,
    contraction_factor).
    """
    if abs(lam - lambda0) > r:
        raise ValueError(f"|lambda - lambda0| = {abs(lam - lambda0)} exceeds window {r}")
    S0, _ = direct_inverse(build_bs(V, grid, lambda0), context=f"lambda0={lambda0}")
    B = resolvent.build_B(grid, lambda0, lam)
    step = -(potential_operator(V, S0, right=True) @ B)
    return _neumann_series(S0, step, grid, tol, max_terms)


def _neumann_series(first, step, grid, tol, max_terms):
    """sum_m step^m first, stopping once a term's induced L^1 norm is below tol.

    The one series loop, shared with lowenergy.build_S_lambda; it is private
    so that traced self times stay with the two public callers.

    Raises NoContractionError when ||step|| >= 1 and SeriesNotConvergedError
    when max_terms terms do not reach tol.  Returns (sum, ||step||).
    """
    factor = operator_l1_norm(step, grid)
    if factor >= 1.0:
        raise NoContractionError(factor)
    total = first.copy()
    term, norm = first, np.inf
    for _ in range(max_terms):
        term = step @ term
        total += term
        norm = operator_l1_norm(term, grid)
        if norm < tol:
            return total, factor
    raise SeriesNotConvergedError(max_terms, norm, tol)
