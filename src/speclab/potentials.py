"""Model potential families and threshold coupling tuning.

The workhorse family is ``exact_eigen(s)``: the radial profile
psi_s(r) = (1 + r^2)^{-s} solves (-Delta + V) psi = 0 exactly for

    V(r) = Delta psi / psi = (r^2 (4 s^2 - 2 s) - 6 s) / (1 + r^2)^2,

so a zero-energy threshold state with algebraic decay r^{-2s} is known in
closed form.  s = 1/2 gives a resonance-type tail (psi ~ 1/r), s >= 1 an
eigenvalue; larger s pushes the decay faster, which the tight-tolerance
identity suites exploit.

Sampled on a finite grid the continuum eigenfunction is null only up to
O(h^2), so ``tune_coupling`` renormalizes the coupling constant c in cV
until I + c V R0(0) is exactly singular in the discrete model; the tuned
null state is then a machine-precision threshold object.  The tuning is an
inverse iteration on the tridiagonal pencil (V, H0), O(M) per step; no
M x M matrix is formed.
"""

from __future__ import annotations

import numpy as np

from . import birman, jordan
from .grids import GridFunction

#: Step cap of `tune_coupling`'s inverse iteration.  It converges in 5 to
#: 10 steps on the shipped grids; the cap reaches round-off at per-step
#: contraction ratios up to about 0.93 (each step is one O(M) solve).
TUNE_MAX_STEPS = 500


class NoCouplingError(ArithmeticError):
    """The eigenvalue of V R0(0) nearest the target is 0: c would be infinite."""


def exact_eigen_potential(s):
    """Potential with psi_s in its zero-energy kernel (before discretization)."""

    def V(r):
        r2 = np.asarray(r) ** 2
        return (r2 * (4.0 * s**2 - 2.0 * s) - 6.0 * s) / (1.0 + r2) ** 2

    return V


def exact_eigen(grid, s=2.0, p=1.4, q=2.0):
    """Sample the exact threshold family at decay parameter s."""
    name = f"exact_eigen(s={s:g})"
    return birman.sample_potential(name, grid, exact_eigen_potential(s), p, q)


def gaussian_well(grid, depth=4.0, width=1.0, p=1.4, q=2.0):
    """Attractive Gaussian well -depth * exp(-(r/width)^2)."""
    name = f"gaussian_well(depth={depth:g}, width={width:g})"
    return birman.sample_potential(
        name, grid, lambda r: -depth * np.exp(-((r / width) ** 2)), p, q
    )


def complex_perturbed(grid, gamma, base=None, width=1.0, p=1.4, q=2.0):
    """Base potential plus a localized imaginary bump i gamma exp(-(r/width)^2).

    The bump keeps V short range while moving spectrum off the real axis;
    with gamma large enough a genuine complex bound state appears.
    """
    r = grid.nodes
    base_vals = np.zeros(grid.size, complex) if base is None else base.values.values
    bump = 1j * gamma * np.exp(-((r / width) ** 2))
    name = f"complex_perturbed(gamma={gamma:g}, width={width:g})"
    if base is not None:
        name = f"{base.name} + {name}"
    return birman.PotentialSpec(name, GridFunction(grid, base_vals + bump), p, q)


def tune_coupling(V, grid, target=-1.0):
    """Renormalize the coupling so I + c V R0(0) is exactly singular.

    R0(0) is the exact inverse of the H0 stencil
    (`birman.tridiagonal_bs(grid, 0.0)`), so the eigenvalue nu of V R0(0)
    nearest to `target` is the eigenvalue nearest `target` of the
    tridiagonal pencil V u = nu H0 u, and g = H0 u is its eigenvector of
    V R0(0).  Inverse iteration u <- (H0 - V / target)^{-1} H0 u from a
    fixed-seed start finds it in O(M) per step; nu is the bilinear Rayleigh
    quotient u^T V u / u^T H0 u (the pencil is complex symmetric).  The
    iteration stops once nu stops moving and the pencil residual
    V u - nu H0 u is at round-off relative to (||V|| + |nu| ||H0||) ||u||
    (max norms).  Each step contracts the residual by the ratio of the
    distances of the two eigenvalues nearest `target`; when TUNE_MAX_STEPS
    steps do not reach round-off, as when those two lie about equally far
    from `target`, it raises jordan.ClusterAmbiguousError.
    c = target / nu puts `target` in the spectrum of c V R0(0).  Returns
    (tuned PotentialSpec, c, null info).

    A sample that is zero to round-off puts nu = 0 in the spectrum (V e_k
    vanishes), and when that is the eigenvalue nearest `target` no finite
    coupling exists: NoCouplingError.  Real samples none of which has the
    sign of a real `target` give every nu the opposite sign or 0, so 0 is
    nearest; that is refused before any step.  Otherwise an iterate nu at
    round-off of 0 (|nu| ||H0|| <= 16 eps ||V||) is refused as it appears.
    """
    d, e = birman.tridiagonal_bs(grid, 0.0)
    v = V.values.values
    roundoff = 16 * np.finfo(float).eps
    v_norm = np.max(np.abs(v))
    if (
        np.min(np.abs(v)) <= roundoff * v_norm
        and not np.any(np.imag(v))
        and not np.any(np.real(v) * target > 0)
    ):
        raise _no_coupling(target)
    solve = birman._tridiagonal_solver(d - v / target, e, "tune_coupling")
    h0_norm = np.max(np.abs(d)) + 2 * np.max(np.abs(e))
    u = np.random.default_rng(0).standard_normal(grid.size).astype(complex)
    g = birman._tridiagonal_apply(d, e, u)
    nu = np.inf
    for _ in range(TUNE_MAX_STEPS):
        u = solve(g)
        u /= np.max(np.abs(u))
        g = birman._tridiagonal_apply(d, e, u)
        nu_prev, nu = nu, (u @ (v * u)) / (u @ g)
        resid = np.max(np.abs(v * u - nu * g))
        scale = v_norm + abs(nu) * h0_norm
        if abs(nu) * h0_norm <= roundoff * v_norm:
            raise _no_coupling(target)
        if abs(nu - nu_prev) <= roundoff * abs(nu) and resid <= roundoff * scale:
            break
    else:
        raise jordan.ClusterAmbiguousError(
            f"inverse iteration for the eigenvalue of V R0(0) nearest {target} "
            f"did not converge in {TUNE_MAX_STEPS} steps (last nu {nu:.6g})"
        )
    c = target / nu
    tuned = birman.PotentialSpec(
        f"{V.name} [c={c:.12g}]",
        GridFunction(grid, c * V.values.values),
        V.p,
        V.q,
    )
    # Threshold state: u with (H0 + c V) u = 0, and g = H0 u, where
    # (I + c V R0(0)) g = 0; u is already scaled to max |u| = 1.
    return tuned, complex(c), {
        "nu": complex(nu),
        "state": GridFunction(grid, u),
        "weighted": GridFunction(grid, g),
    }


def _no_coupling(target):
    return NoCouplingError(
        f"the eigenvalue of V R0(0) nearest {target} is 0: no finite coupling "
        f"puts {target} in the spectrum of c V R0(0)"
    )


def threshold_moment(u, V):
    """First moment of V u deciding eigenvalue vs resonance.

    This is the flat integral of r * (V u); it vanishes exactly when
    R0(0) V u decays at infinity (eigenvalue class) and is nonzero for a
    resonance tail.
    """
    grid = u.grid
    Vu = V.values.values * u.values
    return complex(np.sum(grid.weights * grid.nodes * Vu))
