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
null state is then a machine-precision threshold object.
"""

from __future__ import annotations

import numpy as np

from . import birman, resolvent
from .grids import GridFunction


def exact_eigen_profile(s):
    """The closed-form threshold profile psi_s(r) = (1 + r^2)^{-s}."""
    return lambda r: (1.0 + np.asarray(r) ** 2) ** (-s)


def exact_eigen_potential(s):
    """Potential with psi_s in its zero-energy kernel (before discretization)."""

    def V(r):
        r2 = np.asarray(r) ** 2
        return (r2 * (4.0 * s**2 - 2.0 * s) - 6.0 * s) / (1.0 + r2) ** 2

    return V


def exact_eigen(grid, s=2.0, coupling=1.0, p=1.4, q=2.0):
    """Sample the exact threshold family at decay parameter s."""
    fn = exact_eigen_potential(s)
    name = f"exact_eigen(s={s:g})"
    spec = birman.sample_potential(name, grid, lambda r: coupling * fn(r), p, q)
    return spec


def gaussian_well(grid, depth=4.0, width=1.0, p=1.4, q=2.0):
    """Attractive Gaussian well -depth * exp(-(r/width)^2)."""
    name = f"gaussian_well(depth={depth:g}, width={width:g})"
    return birman.sample_potential(
        name, grid, lambda r: -depth * np.exp(-((r / width) ** 2)), p, q
    )


def complex_perturbed(grid, base=None, gamma=0.5, width=1.0, p=1.4, q=2.0):
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

    The eigenvalue nu of V R0(0) nearest to `target` is computed densely and
    c = target / nu makes c*nu land exactly on the target, i.e. puts -1 in
    the spectrum of c V R0(0).  Returns (tuned PotentialSpec, c, null info).
    """
    R0 = resolvent.build_R0(grid, 0.0)
    K = birman.potential_operator(V, R0)
    evals, evecs = np.linalg.eig(K)
    idx = int(np.argmin(np.abs(evals - target)))
    nu = evals[idx]
    c = target / nu
    tuned = birman.PotentialSpec(
        f"{V.name} [c={c:.12g}]",
        GridFunction(grid, c * V.values.values),
        V.p,
        V.q,
    )
    # Threshold state: u = R0(0) g where (I + cVR0(0)) g = 0.
    g = evecs[:, idx]
    u = R0 @ g
    scale = np.max(np.abs(u))
    u = GridFunction(grid, u / scale)
    g = GridFunction(grid, g / scale)
    return tuned, complex(c), {"nu": complex(nu), "state": u, "weighted": g}


def threshold_moment(u, V):
    """First moment of V u deciding eigenvalue vs resonance.

    This is the flat integral of r * (V u); it vanishes exactly when
    R0(0) V u decays at infinity (eigenvalue class) and is nonzero for a
    resonance tail.
    """
    grid = u.grid
    Vu = V.values.values * u.values
    return complex(np.sum(grid.weights * grid.nodes * Vu))
