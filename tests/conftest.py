"""Shared scenario fixtures.

The tuned exact-eigenvalue scenarios and the Jordan-chain potential are
session-scoped and shared across test modules; their set-up (the coupling
tuning, the threshold and the S0 of ee_small and chain_fixture20) is
banded.
"""

import numpy as np
import pytest
from hypothesis import settings

from speclab import birman, grids, jordan, lowenergy, potentials, resolvent
from speclab.grids import GridFunction, Mode

# One profile for every property test.  No deadline: example times vary
# with the grid size drawn and with the machine's load.
settings.register_profile("speclab", max_examples=60, deadline=None)
settings.load_profile("speclab")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.<name> for the test and returns
    the list to which each call appends its positional arguments."""

    def wrap(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return wrap


@pytest.fixture(scope="session")
def tune():
    """tune(W, grid): W tuned by `potentials.tune_coupling`.  Where that
    refuses, the cause is checked and W is tuned by the dense nonzero
    eigenvalue of V R0(0) nearest -1, so that property tests keep every
    grid drawn."""

    def tune(W, grid):
        try:
            return potentials.tune_coupling(W, grid)[0]
        except (jordan.ClusterAmbiguousError, potentials.NoCouplingError) as exc:
            K = birman.potential_operator(W, resolvent.build_R0(grid, 0.0))
            ev = np.linalg.eigvals(K)
            ev = ev[np.argsort(np.abs(ev + 1.0))]
            zero = np.abs(ev) <= 1e-12 * np.abs(ev).max()
            if isinstance(exc, potentials.NoCouplingError):
                # a zero sample puts 0 nearest -1; no coupling reaches it
                assert zero[0]
            else:
                # the refusal is by contract only when the two eigenvalues
                # nearest -1 lie about equally far from it: inverse
                # iteration then contracts by more than 0.9 per step
                assert abs(ev[0] + 1.0) > 0.9 * abs(ev[1] + 1.0)
            nu = ev[~zero][0]
            return birman.PotentialSpec(
                W.name, GridFunction(grid, -W.values.values / nu), W.p, W.q
            )

    return tune


@pytest.fixture(scope="session")
def grid20():
    return grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 400)


@pytest.fixture(scope="session")
def well20(grid20):
    return potentials.gaussian_well(grid20, depth=4.0, width=1.0)


@pytest.fixture(scope="session")
def ee6():
    """Tuned exact zero-energy eigenvalue scenario on the L=6 domain."""
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 6.0, 300)
    tuned, c, info = potentials.tune_coupling(potentials.exact_eigen(grid, s=2.0), grid)
    threshold = jordan.threshold(tuned, grid)
    return {"grid": grid, "V": tuned, "coupling": c, "info": info,
            "threshold": threshold, "basis": threshold.basis}


@pytest.fixture(scope="session")
def ee_small():
    """Tuned exact-eigenvalue scenario on the small L=2.25 domain.

    Small enough that lambda = 0.2 stays below the first free eigenvalue,
    so the regularized series converges on the whole test window.
    """
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 2.25, 225)
    tuned, c, info = potentials.tune_coupling(potentials.exact_eigen(grid, s=2.0), grid)
    basis = jordan.threshold(tuned, grid).basis
    reg = lowenergy.build_S0(tuned, grid, basis, window=0.25)
    return {"grid": grid, "V": tuned, "basis": basis, "reg": reg}


def _isotropic_chain_potential(grid):
    """Samples v with (H0 + v) psi = 0 for a psi with sum psi^2 = 0.

    psi = p + i q with p, q real, orthogonal and of equal norm is
    isotropic under the bilinear pairing, so H psi = psi is solvable and
    the zero-energy space is a chain of length 2.  p = (1 + r^2)^-3 and
    q ~ r (1 + r^2)^-4 decay fast enough that the chain meets criterion 6's
    tolerances; at p = (1 + r^2)^-1 the one-sided residual of S0 is 2.7e-9.
    """
    r = grid.nodes
    p = (1.0 + r**2) ** -3
    q = r * (1.0 + r**2) ** -4
    q -= (p @ q) / (p @ p) * p
    q *= np.linalg.norm(p) / np.linalg.norm(q)
    psi = p + 1j * q
    v = -birman._tridiagonal_apply(*birman.tridiagonal_bs(grid, 0.0), psi) / psi
    return birman.PotentialSpec("isotropic chain", GridFunction(grid, v))


@pytest.fixture(scope="session")
def chain_fixture20(grid20):
    """A complex potential on grid20 whose zero-energy space is one Jordan
    chain of length 2 (K = 2), with its S0 on the automatic window."""
    V = _isotropic_chain_potential(grid20)
    threshold = jordan.threshold(V, grid20)
    reg = lowenergy.build_S0(V, grid20, threshold.basis)
    return {"grid": grid20, "V": V, "threshold": threshold,
            "basis": threshold.basis, "reg": reg}
