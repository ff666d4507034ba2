import numpy as np
import pytest

from oracles import build_bs, build_R0, exact_eigen_profile
from speclab import birman, cli, evolution, grids, jordan, potentials
from speclab.grids import Mode


def test_exact_eigen_closed_form_null_vector():
    # V = Delta psi_s / psi_s annihilates psi_s analytically; the discrete
    # residual of H (r psi_s) is O(h^2)
    res = []
    for M in (200, 400):
        g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, M)
        V = potentials.exact_eigen(g, s=2.0)
        H = evolution.discretize_H(V, g)
        u = g.nodes * exact_eigen_profile(2.0)(g.nodes)
        res.append(np.abs(H @ u).max())
    assert res[0] < 0.1
    # halving h divides the residual by about 4
    assert res[0] / res[1] == pytest.approx(4.0, rel=0.3)


def test_exact_eigen_tail_is_inverse_square():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 40.0, 400)
    V = potentials.exact_eigen(g, s=2.0)
    r = g.nodes
    tail = V.values.values[r > 20].real * r[r > 20] ** 2
    # r^2 V -> 4 s^2 - 2 s = 12 at infinity
    assert np.all(np.abs(tail - 12.0) < 1.0)


def test_tune_coupling_lands_on_singularity(grid20):
    tuned, c, info = potentials.tune_coupling(
        potentials.exact_eigen(grid20, s=2.0), grid20
    )
    # the tuned Birman-Schwinger matrix has an exact -1 eigenvalue
    from speclab import birman

    A = build_bs(tuned, grid20, 0.0)
    ev = np.linalg.eigvals(A)
    assert np.abs(ev).min() < 1e-10
    # the coupling renormalization is a small grid correction
    assert abs(c - 1.0) < 0.05
    # the returned state is in the kernel of the discretized H
    H = evolution.discretize_H(tuned, grid20)
    assert np.abs(H @ info["state"].values).max() < 1e-8


def test_threshold_moment_vanishes_for_eigenvalue_class():
    # int r V u vanishes in the infinite-volume limit for the eigenvalue
    # class; on a truncated domain the defect shrinks ~ L^-3
    moments = []
    for L in (20.0, 40.0):
        g = grids.make_grid(Mode.RADIAL_SWAVE, L, 400)
        tuned, _, info = potentials.tune_coupling(
            potentials.exact_eigen(g, s=2.0), g
        )
        moments.append(abs(potentials.threshold_moment(info["state"], tuned)))
    assert moments[1] < 2e-4
    assert moments[1] < moments[0] / 4.0


def test_gaussian_well_values(grid20):
    V = potentials.gaussian_well(grid20, depth=4.0, width=1.0)
    assert V.values.values[0].real == pytest.approx(
        -4.0 * np.exp(-grid20.nodes[0] ** 2), rel=1e-12
    )
    assert np.all(V.values.values.imag == 0.0)


def test_complex_perturbed_moves_spectrum(grid20):
    base = potentials.gaussian_well(grid20, depth=5.0, width=1.0)
    V = potentials.complex_perturbed(grid20, base=base, gamma=1.5, width=1.0)
    assert np.isfinite(V.composite_norm)
    H = evolution.discretize_H(V, grid20)
    assert np.abs(H - H.conj().T).max() > 0.1  # non-Hermitian
    assert np.abs(H - H.T).max() < 1e-12  # still complex symmetric
    ev = np.linalg.eigvals(H)
    assert np.abs(ev.imag).max() > 0.3


def _bs_eigenvalues(V, grid):
    """Eigenvalues of V R0(0), densely, sorted by distance from -1."""
    K = birman.potential_operator(V, build_R0(grid, 0.0))
    ev = np.linalg.eig(K)[0]
    return K, ev[np.argsort(np.abs(ev + 1.0))]


@pytest.mark.parametrize("nodes", [120, 300])
@pytest.mark.parametrize("s", [1.0, 2.0, 4.0])
def test_tune_coupling_matches_dense_eig(nodes, s):
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, nodes)
    V = potentials.exact_eigen(g, s=s)
    _, c, info = potentials.tune_coupling(V, g)
    K, ev = _bs_eigenvalues(V, g)
    c_dense = -1.0 / ev[0]
    assert abs(c - c_dense) <= 1e-10 * abs(c)
    # the weighted state g = H0 u is the eigenvector of V R0(0)
    weighted = info["weighted"].values
    resid = np.abs(K @ weighted - info["nu"] * weighted).max()
    assert resid <= 1e-9 * np.abs(weighted).max()


def test_tune_coupling_outlasts_a_slow_contraction():
    # the eigenvalue nearest -1 (-1.535) is well separated from the next
    # (-0.0585), but each step contracts only by 0.57: round-off takes
    # about 60 steps
    g = grids.make_grid(Mode.RADIAL_SWAVE, 4.0, 8)
    V = potentials.exact_eigen(g, s=3.0)
    _, c, info = potentials.tune_coupling(V, g)
    _, ev = _bs_eigenvalues(V, g)
    assert abs(info["nu"] - ev[0]) <= 1e-12 * abs(ev[0])
    assert abs(c + 1.0 / ev[0]) <= 1e-12 * abs(c)


def test_tune_coupling_refuses_an_equidistant_target():
    # midway between the two eigenvalues nearest -1, inverse iteration
    # cannot separate them
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 120)
    V = potentials.exact_eigen(g, s=2.0)
    _, ev = _bs_eigenvalues(V, g)
    target = 0.5 * (ev[0] + ev[1]).real
    with pytest.raises(jordan.ClusterAmbiguousError):
        potentials.tune_coupling(V, g, target=target)
    assert jordan.ClusterAmbiguousError in cli._NUMERICAL_REFUSALS  # exit 4


@pytest.mark.parametrize("phase", [1.0, 1.0 + 0.5j])
def test_tune_coupling_refuses_a_zero_eigenvalue(count_calls, phase):
    # h = 2 puts a node at r = 1, where exact_eigen(s=2) vanishes, and every
    # other sample is positive: V R0(0) has the eigenvalue 0, and all others
    # lie farther from -1, so no finite coupling reaches -1
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 10)
    v = phase * potentials.exact_eigen(g, s=2.0).values.values
    V = birman.PotentialSpec("zero sample", grids.GridFunction(g, v))
    _, ev = _bs_eigenvalues(V, g)
    assert abs(ev[0]) < 1e-14 and abs(ev[1] + 1.0) > 1.0
    factor = count_calls(birman, "_tridiagonal_solver")
    with pytest.raises(potentials.NoCouplingError, match="no finite coupling"):
        potentials.tune_coupling(V, g)
    # real samples are refused before any step; complex ones once an
    # iterate nu reaches round-off of 0
    assert len(factor) == (0 if phase == 1.0 else 1)
    assert potentials.NoCouplingError in cli._NUMERICAL_REFUSALS  # exit 4
