import numpy as np
import pytest

from speclab import evolution, grids, jordan, potentials
from speclab.grids import Mode


def test_hand_2x2_block_exact():
    # single length-2 chain under the antidiagonal form: the standard basis
    # already satisfies the certificate exactly
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    jb = jordan.jordan_dual_basis(N, B)
    assert jb.K == 2
    assert jb.multiplicities == {2: 1}
    assert np.abs(jb.pairing_certificate - jordan.expected_gram(jb.labels)).max() == 0.0


def test_non_symmetric_matrix_rejected():
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(jordan.NotSymmetricError):
        jordan.jordan_dual_basis(N)  # plain dot form: N not symmetric


def test_non_nilpotent_rejected():
    with pytest.raises(jordan.NotNilpotentError):
        jordan.jordan_dual_basis(np.eye(3))


def test_random_fixture_roundtrip():
    rng = np.random.default_rng(11)
    N = jordan.nilpotent_fixture({3: 1, 1: 2}, rng=rng)
    jb = jordan.jordan_dual_basis(N)
    assert jb.multiplicities == {3: 1, 1: 2}
    res = np.abs(jb.pairing_certificate - jordan.expected_gram(jb.labels)).max()
    assert res < 1e-10
    # chain action N psi_{j,k} = psi_{j-1,k}
    for (j, k, ell), v in jb.vectors.items():
        tgt = jb.vectors[(j - 1, k, ell)] if j > 1 else np.zeros_like(v)
        assert np.abs(N @ v - tgt).max() < 1e-10


def test_classify_eigenvalue_vs_resonance(grid20):
    # r^-3 profile tail: eigenvalue class
    u_eig = grids.GridFunction(
        grid20, grid20.nodes * (1.0 + grid20.nodes**2) ** -2.0
    )
    assert jordan.classify_state(u_eig)["verdict"] == jordan.EIGENVALUE
    # surviving c/r profile tail: resonance class (u = r psi constant)
    u_res = grids.GridFunction(
        grid20, grid20.nodes / (1.0 + grid20.nodes)
    )
    assert jordan.classify_state(u_res)["verdict"] == jordan.RESONANCE


def test_threshold_exact_eigen(ee6):
    th = ee6["threshold"]
    assert th.dims[0] == 1
    verdicts = [jordan.classify_state(psi)["verdict"] for psi in th.states]
    assert verdicts == [jordan.EIGENVALUE]


@pytest.mark.parametrize("scenario", ["ee6", "chain_fixture20"])
def test_threshold_states_are_zero_modes(request, scenario):
    sc = request.getfixturevalue(scenario)
    H = evolution.discretize_H(sc["V"], sc["grid"])
    assert sc["threshold"].states
    for psi in sc["threshold"].states:
        assert np.abs(H @ psi.values).max() <= 1e-9 * np.abs(psi.values).max()


def test_threshold_basis_certificate(ee6):
    jb = ee6["basis"]
    assert jb.K == 1 and jb.dim == 1
    res = np.abs(jb.pairing_certificate - jordan.expected_gram(jb.labels)).max()
    assert res < 1e-9


def test_chain_fixture_dimensions(chain_fixture20):
    assert chain_fixture20["threshold"].dims == (1, 2)
    jb = chain_fixture20["basis"]
    assert jb.K == 2
    assert jb.multiplicities == {2: 1}
    res = np.abs(jb.pairing_certificate - jordan.expected_gram(jb.labels)).max()
    assert res < 1e-9


def test_projection_algebra(ee6):
    g, jb = ee6["grid"], ee6["basis"]
    P0 = jordan.build_P0(jb, g)
    Pt = jordan.build_Ptilde0(jb, g)
    Qt = jordan.build_Qtilde0(jb, g)
    assert np.abs(P0 @ P0 - P0).max() < 1e-12
    assert np.abs(Pt @ Pt - Pt).max() < 1e-12
    assert np.abs(Qt @ Pt).max() < 1e-12
    H = evolution.discretize_H(ee6["V"], g)
    comm = H @ P0 - P0 @ H
    assert np.abs(comm @ P0).max() < 1e-6
    assert np.abs(P0 @ comm).max() < 1e-6


def test_ppp_collects_zero_mode(ee6):
    g = ee6["grid"]
    P = jordan.build_Ppp(ee6["V"], g, basis=ee6["basis"])
    assert np.trace(P).real == pytest.approx(1.0, abs=1e-8)
    assert np.abs(P @ P - P).max() < 1e-10


def test_riesz_projectors_orthogonal_across_clusters():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 400)
    V = potentials.gaussian_well(g, depth=12.0, width=2.0)
    H = evolution.discretize_H(V, g)
    ev = np.linalg.eigvals(H)
    pts = np.sort_complex(ev[ev.real < -0.05])
    assert len(pts) == 2
    Ps = [jordan._riesz_projector(H, z, 1e-6) for z in pts]
    for P in Ps:
        assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(Ps[0] @ Ps[1]).max() < 1e-10
    assert np.abs(Ps[1] @ Ps[0]).max() < 1e-10
