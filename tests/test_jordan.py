import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from speclab import birman, evolution, grids, jordan, potentials
from speclab.grids import GridFunction, Mode


def test_hand_2x2_block_exact():
    # single length-2 chain under the antidiagonal form: the standard basis
    # already satisfies the certificate exactly
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    jb = jordan.jordan_dual_basis(N, B)
    assert jb.K == 2
    assert jb.multiplicities == {2: 1}
    cert = jb.pairing_certificate - jordan.expected_gram(jb.multiplicities)
    assert np.abs(cert).max() == 0.0


def test_isotropic_chain_tops_pair_with_a_partner():
    # N = 0 under the hyperbolic form: both candidate tops are isotropic, so
    # the first is combined with its dual partner (the linear normalization)
    N = np.zeros((2, 2))
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    jb = jordan.jordan_dual_basis(N, B)
    assert jb.multiplicities == {1: 2}
    cert = jb.pairing_certificate
    assert np.abs(cert - jordan.expected_gram(jb.multiplicities)).max() < 1e-14


def test_isotropic_top_without_partner_rejected():
    # B degenerate on the first coordinate: its top pairs with nothing
    with pytest.raises(jordan.DegeneratePairingError):
        jordan.jordan_dual_basis(np.zeros((2, 2)), np.diag([0.0, 1.0]))


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
    res = np.abs(jb.pairing_certificate - jordan.expected_gram(jb.multiplicities)).max()
    assert res < 1e-10
    # chain action N psi_{j,k} = psi_{j-1,k}
    for C in jb.chains:
        for j in range(C.shape[1]):
            tgt = C[:, j - 1] if j > 0 else np.zeros_like(C[:, j])
            assert np.abs(N @ C[:, j] - tgt).max() < 1e-10


@given(
    lengths=st.lists(st.integers(1, 5), min_size=1, max_size=3).filter(
        lambda ls: sum(ls) <= 12
    ),
    seed=st.integers(0, 2**32 - 1),
)
# two length-5 chains whose first candidate top is nearly isotropic: taken
# as it came, it was divided by a small sqrt(m) and the certificate was off
# by 1e-5
@example(lengths=[5, 5], seed=5543)
def test_dual_basis_under_random_bilinear_forms(lengths, seed):
    # N = S^-1 N_sym S is symmetric under B = S^T S whenever N_sym is
    # symmetric under the dot product; S is a random complex matrix near I
    spec = {}
    for k in sorted(lengths, reverse=True):
        spec[k] = spec.get(k, 0) + 1
    rng = np.random.default_rng(seed)
    N_sym = jordan.nilpotent_fixture(spec, rng=rng)
    n = N_sym.shape[0]
    E = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    S = np.eye(n) + 0.2 * E / np.sqrt(n)
    N = np.linalg.solve(S, N_sym @ S)
    jb = jordan.jordan_dual_basis(N, S.T @ S)
    assert jb.multiplicities == spec
    cert = np.abs(jb.pairing_certificate - jordan.expected_gram(spec)).max()
    assert cert < 1e-9
    for C in jb.chains:
        shifted = np.hstack([np.zeros((n, 1)), C[:, :-1]])
        assert np.abs(N @ C - shifted).max() < 1e-9


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
    res = np.abs(jb.pairing_certificate - jordan.expected_gram(jb.multiplicities)).max()
    assert res < 1e-9


def test_chain_fixture_dimensions(chain_fixture20):
    assert chain_fixture20["threshold"].dims == (1, 2)
    jb = chain_fixture20["basis"]
    assert jb.K == 2
    assert jb.multiplicities == {2: 1}
    res = np.abs(jb.pairing_certificate - jordan.expected_gram(jb.multiplicities)).max()
    assert res < 1e-9


def _dense(P):
    """The application matrix U W^T of the projection factors P = (U, W)."""
    U, W = P
    return U @ W.T


def test_projection_algebra(ee6):
    g, jb = ee6["grid"], ee6["basis"]
    P0 = _dense(jordan.build_P0(jb, g))
    Pt = _dense(jordan.build_Ptilde0(jb, g))
    Qt = np.eye(g.size) - Pt
    assert np.abs(P0 @ P0 - P0).max() < 1e-12
    assert np.abs(Pt @ Pt - Pt).max() < 1e-12
    assert np.abs(Qt @ Pt).max() < 1e-12
    H = evolution.discretize_H(ee6["V"], g)
    comm = H @ P0 - P0 @ H
    assert np.abs(comm @ P0).max() < 1e-6
    assert np.abs(P0 @ comm).max() < 1e-6


def test_ppp_collects_zero_mode(ee6):
    g = ee6["grid"]
    P = _dense(jordan.build_Ppp(ee6["V"], g, basis=ee6["basis"]))
    assert np.trace(P).real == pytest.approx(1.0, abs=1e-8)
    assert np.abs(P @ P - P).max() < 1e-10


def test_riesz_projectors_orthogonal_across_clusters():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 400)
    V = potentials.gaussian_well(g, depth=12.0, width=2.0)
    H = evolution.discretize_H(V, g)
    ev = np.linalg.eigvals(H)
    pts = np.sort_complex(ev[ev.real < -0.05])
    assert len(pts) == 2
    Ps = [_dense(jordan._riesz_projector(H, z, 1e-6)) for z in pts]
    for P in Ps:
        assert np.abs(P @ P - P).max() < 1e-10
    assert np.abs(Ps[0] @ Ps[1]).max() < 1e-10
    assert np.abs(Ps[1] @ Ps[0]).max() < 1e-10


def test_rank_one_projectors_match_schur(monkeypatch, count_calls):
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 400)
    V = potentials.gaussian_well(g, depth=12.0, width=2.0)
    H = evolution.discretize_H(V, g)
    ev = np.linalg.eigvals(H)
    pts = np.sort_complex(ev[ev.real < -0.05])
    assert len(pts) == 2
    dl, d, du = birman.tridiagonal_bs(g, 0.0)
    for z in pts:
        P1 = _dense(jordan._rank_one_projector(dl, d + V.values.values, du, z))
        P2 = _dense(jordan._riesz_projector(H, z, 1e-6))
        assert np.abs(P1 - P2).max() < 1e-10
    schur = count_calls(jordan, "_riesz_projector")
    P = _dense(jordan.build_Ppp(V, g, delta_edge=0.05))
    assert not schur
    # Widened clusters merge the two eigenvalues: one Schur projector, the
    # same total.
    merged = _dense(jordan.build_Ppp(V, g, delta_edge=0.05, cluster_tol=0.5))
    assert len(schur) == 1
    assert np.abs(merged - P).max() < 1e-10
    # Every eigenvalue counted near-defective: each rank-one projector is
    # refused and the Schur path gives the same total.
    monkeypatch.setattr(jordan, "KAPPA_MAX", 0.0)
    fallback = _dense(jordan.build_Ppp(V, g, delta_edge=0.05))
    assert len(schur) == 3
    assert np.abs(fallback - P).max() < 1e-10


def test_cluster_refuses_ambiguous_centers():
    # the greedy pass merges three of the four, and the merged center ends
    # within 10 cluster_tol of the fourth
    evals = np.array([1.6 + 1.0j, 1.8 + 1.6j, 1.1 + 2.2j, 1.6 + 2.0j]) * 1e-5
    with pytest.raises(jordan.ClusterAmbiguousError, match="separated by"):
        jordan._cluster(evals, 1e-6)


@pytest.mark.parametrize("scenario", ["ee6", "chain_fixture20"])
def test_filtration_refuses_to_grow_past_the_step_cap(request, monkeypatch, scenario):
    # samples take the banded path, the dense perturbation the dense SVD;
    # with no step allowed, neither can show that X_1 is stable
    sc = request.getfixturevalue(scenario)
    monkeypatch.setattr(jordan, "MAX_FILTRATION_STEPS", 0)
    with pytest.raises(jordan.NoStabilizationError, match=r"after 0 steps: dims \[1\]"):
        jordan.build_filtration(sc["V"], sc["grid"])


def test_dense_perturbation_takes_schur_path(count_calls):
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 150)
    F = jordan.build_chain_fixture(g, {2: 1}, seed=3)
    dense = F + np.diag(potentials.gaussian_well(g, depth=4.0, width=1.0).values.values)
    schur = count_calls(jordan, "_riesz_projector")
    rank_one = count_calls(jordan, "_rank_one_projector")
    P = _dense(jordan.build_Ppp(dense, g))
    assert schur and not rank_one
    assert np.abs(P @ P - P).max() < 1e-10


def test_zero_pivot_shifts_the_eigenvalue(monkeypatch, grid20, well20):
    H = evolution.discretize_H(well20, grid20)
    z = np.sort_complex(np.linalg.eigvals(H))[0]
    factor = birman._tridiagonal_solver
    shifts = []

    def singular_once(dl, d, du, context=""):
        shifts.append(d)
        if len(shifts) == 1:
            raise birman.NearSingularError(np.inf, context)
        return factor(dl, d, du, context)

    monkeypatch.setattr(birman, "_tridiagonal_solver", singular_once)
    dl, d, du = birman.tridiagonal_bs(grid20, 0.0)
    P = _dense(jordan._rank_one_projector(dl, d + well20.values.values, du, z))
    assert len(shifts) == 2 and 0 < np.abs(shifts[1] - shifts[0]).max() < 1e-10
    assert np.abs(P - _dense(jordan._riesz_projector(H, z, 1e-6))).max() < 1e-10


@given(
    nodes=st.integers(8, 120),
    extent=st.floats(1.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
    real=st.booleans(),
)
def test_build_Ppp_matches_schur_projectors(nodes, extent, seed, real):
    grid = grids.make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    rng = np.random.default_rng(seed)
    samples = rng.uniform(-10.0, 10.0, nodes) + 1j * rng.uniform(-2.0, 2.0, nodes)
    if real:  # real-symmetric H: the Sturm-bisection eigenvalues
        samples = samples.real
    V = birman.PotentialSpec("random", GridFunction(grid, samples))
    try:
        P = _dense(jordan.build_Ppp(V, grid, delta_im=0.5))
    except jordan.ClusterAmbiguousError:
        assume(False)
    # The oracle: the eigenvalues of a dense `eigvals`, for real and complex
    # draws alike, every cluster through its sorted-Schur Riesz projector.
    ev = np.linalg.eigvals(evolution.discretize_H(V, grid))
    with mock.patch.object(jordan, "_rank_one_projector", lambda *args: None), \
            mock.patch.object(jordan, "_eigenvalues_below", lambda *args: ev), \
            mock.patch.object(jordan, "_tridiagonal_eigenvalues", lambda *args: ev):
        oracle = _dense(jordan.build_Ppp(V, grid, delta_im=0.5))
    # The norm of a rank-one projector is its eigenvalue's condition kappa.
    kappa = max(np.linalg.norm(oracle, 2), 1.0)
    assert np.abs(P - oracle).max() <= 1e-10 * kappa


def _tridiagonal(grid, samples):
    """(d, e) of the complex symmetric H = tridiag(e, d, e) of the samples."""
    dl, d, _ = birman.tridiagonal_bs(grid, 0.0)
    return d + samples, dl


@given(
    nodes=st.integers(8, 200),
    extent=st.floats(1.0, 20.0),
    re_scale=st.floats(0.0, 1e3),
    im_scale=st.floats(0.0, 30.0),
    # None for i.i.d. samples, else the width of a localized complex well
    width=st.one_of(st.none(), st.floats(0.2, 3.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_tridiagonal_eigenvalues_match_eigvals(
    nodes, extent, re_scale, im_scale, width, seed
):
    grid = grids.make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    rng = np.random.default_rng(seed)
    if width is None:
        samples = (re_scale * rng.uniform(-1.0, 1.0, nodes)
                   + 1j * im_scale * rng.uniform(-1.0, 1.0, nodes))
    else:
        depth = -re_scale + 1j * im_scale * rng.uniform(-1.0, 1.0)
        samples = depth * np.exp(-((grid.nodes / width) ** 2))
    d, e = _tridiagonal(grid, samples)
    z = jordan._tridiagonal_eigenvalues(d, e)
    assume(z is not None)  # the dense fallback's cases
    ev = np.linalg.eigvals(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    dist = np.abs(z[:, None] - ev[None, :])
    tol = 1e-11 * jordan._one_norm(e, d, e)
    assert z.size == nodes
    assert dist.min(axis=1).max() <= tol and dist.min(axis=0).max() <= tol


def test_tridiagonal_eigenvalues_of_real_samples_are_the_start_values(grid20, well20):
    # the start values are then the eigenvalues: the well's steps all fall
    # below the freezing threshold; i.i.d. samples move a few clustered
    # ones by round-off, along the real axis
    d, e = _tridiagonal(grid20, well20.values.values.real)
    start = sla.eigvalsh_tridiagonal(d, e)
    assert np.array_equal(jordan._tridiagonal_eigenvalues(d, e), start)
    samples = np.random.default_rng(5).uniform(-50.0, 50.0, grid20.size)
    d, e = _tridiagonal(grid20, samples)
    z, start = jordan._tridiagonal_eigenvalues(d, e), sla.eigvalsh_tridiagonal(d, e)
    assert not np.any(z.imag)
    assert np.abs(z - start).max() <= 1e-13 * jordan._one_norm(e, d, e)


def _evolve_scenario(nodes, extent=40.0):
    """The complex non-normal potential of the evolve benchmark scenario."""
    grid = grids.make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    base = potentials.gaussian_well(grid, depth=5.0, width=1.0)
    return grid, potentials.complex_perturbed(grid, base=base, gamma=1.5, width=1.0)


@pytest.mark.parametrize(
    "failure", ["sweep cap", "coincident starts", "trace", "trace of the square"]
)
def test_tridiagonal_eigenvalue_failure_falls_back_to_eigvals(
    monkeypatch, count_calls, failure
):
    grid, V = _evolve_scenario(200)
    eigvals = count_calls(np.linalg, "eigvals")
    P = _dense(jordan.build_Ppp(V, grid, delta_im=0.3))
    assert not eigvals
    if failure == "sweep cap":
        monkeypatch.setattr(jordan, "ABERTH_SWEEPS", 1)
    elif failure == "coincident starts":  # an Ehrlich term 1 / 0
        start = sla.eigvalsh_tridiagonal

        def coincident(*args):
            z = start(*args)
            z[1] = z[0]
            return z

        monkeypatch.setattr(sla, "eigvalsh_tridiagonal", coincident)
    else:
        # sweeps that converge to the eigenvalues of H + diag(shift): the
        # shift moves only tr H, or only tr H^2
        d, _ = _tridiagonal(grid, V.values.values)
        shift = np.zeros(grid.size, complex)
        if failure == "trace":  # (d0 + 1)^2 + (d1 + s)^2 = d0^2 + d1^2
            shift[:2] = 1.0, np.sqrt(d[1] ** 2 - 2.0 * d[0] - 1.0) - d[1]
        else:
            shift[:2] = 1.0, -1.0
        log_derivative = jordan._log_derivative
        monkeypatch.setattr(
            jordan, "_log_derivative", lambda d, *args: log_derivative(d + shift, *args)
        )
    assert jordan._tridiagonal_eigenvalues(*_tridiagonal(grid, V.values.values)) is None
    dense = _dense(jordan.build_Ppp(V, grid, delta_im=0.3))
    assert len(eigvals) == 1
    assert np.abs(dense - P).max() <= 1e-10 * np.abs(P).max()


def test_tridiagonal_eigenvalues_hold_no_square_array():
    # one 1500 x 1500 complex array is 36 MB
    grid, V = _evolve_scenario(1500, extent=40.0 * 1500 / 700)
    d, e = _tridiagonal(grid, V.values.values)
    tracemalloc.start()
    try:
        z = jordan._tridiagonal_eigenvalues(d, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z is not None
    assert peak < 8e6


def test_projected_evolution_holds_no_square_array():
    # the evolve pipeline on samples: P_pp as factors, H as bands
    grid, V = _evolve_scenario(1500, extent=40.0 * 1500 / 700)
    z = jordan._tridiagonal_eigenvalues(*_tridiagonal(grid, V.values.values))
    edge = 3.0 * jordan.free_edge_scale(grid)
    selected = np.sum((z.real < -edge) | (np.abs(z.imag) > 0.3))
    f = grids.gaussian_bump(grid)
    tracemalloc.start()
    try:
        U, W = jordan.build_Ppp(V, grid, delta_im=0.3)
        plan = evolution.make_plan(
            V, grid, np.linspace(1.0, 3.2, 4), k_max=2.5, T_fit_min=1.0
        )
        report = evolution.dispersive_scan(plan, f, (U, W))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert selected >= 1 and U.shape == W.shape == (grid.size, selected)
    assert np.abs(W.T @ U - np.eye(selected)).max() <= 1e-12
    assert np.isfinite(report["exponent"])
    assert peak < 36e6  # one 1500 x 1500 complex array


def test_c0_is_reported_in_one_phase(grid20):
    # a resonance-class profile, so that c0 is far from 0
    u = grids.GridFunction(grid20, grid20.nodes / (1.0 + grid20.nodes))
    fit = jordan.classify_state(u)
    assert fit["c0"].imag == 0.0 and fit["c0"].real > 0.0
    flipped = jordan.classify_state(GridFunction(grid20, -u.values))
    assert flipped["c0"] == fit["c0"] and flipped["c1"] == fit["c1"]
    turned = jordan.classify_state(GridFunction(grid20, np.exp(2.1j) * u.values))
    assert turned["c0"] == pytest.approx(fit["c0"], rel=1e-13)
    assert turned["c1"] == pytest.approx(fit["c1"], rel=1e-13)
    assert flipped["verdict"] == turned["verdict"] == fit["verdict"]


def _dense_oracle(V, grid):
    """The threshold of the same H through the dense SVD path: the samples
    passed as a dense perturbation matrix."""
    return jordan.threshold(np.diag(V.values.values), grid)


def _svd_ratio(V, grid):
    s = np.linalg.svd(birman.build_bs(V, grid, 0.0), compute_uv=False)
    return s[-1] / s[0]


# Each example runs the dense SVD of I + V R0(0), O(M^3), as the oracle.
@settings(max_examples=30)
@given(
    # from 24 nodes, so that the tail fit of `classify_state` has 8
    nodes=st.integers(24, 400),
    extent=st.floats(1.0, 20.0),
    kind=st.sampled_from(["real", "complex", "tuned", "untuned"]),
    s=st.floats(2.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_threshold_matches_the_dense_svd(tune, nodes, extent, kind, s, seed):
    grid = grids.make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    if kind in ("real", "complex"):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-10.0, 10.0, nodes) + 1j * rng.uniform(-2.0, 2.0, nodes)
        if kind == "real":
            samples = samples.real
        V = birman.PotentialSpec("random", GridFunction(grid, samples))
    else:
        V = potentials.exact_eigen(grid, s=s)
        if kind == "tuned":
            V = tune(V, grid)
    # the rank decision is made on estimates: skip draws at the cutoff
    ratio = _svd_ratio(V, grid)
    assume(not 1e-9 < ratio < 1e-7)
    banded, dense = jordan.threshold(V, grid), _dense_oracle(V, grid)
    assert banded.dims == dense.dims
    assert banded.dims == ((1,) if ratio <= 1e-9 else ())
    for psi, oracle in zip(banded.states, dense.states):
        sup = np.abs(grids.profile_values(oracle)).max()
        c0 = jordan.classify_state(psi)["c0"]
        assert abs(c0 - jordan.classify_state(oracle)["c0"]) <= 1e-10 * sup
    for build in (jordan.build_P0, jordan.build_Ptilde0):
        P, oracle = _dense(build(banded.basis, grid)), _dense(build(dense.basis, grid))
        assert np.abs(P - oracle).max() <= 1e-10 * np.abs(oracle).max()


def _isotropic_chain_potential(grid):
    """Samples v with (H0 + v) psi = 0 for a psi with sum psi^2 = 0.

    psi = p + i q with p, q real, orthogonal and of equal norm is
    isotropic under the bilinear pairing, so H psi = psi is solvable and
    the zero-energy space is a chain of length 2.
    """
    r = grid.nodes
    p = 1.0 / (1.0 + r**2)
    q = r / (1.0 + r**2) ** 2
    q -= (p @ q) / (p @ p) * p
    q *= np.linalg.norm(p) / np.linalg.norm(q)
    psi = p + 1j * q
    dl, d, du = birman.tridiagonal_bs(grid, 0.0)
    v = -birman._tridiagonal_apply(dl, d, du, psi) / psi
    return birman.PotentialSpec("isotropic chain", GridFunction(grid, v))


def test_banded_threshold_finds_a_complex_chain():
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 10.0, 200)
    V = _isotropic_chain_potential(grid)
    banded, dense = jordan.threshold(V, grid), _dense_oracle(V, grid)
    assert banded.dims == dense.dims == (1, 2)
    assert banded.basis.multiplicities == dense.basis.multiplicities == {2: 1}
    # the self-dual chain basis is unique up to one overall sign
    top = banded.basis.chains[0][:, 1]
    sign = np.sign((top @ dense.basis.chains[0][:, 1].conj()).real)
    for j in range(2):
        got, want = banded.basis.chains[0][:, j], dense.basis.chains[0][:, j]
        assert np.abs(got - sign * want).max() <= 1e-10 * np.abs(want).max()


@pytest.mark.parametrize("failures", [1, 2])
def test_zero_pivot_at_threshold_shifts_or_falls_back(
    monkeypatch, count_calls, ee6, failures
):
    # an exactly zero pivot of H moves the factorization by a few ulps; if
    # that fails too, the dense SVD path takes over
    factor = birman._tridiagonal_solver
    seen = []

    def singular(dl, d, du, context=""):
        seen.append(d)
        if len(seen) <= failures:
            raise birman.NearSingularError(np.inf, context)
        return factor(dl, d, du, context)

    monkeypatch.setattr(birman, "_tridiagonal_solver", singular)
    grid = ee6["grid"]
    svd = count_calls(np.linalg, "svd")
    th = jordan.threshold(ee6["V"], grid)
    assert 0 < np.abs(seen[1] - seen[0]).max() < 1e-10
    dense_svd = [args for args in svd if args[0].shape == (grid.size, grid.size)]
    assert len(dense_svd) == (failures == 2)
    assert th.dims == (1,)
    P0 = _dense(jordan.build_P0(ee6["basis"], grid))
    assert np.abs(_dense(jordan.build_P0(th.basis, grid)) - P0).max() <= 1e-10


def test_dense_perturbation_takes_the_svd_threshold(chain_fixture20, count_calls):
    svd = count_calls(np.linalg, "svd")
    th = jordan.threshold(chain_fixture20["V"], chain_fixture20["grid"])
    assert th.dims == (1, 2)
    assert [a for a in svd if a[0].shape == (400, 400)]
