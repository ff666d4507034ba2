from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import linalg as sla

from oracles import build_bs
from speclab import birman, evolution, jordan, lowenergy, potentials, resolvent
from speclab.grids import GridFunction, Mode, make_grid, operator_l1_norm
from speclab.resolvent import Branch


def test_potential_spec_validates_exponents(grid20):
    with pytest.raises(ValueError):
        birman.PotentialSpec("bad", GridFunction(grid20, np.zeros(grid20.size)),
                             p=1.6, q=2.0)


@pytest.mark.parametrize("use", [
    lambda F, g: jordan.threshold(F, g),
    lambda F, g: lowenergy.build_S0(F, g, jordan.JordanBasis((), np.zeros((0, 0)))),
    lambda F, g: jordan.build_Ppp(F, g),
    lambda F, g: evolution.propagate(evolution.make_plan(F, g, [1.0]),
                                     GridFunction(g, g.nodes.astype(complex))),
], ids=["threshold", "build_S0", "build_Ppp", "propagate"])
def test_a_dense_matrix_is_not_a_potential(grid20, well20, use):
    # a potential is its samples; the dense perturbation matrix is refused
    with pytest.raises(TypeError, match="PotentialSpec"):
        use(np.diag(well20.values.values), grid20)


def test_epsilon_at_default_exponents(well20):
    # min(3/p - 2, 2 - 3/q) at (1.4, 2.0) is 1/7
    assert well20.epsilon == pytest.approx(1.0 / 7.0)


def test_zero_potential_gives_identity(grid20):
    V = potentials.gaussian_well(grid20, depth=0.0)
    A = build_bs(V, grid20, 0.8)
    assert np.abs(A - np.eye(grid20.size)).max() < 1e-15


def test_direct_inverse_roundtrip(grid20, well20):
    A = build_bs(well20, grid20, 0.8)
    inv, cond = birman.direct_inverse(A)
    assert cond < 1e6
    eye = inv @ A
    assert np.abs(eye - np.eye(grid20.size)).max() < 1e-10


def test_near_singular_raised_at_threshold(grid20):
    # tuned coupling puts -1 in the spectrum of V R0(0): I + V R0(0) singular
    tuned, _, _ = potentials.tune_coupling(
        potentials.exact_eigen(grid20, s=2.0), grid20
    )
    with pytest.raises(birman.NearSingularError):
        birman.direct_inverse(build_bs(tuned, grid20, 0.0))
    with pytest.raises(birman.NearSingularError):
        birman.bs_solve(tuned, grid20, 0.0, grid20.nodes.astype(complex))


def test_high_energy_norms_decay(grid20, well20):
    lams = [1.0, 4.0, 16.0]
    out = birman.high_energy_norm_scan(well20, grid20, lams)
    norms = out["norms"]
    assert norms[1] < norms[0] and norms[2] < norms[1]
    assert out["lambda1"] is not None
    # the banded square against the dense one
    for lam, norm in zip(lams, norms):
        K = birman.potential_operator(well20, resolvent.build_R0(grid20, lam))
        assert norm == pytest.approx(operator_l1_norm(K @ K, grid20), rel=1e-12)


def test_uniform_inverse_scan_finite(grid20, well20):
    out = birman.uniform_inverse_scan(well20, grid20, np.linspace(0.5, 4.0, 8))
    assert np.isfinite(out["sup"])
    assert out["sup"] >= 1.0


def test_smooth_cutoff_plateau_and_support():
    t = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, -0.7, -2.5])
    chi = birman.smooth_cutoff(t)
    assert np.all(chi[[0, 1, 2]] == 1.0)
    assert np.all(chi[[4, 5, 7]] == 0.0)
    assert 0.0 < chi[3] < 1.0
    assert chi[6] == 1.0
    # monotone on the ramp
    ramp = birman.smooth_cutoff(np.linspace(1.0, 2.0, 50))
    assert np.all(np.diff(ramp) <= 0.0)


def test_local_neumann_matches_dense_inverse(grid20, well20):
    op, factor = birman.local_neumann_inverse(well20, grid20, 2.0, 0.015, 2.01)
    assert factor < 1.0
    oracle, _ = birman.direct_inverse(build_bs(well20, grid20, 2.01))
    diff = op - oracle
    assert operator_l1_norm(diff, grid20) / operator_l1_norm(oracle, grid20) < 1e-10


def test_local_neumann_rejects_wide_window(grid20, well20):
    with pytest.raises(birman.NoContractionError):
        birman.local_neumann_inverse(well20, grid20, 1.0, 0.2, 1.15)


# Banded Birman-Schwinger solves, with the dense path as the oracle ----------


def _tridiagonal(d, e):
    return np.diag(d) + np.diag(e, -1) + np.diag(e, 1)


def _dense_solve(V, grid, lam, f, sign):
    """(R_V f, T^{-1} f, zgecon's condition estimate) from dense LU."""
    A = build_bs(V, grid, lam, sign)
    tinv, cond = birman.direct_inverse(A)
    R0 = resolvent.build_R0(grid, lam, sign)
    return R0 @ (tinv @ f), tinv @ f, cond


@pytest.mark.parametrize("sign", [Branch.PLUS, Branch.MINUS])
@pytest.mark.parametrize("lam", [0.0, 0.3, -1.7, 5.0])
def test_tridiagonal_bs_inverts_R0(lam, sign):
    grid = make_grid(Mode.RADIAL_SWAVE, 80.0, 400)
    R0 = resolvent.build_R0(grid, lam, sign)
    T = _tridiagonal(*birman.tridiagonal_bs(grid, lam, sign))
    assert np.abs(T @ R0 - np.eye(grid.size)).max() < 1e-12
    inv = np.linalg.inv(R0)
    assert np.abs(T - inv).max() < 1e-10 * np.abs(inv).max()


@given(
    nodes=st.integers(8, 120),
    extent=st.floats(1.0, 20.0),
    # |lambda h| >= 1e-6 or 0: at a deeply subnormal lambda h the closed-form
    # bands lose all precision (h sin(lambda h) underflows to 0 at 5e-324)
    lam_h=st.one_of(st.just(0.0), st.floats(1e-6, 6.2), st.floats(-6.2, -1e-6)),
    sign=st.sampled_from([Branch.PLUS, Branch.MINUS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_banded_solve_matches_dense(nodes, extent, lam_h, sign, seed):
    grid = make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    lam = lam_h / grid.spacing
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    V = birman.PotentialSpec("random", GridFunction(grid, samples))
    f = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    try:
        rv, tinv_f, cond = _dense_solve(V, grid, lam, f, sign)
    except birman.NearSingularError:
        assume(False)
    rv_b, tinv_b, cond_b = birman.bs_solve(V, grid, lam, f, sign)
    assert np.abs(tinv_b - tinv_f).max() <= 1e-10 * np.abs(tinv_f).max()
    assert np.abs(rv_b - rv).max() <= 1e-10 * np.abs(rv).max()
    norm = birman.bs_norm(samples, grid, lam, sign)
    dense_norm = np.linalg.norm(build_bs(V, grid, lam, sign), 1)
    assert norm == pytest.approx(dense_norm, rel=1e-12)
    assert cond / 3.0 <= cond_b <= 3.0 * cond


class _Logged:
    """A LAPACK routine that appends its name to `log` on each call."""

    def __init__(self, func, name, log):
        self.func, self.name, self.log = func, name, log

    def __getattr__(self, attr):
        return getattr(self.func, attr)

    def __call__(self, *args, **kwargs):
        self.log.append(self.name)
        return self.func(*args, **kwargs)


def _logged_solver(d, e, log):
    """birman._tridiagonal_solver(d, e), with every LAPACK call it makes,
    the factorization and later solves, logged by name (dpttrf, zgttrs, ...)."""
    get = sla.get_lapack_funcs

    def logged(names, arrays):
        funcs = get(names, arrays)
        return [_Logged(f, f.typecode + n, log) for f, n in zip(funcs, names)]

    with mock.patch.object(birman.sla, "get_lapack_funcs", logged):
        return birman._tridiagonal_solver(d, e)


@given(
    nodes=st.integers(8, 120),
    extent=st.floats(1.0, 20.0),
    # H0 - lambda^2 below the first box eigenvalue (0.996 to 1 of the free
    # edge), between the first two (8.74 to 9), or with complex diagonal
    kind=st.sampled_from(["definite", "indefinite", "complex"]),
    fraction=st.floats(0.0, 1.0),
    columns=st.integers(0, 3),  # 0: a vector
    complex_x=st.booleans(),
    trans=st.sampled_from(["N", "C"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tridiagonal_solver_matches_dense_solve(
    nodes, extent, kind, fraction, columns, complex_x, trans, seed
):
    grid = make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    rng = np.random.default_rng(seed)
    d0, e = birman.tridiagonal_bs(grid, 0.0)
    edge = jordan.free_edge_scale(grid)
    if kind == "definite":
        d = d0 - 0.99 * fraction * edge
    elif kind == "indefinite":
        d = d0 - (1.01 + 7.6 * fraction) * edge
    else:
        d = d0 - fraction * edge + 1j * rng.standard_normal(nodes)
    shape = (nodes, columns) if columns else (nodes,)
    x = rng.standard_normal(shape)
    if complex_x:
        x = x + 1j * rng.standard_normal(shape)
    log = []
    got = _logged_solver(d, e, log)(x, trans)
    A = _tridiagonal(d, e)
    A = A.conj().T if trans == "C" else A
    expect = np.linalg.solve(A, x)
    assert got.shape == x.shape and got.dtype == expect.dtype
    # backward stable solves agree to about M eps times the condition number
    bound = 1e-13 * nodes * np.linalg.cond(A, 1) * np.abs(expect).max()
    assert np.abs(got - expect).max() <= bound
    # positive pivots take LDL^T; the rest fall back to pivoted LU
    factor, solve = {
        "definite": (["dpttrf"], "dpttrs"),
        "indefinite": (["dpttrf", "dgttrf"], "dgttrs"),
        "complex": (["zgttrf"], "zgttrs"),
    }[kind]
    assert log == [*factor, solve]


@given(
    nodes=st.integers(3, 120),
    columns=st.integers(0, 3),  # 0: a vector
    trans=st.sampled_from(["N", "C"]),
    definite=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_real_bands_solve_complex_data_with_the_bits_of_zgttrs(
    nodes, columns, trans, definite, seed
):
    # real bands factor in real arithmetic and solve complex columns as
    # their real view.  Indefinite bands (a negative diagonal entry) take
    # LU, and complex copies of the same bands give the bits of zgttrs;
    # positive definite ones (diagonally dominant, positive diagonal) take
    # LDL^T, and give the bits of dpttrs on the real and imaginary parts.
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(nodes), rng.standard_normal(nodes - 1)
    if definite:
        d = np.abs(d) + 2.0 * np.abs(np.r_[e, 0.0]) + 2.0 * np.abs(np.r_[0.0, e])
    else:
        d[0] = -np.abs(d[0])
    shape = (nodes, columns) if columns else (nodes,)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    solve = birman._tridiagonal_solver(d, e)
    real = solve(x, trans)
    assert real.dtype == complex and real.shape == shape
    if definite:
        assert np.array_equal(real.real, solve(x.real, trans))
        assert np.array_equal(real.imag, solve(x.imag, trans))
    else:
        assert np.array_equal(real, birman._tridiagonal_solver(d + 0j, e + 0j)(x, trans))


def test_dense_path_at_lambda_h_pi(grid20, well20, monkeypatch):
    lam = np.pi / grid20.spacing
    assert not birman.banded_energy(grid20, lam)
    with pytest.raises(ValueError):
        birman.tridiagonal_bs(grid20, lam)
    calls = []
    dense = birman.direct_inverse

    def counted(*args, **kwargs):
        calls.append(args)
        return dense(*args, **kwargs)

    monkeypatch.setattr(birman, "direct_inverse", counted)
    f = grid20.nodes.astype(complex)
    rv, tinv_f, _ = birman.bs_solve(well20, grid20, lam, f)
    assert len(calls) == 1
    rv_d, tinv_d, _ = _dense_solve(well20, grid20, lam, f, Branch.PLUS)
    assert np.abs(tinv_f - tinv_d).max() <= 1e-12 * np.abs(tinv_d).max()
    assert np.abs(rv - rv_d).max() <= 1e-12 * np.abs(rv_d).max()


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_condition_estimate_takes_subnormal_entries(lam):
    # on this well the estimate's iterates reach subnormal entries, where
    # y / |y| overflows; the estimate still brackets the dense one
    grid = make_grid(Mode.RADIAL_SWAVE, 40.0, 800)
    V = potentials.gaussian_well(grid, depth=4.0, width=1.0)
    f = grid.nodes.astype(complex)
    _, tinv_f, cond = _dense_solve(V, grid, lam, f, Branch.PLUS)
    _, tinv_b, cond_b = birman.bs_solve(V, grid, lam, f)
    assert np.abs(tinv_b - tinv_f).max() <= 1e-10 * np.abs(tinv_f).max()
    assert cond / 3.0 <= cond_b <= 3.0 * cond


def test_condition_estimate_leaves_global_rng_alone(grid20, well20):
    f = grid20.nodes.astype(complex)
    out = []
    for seed in (0, 1):
        np.random.seed(seed)
        state = np.random.get_state()
        out.append(birman.bs_solve(well20, grid20, 0.7, f))
        after = np.random.get_state()
        assert all(np.array_equal(a, b) for a, b in zip(state[1:3], after[1:3]))
    assert all(np.array_equal(a, b) for a, b in zip(out[0], out[1]))


def _inverse_estimate_and_exact(V, grid, lam, sign):
    """bs_solve's estimate of ||T^{-1}||_1, its operator I - V (T_lambda + V)^{-1}
    formed by solving on the identity, and that operator's exact 1-norm."""
    v = V.values.values
    eye = np.eye(grid.size, dtype=complex)
    rv, _, cond = birman.bs_solve(V, grid, lam, eye, sign)
    op = eye - v[:, None] * rv
    return cond / birman.bs_norm(v, grid, lam, sign), op, np.linalg.norm(op, 1)


@given(
    nodes=st.integers(8, 60),
    extent=st.floats(1.0, 20.0),
    # the range of test_banded_solve_matches_dense, without the dense path
    lam_h=st.one_of(st.just(0.0), st.floats(1e-6, 6.2), st.floats(-6.2, -1e-6)),
    sign=st.sampled_from([Branch.PLUS, Branch.MINUS]),
    seed=st.integers(0, 2**32 - 1),
)
def test_inverse_norm_estimate_is_a_lower_bound(nodes, extent, lam_h, sign, seed):
    grid = make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    lam = lam_h / grid.spacing
    assume(birman.banded_energy(grid, lam))
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(nodes) + 1j * rng.standard_normal(nodes)
    V = birman.PotentialSpec("random", GridFunction(grid, samples))
    try:
        est, _, exact = _inverse_estimate_and_exact(V, grid, lam, sign)
    except birman.NearSingularError:
        assume(False)
    assert exact / 3.0 <= est <= exact * (1.0 + 1e-12)


def test_inverse_norm_estimate_matches_onenormest():
    # the scipy estimator the hand-written loop replaced, on the same operator;
    # complex samples, where the estimate stops short of the exact norm
    from scipy.sparse.linalg import onenormest

    grid = make_grid(Mode.RADIAL_SWAVE, 10.0, 20)
    rng = np.random.default_rng(1)
    samples = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    V = birman.PotentialSpec("random", GridFunction(grid, samples))
    est, op, exact = _inverse_estimate_and_exact(V, grid, 0.7, Branch.PLUS)
    assert est < 0.95 * exact
    assert est == pytest.approx(onenormest(op, t=1), rel=1e-12)


def test_uniform_inverse_scan_matches_dense(grid20, well20):
    lams = [0.5, 2.0, 9.0]
    out = birman.uniform_inverse_scan(well20, grid20, lams)
    dense = [
        operator_l1_norm(
            birman.direct_inverse(build_bs(well20, grid20, lam))[0], grid20
        )
        for lam in lams
    ]
    assert np.allclose(out["norms"], dense, rtol=1e-10, atol=0.0)


@given(
    nodes=st.integers(3, 120),
    definite=st.booleans(),
    trans=st.sampled_from(["N", "C"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_vector_solve_gives_the_bits_of_one_column(nodes, definite, trans, seed):
    # a vector of the bands' dtype goes to the LAPACK solve as it is (the
    # propagator's thousands of solves): positive definite real bands
    # (LDL^T) and complex ones (LU) give the bits of the one-column matrix
    rng = np.random.default_rng(seed)
    d, e = rng.standard_normal(nodes), rng.standard_normal(nodes - 1)
    d = np.abs(d) + 2.0 * np.abs(np.r_[e, 0.0]) + 2.0 * np.abs(np.r_[0.0, e])
    x = rng.standard_normal(nodes)
    if not definite:
        d = d + 1j * rng.standard_normal(nodes)
        x = x + 1j * rng.standard_normal(nodes)
    solve = birman._tridiagonal_solver(d, e)
    vector = solve(x, trans)
    assert vector.shape == x.shape and vector.dtype == d.dtype
    assert np.array_equal(vector, solve(x[:, None], trans)[:, 0])
