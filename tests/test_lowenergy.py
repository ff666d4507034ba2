import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speclab import birman, evolution, grids, jordan, lowenergy, potentials
from speclab.grids import GridFunction, operator_l1_norm


def _rand_f(grid, rng):
    return GridFunction(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )


def test_domain_resolvent_inverts_H(ee6):
    g = ee6["grid"]
    lam = 0.1
    H0 = evolution.discretize_H(None, g)
    R = lowenergy.domain_resolvent(g, lam)(np.eye(g.size, dtype=complex))
    eye = (H0 - lam**2 * np.eye(g.size)) @ R
    assert np.abs(eye - np.eye(g.size)).max() < 1e-10


@given(
    nodes=st.integers(8, 120),
    extent=st.floats(1.0, 20.0),
    # lambda^2 as a fraction of the free edge, below the first discrete
    # eigenvalue (at least 0.996 of the edge at 8 nodes)
    edge_fraction=st.floats(0.0, 0.99),
    columns=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_domain_resolvent_matches_dense_solve(
    nodes, extent, edge_fraction, columns, seed
):
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, extent, nodes)
    lam = np.sqrt(edge_fraction * jordan.free_edge_scale(grid))
    A = evolution.discretize_H(None, grid) - lam**2 * np.eye(nodes)
    apply = lowenergy.domain_resolvent(grid, lam)
    rng = np.random.default_rng(seed)
    for shape in ((nodes,), (nodes, columns)):
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expect = np.linalg.solve(A, X)
        got = apply(X)
        assert got.shape == X.shape
        assert np.abs(got - expect).max() <= 1e-10 * np.abs(expect).max()


def test_s0_one_sided_inverse(ee_small):
    assert lowenergy.one_sided_residual(ee_small["reg"], 0.0) < 1e-9


def test_s0_without_threshold_basis():
    # a well with no zero-energy states: S0 is the plain inverse of I + V R0(0)
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 10.0, 100)
    V = potentials.gaussian_well(grid, depth=4.0, width=1.0)
    basis = jordan.threshold(V, grid).basis
    assert basis.dim == 0
    reg = lowenergy.build_S0(V, grid, basis)
    assert lowenergy.one_sided_residual(reg, 0.0) < 1e-9


# Each example runs the dense bordered LU, O(M^3), as the oracle.
@settings(max_examples=30)
@given(
    nodes=st.integers(8, 200),
    extent=st.floats(1.0, 20.0),
    # s of a tuned exact_eigen(s) well, or None for a basis-free
    # Gaussian well of the given depth
    s=st.one_of(st.none(), st.floats(2.0, 4.0)),
    depth=st.floats(0.5, 8.0),
)
def test_banded_S0_matches_the_dense_bordered_solve(tune, nodes, extent, s, depth):
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, extent, nodes)
    if s is None:
        V = potentials.gaussian_well(grid, depth=depth, width=1.0)
    else:
        V = tune(potentials.exact_eigen(grid, s=s), grid)
    basis = jordan.threshold(V, grid).basis
    reg = lowenergy.build_S0(V, grid, basis, window=1.0)
    dense = lowenergy._bordered_S0(V, grid, reg.Y, reg.Z, reg.range_constraints)
    assert np.abs(reg.S0 - dense).max() <= 1e-10 * np.abs(dense).max()


def test_dense_perturbation_keeps_the_dense_paths(chain_fixture20, count_calls):
    # a dense perturbation matrix has no tridiagonal H: eigvals for the
    # point spectrum and the dense bordered LU for S0
    g, F, basis = chain_fixture20["grid"], chain_fixture20["V"], chain_fixture20["basis"]
    eigvals = count_calls(np.linalg, "eigvals")
    dense_lu = count_calls(birman, "direct_inverse")
    jordan.build_Ppp(F, g, basis=basis)
    lowenergy.build_S0(F, g, basis, window=1.0)
    assert len(eigvals) == 1 and len(dense_lu) == 1


def test_s0_refuses_a_degenerate_duality_pairing(ee_small):
    # two identical length-1 chains: the duality Gram matrix is singular
    psi = ee_small["basis"].chains[0]
    twins = jordan.JordanBasis((psi, psi), np.eye(2))
    with pytest.raises(lowenergy.DualityDegenerateError):
        lowenergy.build_S0(ee_small["V"], ee_small["grid"], twins, window=0.25)


def test_s0_range_constraint(ee_small):
    assert lowenergy.range_constraint_residual(ee_small["reg"]) < 1e-9


def test_series_continuation_one_sided(ee_small):
    for lam in (0.03, 0.1, 0.2):
        assert lowenergy.one_sided_residual(ee_small["reg"], lam) < 1e-9


def test_one_sided_residual_seeds_the_series_with_S0(ee_small):
    # S(lambda) is summed from S0 itself rather than from the product
    # S0 @ I; the residual keeps every bit of the one built from S0 @ I
    reg, grid = ee_small["reg"], ee_small["grid"]
    eye = np.eye(grid.size, dtype=complex)
    for lam in (0.03, 0.1, 0.2):
        D, _ = lowenergy.build_S_lambda(reg, lam, eye)
        D += birman.potential_operator(reg.V, lowenergy.domain_resolvent(grid, lam)(D))
        D -= reg.Y @ (reg.Z.T @ D)
        D[np.diag_indices(grid.size)] -= 1.0
        D -= (D @ np.linalg.pinv(reg.Z.T)) @ reg.Z.T
        assert lowenergy.one_sided_residual(reg, lam) == operator_l1_norm(D, grid)


def test_contraction_factor_grows_with_lambda(ee_small):
    reg = ee_small["reg"]
    f1 = lowenergy.contraction_factor(reg, 0.03)
    f2 = lowenergy.contraction_factor(reg, 0.2)
    assert f1 < f2 < 1.0


def test_series_step_keeps_the_bits_of_the_out_of_place_form(ee_small):
    # the step is negated in place and returned as a transposed view, and
    # the factor is read off the rows of D; both keep every bit of the
    # out-of-place -(R0(l^2) X^T - R0(0) X^T)^T and its induced norm
    reg, grid = ee_small["reg"], ee_small["grid"]
    X = np.random.default_rng(1).standard_normal((grid.size, 2)) + 0j
    x_norms = grid.weights @ np.abs(X)
    for lam in (0.03, 0.1, 0.2):
        old = -(lowenergy.domain_resolvent(grid, lam)(reg.Xt) - reg.R0Xt).T
        factor = operator_l1_norm(old, grid)
        assert lowenergy.contraction_factor(reg, lam) == factor
        expect = birman._neumann_series(reg.S0 @ X, old, grid, 1e-13, 200, x_norms)
        SX, got_factor = lowenergy.build_S_lambda(reg, lam, X)
        assert got_factor == factor and np.array_equal(SX, expect[0])


def test_series_rejected_outside_window(ee_small):
    eye = np.eye(ee_small["grid"].size, dtype=complex)
    with pytest.raises(ValueError):
        lowenergy.build_S_lambda(ee_small["reg"], 0.5, eye)


def test_series_refuses_to_run_out_of_terms(ee_small):
    eye = np.eye(ee_small["grid"].size, dtype=complex)
    with pytest.raises(birman.SeriesNotConvergedError):
        lowenergy.build_S_lambda(ee_small["reg"], 0.1, eye, max_terms=1)


def test_chain_identities_machine_exact(ee_small):
    g, V, jb = ee_small["grid"], ee_small["V"], ee_small["basis"]
    for lam in (0.03, 0.2):
        resid = lowenergy.identity_residuals(V, g, jb, lam)
        assert resid["resid_chain"] < 1e-9
        assert resid["resid_telescope"] < 1e-9
        assert resid["resid_exactinv"] < 1e-9


def test_exact_inverse_rejects_lambda_zero(ee_small):
    with pytest.raises(ValueError):
        lowenergy.identity_residuals(
            ee_small["V"], ee_small["grid"], ee_small["basis"], 0.0
        )


def test_formula_matches_dense_inversion(ee_small):
    g, V, reg = ee_small["grid"], ee_small["V"], ee_small["reg"]
    rng = np.random.default_rng(5)
    f = _rand_f(g, rng)
    lam = 0.1
    out, _ = lowenergy.inverse_via_formula(reg, lam, f)
    oracle = np.linalg.solve(lowenergy._bs_matrix(V, g, lam), f.values)
    err = np.sum(g.weights * np.abs(out.values - oracle))
    err /= np.sum(g.weights * np.abs(oracle))
    assert err < 1e-6


def test_formula_variants_agree(ee_small):
    g, reg = ee_small["grid"], ee_small["reg"]
    rng = np.random.default_rng(6)
    f = _rand_f(g, rng)
    a, _ = lowenergy.inverse_via_formula(reg, 0.1, f, variant="R0")
    b, _ = lowenergy.inverse_via_formula(reg, 0.1, f, variant="B0")
    scale = np.abs(a.values).max()
    assert np.abs(a.values - b.values).max() / scale < 1e-9


def test_inverse1_inverse2_equivalent(ee_small):
    g, reg = ee_small["grid"], ee_small["reg"]
    rng = np.random.default_rng(7)
    f = _rand_f(g, rng)
    out2, diag = lowenergy.inverse_via_formula(reg, 0.1, f)
    out1 = diag["inverse1"]
    scale = np.abs(out2.values).max()
    assert np.abs(out1.values - out2.values).max() / scale < 1e-9


def test_low_energy_scan_columns(tmp_path, ee_small):
    g, reg = ee_small["grid"], ee_small["reg"]
    rng = np.random.default_rng(8)
    f_gen = _rand_f(g, rng)
    P0 = jordan.build_P0(reg.basis, g)
    f_adm = GridFunction(g, grids.apply_complement(P0, f_gen.values))
    path = tmp_path / "scan.csv"
    rows = lowenergy.low_energy_scan(
        reg, [0.03, 0.1, 0.2], f_adm, f_gen, path=str(path)
    )
    assert len(rows) == 3
    header = path.read_text().splitlines()[0]
    assert header == (
        "lambda,norm_admissible_f,norm_generic_f,contraction,"
        "resid_chain,resid_telescope,resid_exactinv"
    )
    # generic outputs blow up toward lambda = 0, admissible ones stay flat
    assert rows[0]["norm_generic_f"] > 10.0 * rows[2]["norm_generic_f"]
    adm = [r["norm_admissible_f"] for r in rows]
    assert max(adm) / min(adm) < 3.0


def test_scan_does_not_form_the_alternative_form(ee_small, count_calls):
    # one lambda applies V three times in identity_residuals (one chain of
    # length 1) and once per formula; the alternative form of
    # inverse_via_formula, with its T u, is left to that function
    g, reg = ee_small["grid"], ee_small["reg"]
    applies = count_calls(birman, "potential_operator")
    f = grids.gaussian_bump(g)
    lowenergy.low_energy_scan(reg, [0.1], f, f)
    assert len(applies) == 5


# Each example sums the operator series twice on the full identity, so
# fewer examples than the suite's profile.
@settings(max_examples=12)
@given(
    lam=st.floats(-0.25, 0.25),  # the fixture's validity window
    columns=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_S_lambda_on_data_matches_the_operator_series(ee_small, lam, columns, seed):
    reg, grid = ee_small["reg"], ee_small["grid"]
    rng = np.random.default_rng(seed)
    shape = (grid.size, columns)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    S, factor = lowenergy.build_S_lambda(reg, lam, np.eye(grid.size, dtype=complex))
    SX, factor_X = lowenergy.build_S_lambda(reg, lam, X)
    assert factor_X == factor
    expect = S @ X
    assert np.abs(SX - expect).max() <= 1e-12 * np.abs(expect).max()
    # X = I gives the plain operator series sum_m step^m S0, stopped once
    # the induced L^1 norm of a term is below the tolerance
    step = lowenergy._series_step(reg, lam)
    total, term = reg.S0.copy(), reg.S0
    for _ in range(200):
        term = step @ term
        total += term
        if operator_l1_norm(term, grid) < 1e-13:
            break
    assert np.array_equal(S, total)


def _bisection_window(cf, target=0.5, iters=30):
    """The window search by bisection: 31 evaluations of cf."""
    hi = 1.0
    if cf(hi) <= target:
        return hi
    lo = 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if cf(mid) <= target:
            lo = mid
        else:
            hi = mid
    return lo


@pytest.mark.parametrize("scenario", ["ee_small", "ee6", "full_ee", "well"])
def test_auto_window_brackets_the_crossing(request, count_calls, scenario):
    if scenario == "ee_small":
        reg = request.getfixturevalue("ee_small")["reg"]
    else:
        if scenario == "ee6":
            ee6 = request.getfixturevalue("ee6")
            grid, V = ee6["grid"], ee6["V"]
        elif scenario == "full_ee":  # the full-ee benchmark grid
            grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 80.0, 400)
            V, _, _ = potentials.tune_coupling(potentials.exact_eigen(grid), grid)
        else:  # no threshold basis: S0 is the plain inverse
            grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 20.0, 200)
            V = potentials.gaussian_well(grid, depth=4.0, width=1.0)
        basis = jordan.threshold(V, grid).basis
        reg = lowenergy.build_S0(V, grid, basis, window=1.0)
    exact = count_calls(lowenergy, "_step_column_norms")
    w = lowenergy._auto_window(reg)
    assert len(exact) <= 4
    assert (w * 2**30).is_integer()

    def cf(lam):
        return lowenergy.contraction_factor(reg, lam)

    assert w == 1.0 or cf(w) <= 0.5 < cf(w + 2.0**-30)
    assert w == _bisection_window(cf)


def _patch_factors(monkeypatch, columns):
    """Make the step's column norms the given functions of lambda, for
    `_step_column_norms` and `_column_factor` alike, except that a pair
    (exact, column) gives the two separately.  Returns the exact factor
    max_j exact_j and the lists of the exact and the column evaluations."""
    columns = [c if isinstance(c, tuple) else (c, c) for c in columns]
    exact, column = [], []

    def norms(reg, lam):
        exact.append(lam)
        return np.array([c[0](lam) for c in columns])

    def factor(reg, lam, j):
        column.append(lam)
        return columns[j][1](lam)

    monkeypatch.setattr(lowenergy, "_step_column_norms", norms)
    monkeypatch.setattr(lowenergy, "_column_factor", factor)
    return (lambda lam: max(c[0](lam) for c in columns)), exact, column


def _k_star_exact(lam, k_star=3 * 2**28 + 12345):
    # exactly 1/2 at lambda = k_star 2^-30, above it from the next grid point
    return lam / (2 * (k_star / 2**30))


@pytest.mark.parametrize("columns, exact_calls, least, most", [
    ([lambda lam: 0.25 * lam], 1, 0, 0),  # cf(1) <= 1/2: lo = 1 at once
    # concave: hi moves twice in a row and cf(lo) is halved; plain regula
    # falsi takes 58 evaluations here
    ([lambda lam: lam**0.25], 2, 1, 15),
    ([lambda lam: float(lam > 0.9)], 2, 31, 60),  # a jump: bisection past 30 steps
    # the argmax column at lambda = 1 crosses at 0.24, the other one first,
    # at 0.12: the certificate at the first lo fails and the search moves
    ([lambda lam: 2.1 * lam, lambda lam: min(1.5, 4.1 * lam)], 3, 2, 30),
    # the column is within rounding of 1/2 at the crossing, where the exact
    # norm is 1/2 itself: that hi is checked by the exact norm, and the
    # search goes on above it
    ([(_k_star_exact, lambda lam: _k_star_exact(lam) + 1e-13)], 3, 2, 30),
], ids=["below-at-1", "concave", "jump", "argmax-switch", "column-rounding"])
def test_auto_window_on_synthetic_factors(monkeypatch, columns, exact_calls, least, most):
    cf, exact, column = _patch_factors(monkeypatch, columns)
    lo = lowenergy._auto_window(None)
    assert len(exact) == exact_calls
    assert least <= len(column) <= most
    assert lo == _bisection_window(cf)
