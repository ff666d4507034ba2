import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bordered_S0, bs_matrix, dense_S0, series_step, thomas_longdouble
from speclab import birman, evolution, grids, jordan, lowenergy, potentials
from speclab.grids import GridFunction, operator_l1_norm


def _rand_f(grid, rng):
    return GridFunction(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )


def test_domain_resolvent_inverts_H(ee6):
    g = ee6["grid"]
    lam = 0.1
    H0 = evolution.discretize_H(birman.sample_potential("free", g, np.zeros_like), g)
    R = lowenergy.domain_resolvent(g, lam)(np.eye(g.size, dtype=complex))
    eye = (H0 - lam**2 * np.eye(g.size)) @ R
    assert np.abs(eye - np.eye(g.size)).max() < 1e-10


@given(
    nodes=st.integers(8, 120),
    extent=st.floats(1.0, 20.0),
    # lambda^2 as a fraction of the free edge: below the first discrete
    # eigenvalue (0.996 to 1 of the edge), where H0 - lambda^2 is positive
    # definite and takes LDL^T, or between the first two (8.74 to 9), where
    # it takes LU
    edge_fraction=st.one_of(st.floats(0.0, 0.99), st.floats(1.01, 8.6)),
    columns=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_domain_resolvent_matches_dense_solve(
    nodes, extent, edge_fraction, columns, seed
):
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, extent, nodes)
    lam = np.sqrt(edge_fraction * jordan.free_edge_scale(grid))
    free = birman.sample_potential("free", grid, np.zeros_like)
    A = evolution.discretize_H(free, grid) - lam**2 * np.eye(nodes)
    apply = lowenergy.domain_resolvent(grid, lam)
    rng = np.random.default_rng(seed)
    for shape in ((nodes,), (nodes, columns)):
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        expect = np.linalg.solve(A, X)
        got = apply(X)
        assert got.shape == X.shape
        assert np.abs(got - expect).max() <= 1e-10 * np.abs(expect).max()


def test_s0_one_sided_inverse(ee_small):
    assert lowenergy.one_sided(ee_small["reg"], 0.0)[0] < 1e-9


def test_s0_without_threshold_basis():
    # a well with no zero-energy states: S0 is the plain inverse of I + V R0(0)
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 10.0, 100)
    V = potentials.gaussian_well(grid, depth=4.0, width=1.0)
    basis = jordan.threshold(V, grid).basis
    assert basis.dim == 0
    reg = lowenergy.build_S0(V, grid, basis)
    assert lowenergy.one_sided(reg, 0.0)[0] < 1e-9


def test_real_samples_keep_the_low_energy_arrays_real(ee_small):
    # real samples give a real basis, real columns of S0 and of S0^T, real
    # blocks of X^T and of R0(0) X^T and a real S(lambda) on real data;
    # complex samples keep complex ones
    reg, grid = ee_small["reg"], ee_small["grid"]
    u = np.ones((grid.size, 2))
    eye = np.eye(grid.size, 8)
    R_0 = lowenergy.domain_resolvent(grid, 0)
    R = lowenergy.domain_resolvent(grid, 0.01)
    Xt = lowenergy._xt_block(reg, slice(0, 8))
    arrays = [*reg.basis.chains, reg.Y, reg.Z, reg.S0(eye), reg.S0T(slice(0, 8)),
              reg.S0Y, Xt, R_0(Xt), lowenergy.build_S_lambda(reg, 0.01, R)[0](u)]
    assert [a.dtype for a in arrays] == [np.float64] * len(arrays)
    v = ee_small["V"].values.values
    V = birman.PotentialSpec("complex", GridFunction(grid, v * (1 + 1e-3j)))
    reg = lowenergy.build_S0(V, grid, jordan.threshold(V, grid).basis, window=0.25)
    Xt = lowenergy._xt_block(reg, slice(0, 8))
    arrays = [reg.S0(eye), reg.S0T(slice(0, 8)), reg.S0Y, Xt, R_0(Xt),
              lowenergy.build_S_lambda(reg, 0.01, R)[0](u)]
    assert [a.dtype for a in arrays] == [np.complex128] * len(arrays)


def test_the_low_energy_inverse_holds_no_square_array():
    # no M x M array: S0 is applied by its bordered solve, and every
    # product that spans M columns goes in column blocks.  With the window
    # search, the residuals of S0 and one lambda of the scan, the peak stays
    # below two float64 M x M arrays on the grids of invert-ee (given
    # window) and of full-ee (automatic window) and a depth-4 well with no
    # threshold basis (automatic window), where the blocks of BLOCK_BYTES
    # are most of the peak; and below one eighth of one such array on the
    # full-ee domain at M = 1600 and 3200 (automatic window).
    for extent, nodes, window, depth in (
        (2.25, 550, 0.25, None), (80.0, 400, "auto", None), (20.0, 550, "auto", 4.0),
        (80.0, 1600, "auto", None), (80.0, 3200, "auto", None),
    ):
        grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, extent, nodes)
        if depth is None:
            V, _, _ = potentials.tune_coupling(potentials.exact_eigen(grid, s=2.0), grid)
        else:
            V = potentials.gaussian_well(grid, depth=depth, width=1.0)
        basis = jordan.threshold(V, grid).basis
        f = grids.gaussian_bump(grid)
        tracemalloc.start()
        try:
            reg = lowenergy.build_S0(V, grid, basis, window=window)
            lowenergy.one_sided(reg, 0.0)
            lowenergy.low_energy_scan(reg, [reg.window / 2], f, f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (grid.size**2 if nodes >= 1600 else 2 * grid.size**2 * 8)


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
    dense = bordered_S0(V, grid, reg.Y, reg.Z, reg.range_constraints)
    assert np.abs(dense_S0(reg) - dense).max() <= 1e-10 * np.abs(dense).max()


# Each example runs the dense bordered LU, O(M^3), as the oracle.
@settings(max_examples=30)
@given(
    nodes=st.integers(8, 200),
    extent=st.floats(1.0, 20.0),
    s=st.one_of(st.none(), st.floats(2.0, 4.0)),
    depth=st.floats(0.5, 8.0),
)
def test_transposed_S0_blocks_match_the_dense_bordered_rows(
    tune, nodes, extent, s, depth
):
    # the columns of S0^T that the exact norms read, from the transposed
    # bordered solve without refinement, are the rows of the dense oracle
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, extent, nodes)
    if s is None:
        V = potentials.gaussian_well(grid, depth=depth, width=1.0)
    else:
        V = tune(potentials.exact_eigen(grid, s=s), grid)
    basis = jordan.threshold(V, grid).basis
    reg = lowenergy.build_S0(V, grid, basis, window=1.0)
    dense = bordered_S0(V, grid, reg.Y, reg.Z, reg.range_constraints)
    scale = np.abs(dense).max()
    for J in lowenergy._blocks(nodes, reg.S0Y.itemsize):
        assert np.abs(reg.S0T(J) - dense[J].T).max() <= 1e-10 * scale


def test_s0_refuses_a_degenerate_duality_pairing(ee_small):
    # two identical length-1 chains: the duality Gram matrix is singular
    psi = ee_small["basis"].chains[0]
    twins = jordan.JordanBasis((psi, psi), np.eye(2))
    with pytest.raises(lowenergy.DualityDegenerateError):
        lowenergy.build_S0(ee_small["V"], ee_small["grid"], twins, window=0.25)


def test_s0_range_constraint(ee_small):
    assert lowenergy.one_sided(ee_small["reg"], 0.0)[1] < 1e-9


def test_series_continuation_one_sided(ee_small):
    for lam in (0.03, 0.1, 0.2):
        assert lowenergy.one_sided(ee_small["reg"], lam)[0] < 1e-9


def test_one_sided_residual_seeds_the_series_with_S0(ee_small):
    # the streamed residual, whose series on each block of the identity
    # starts from the columns of S0, against the dense defect of the
    # operator series summed from S0 with the dense step of the oracle: both
    # are round-off (about 5e-15 here), so they agree to a factor, where a
    # wrong block, shift or projection would leave an O(1) defect
    reg, grid = ee_small["reg"], ee_small["grid"]
    S0 = dense_S0(reg)
    for lam in (0.0, 0.03, 0.1, 0.2):
        step = series_step(reg, lam)
        D, _ = birman._neumann_series(
            S0, lambda x: step @ x, operator_l1_norm(step, grid), grid,
            1e-13, 200, grid.weights,
        )
        D += birman.potential_operator(reg.V, lowenergy.domain_resolvent(grid, lam)(D))
        D -= reg.Y @ (reg.Z.T @ D)
        D[np.diag_indices(grid.size)] -= 1.0
        D -= (D @ np.linalg.pinv(reg.Z.T)) @ reg.Z.T
        expect = operator_l1_norm(D, grid)
        got = lowenergy.one_sided(reg, lam)[0]
        assert expect < 1e-13 and abs(got - expect) <= 0.5 * expect


def _factor(reg, lam):
    """The exact contraction factor at lambda: the max of the step's
    column norms."""
    return lowenergy._step_column_norms(reg, lam).max()


def test_contraction_factor_grows_with_lambda(ee_small):
    reg = ee_small["reg"]
    f1 = _factor(reg, 0.03)
    f2 = _factor(reg, 0.2)
    assert f1 < f2 < 1.0


def test_series_step_matches_the_out_of_place_form(ee_small):
    # the block-streamed factor and S(lambda) X against the dense
    # out-of-place step -(R0(l^2) X^T - R0(0) X^T)^T of the oracle: the
    # factor to M eps relative (the block sums change the summation order)
    # and S(lambda) X, one bordered solve, to the round-off of the series
    reg, grid = ee_small["reg"], ee_small["grid"]
    rng = np.random.default_rng(1)
    X = rng.standard_normal((grid.size, 2)) + 0j
    x_norms = grid.weights @ np.abs(X)
    S0 = dense_S0(reg)
    for lam in (0.03, 0.1, 0.2):
        step = series_step(reg, lam)
        factor = operator_l1_norm(step, grid)
        got = _factor(reg, lam)
        assert abs(got - factor) <= grid.size * np.finfo(float).eps * factor
        first = S0 @ X
        expect, _ = birman._neumann_series(
            first, lambda x: step @ x, factor, grid, 1e-13, 200, x_norms
        )
        S, got_factor = lowenergy.build_S_lambda(
            reg, lam, lowenergy.domain_resolvent(grid, lam)
        )
        SX = S(X)
        assert got_factor == got
        assert np.abs(SX - expect).max() <= 1e-12 * np.abs(expect).max()


def test_series_rejected_outside_window(ee_small):
    R = lowenergy.domain_resolvent(ee_small["grid"], 0.5)
    with pytest.raises(ValueError):
        lowenergy.build_S_lambda(ee_small["reg"], 0.5, R)


def test_series_refuses_to_run_out_of_terms(ee_small):
    # the series loop of local_neumann_inverse, here on the dense step of
    # the low-energy series, which one term does not bring below 1e-13
    reg, grid = ee_small["reg"], ee_small["grid"]
    step = series_step(reg, 0.1)
    with pytest.raises(birman.SeriesNotConvergedError):
        birman._neumann_series(
            dense_S0(reg), lambda x: step @ x, operator_l1_norm(step, grid), grid,
            1e-13, 1, grid.weights,
        )


def test_S_lambda_refuses_where_the_step_does_not_contract(ee_small):
    # with the window widened past the crossing, the exact factor reaches
    # 1 inside it (near 0.26 on this grid), and S(lambda) is refused there
    reg = ee_small["reg"]
    wide = dataclasses.replace(reg, window=0.5)
    lam = next(l for l in np.arange(0.2, 0.5, 0.01) if _factor(wide, l) >= 1.0)
    with pytest.raises(birman.NoContractionError):
        lowenergy.build_S_lambda(wide, lam, lowenergy.domain_resolvent(reg.grid, lam))
    with pytest.raises(birman.NoContractionError):
        lowenergy.one_sided(wide, lam)
    f = grids.gaussian_bump(reg.grid)
    with pytest.raises(birman.NoContractionError):
        lowenergy.low_energy_scan(wide, [0.1, lam], f, f)


def test_S_lambda_refuses_a_large_first_residual(ee_small, monkeypatch):
    # no grid here reaches the bound (the first residual is 1e-12 to 1e-11
    # relative up to the window, and the shifted tridiagonal of the
    # bordered solver turns singular only far past it), so the bound is
    # lowered below that residual to show the refusal and its message
    reg = ee_small["reg"]
    X = np.ones((reg.grid.size, 1))
    R = lowenergy.domain_resolvent(reg.grid, 0.1)
    S = lowenergy.build_S_lambda(reg, 0.1, R)[0]
    S(X)
    monkeypatch.setattr(lowenergy, "RESIDUAL_BOUND", 1e-16)
    with pytest.raises(birman.NearSingularError, match="lambda=0.1"):
        S(X)


def test_S_lambda_is_one_bordered_solve(ee_small, count_calls):
    # at lambda != 0 S(lambda) X does not apply S0, and the scan forms
    # each block of X^T, and R0(0) on it, once for all its lambdas, with
    # the bits of the exact factor at each
    reg, grid = ee_small["reg"], ee_small["grid"]
    applies = count_calls(reg, "S0")
    R = lowenergy.domain_resolvent(grid, 0.1)
    lowenergy.build_S_lambda(reg, 0.1, R)[0](np.ones((grid.size, 2)))
    assert not applies
    lambdas = [0.03, 0.1, 0.15, 0.2]
    expect = [_factor(reg, lam) for lam in lambdas]
    blocks = count_calls(lowenergy, "_xt_block")
    solves = count_calls(reg, "R0")
    f = grids.gaussian_bump(grid)
    rows = lowenergy.low_energy_scan(reg, lambdas, f, f)
    assert len(blocks) == len(solves) == len(lowenergy._blocks(grid.size, 8))
    assert [row["contraction"] for row in rows] == expect


def test_chain_identities_machine_exact(ee_small):
    g, V, jb = ee_small["grid"], ee_small["V"], ee_small["basis"]
    for lam in (0.03, 0.2):
        resid = lowenergy.identity_residuals(
            V, g, jb, lam, lowenergy.domain_resolvent(g, lam)
        )
        assert resid["resid_chain"] < 1e-9
        assert resid["resid_telescope"] < 1e-9
        assert resid["resid_exactinv"] < 1e-9


def test_exact_inverse_rejects_lambda_zero(ee_small):
    with pytest.raises(ValueError):
        lowenergy.identity_residuals(
            ee_small["V"], ee_small["grid"], ee_small["basis"], 0.0,
            ee_small["reg"].R0,
        )


def test_formula_matches_dense_inversion(ee_small):
    g, V, reg = ee_small["grid"], ee_small["V"], ee_small["reg"]
    rng = np.random.default_rng(5)
    f = _rand_f(g, rng)
    lam = 0.1
    out, _ = lowenergy.inverse_via_formula(reg, lam, f)
    oracle = np.linalg.solve(bs_matrix(V, g, lam), f.values)
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
    # length 1) and once for the formula's brackets, which both probes
    # share; the alternative form of inverse_via_formula, with its T u, is
    # left to that function
    g, reg = ee_small["grid"], ee_small["reg"]
    applies = count_calls(birman, "potential_operator")
    f = grids.gaussian_bump(g)
    lowenergy.low_energy_scan(reg, [0.1], f, f)
    assert len(applies) == 4


def test_scan_factors_each_lambda_once(ee_small, count_calls):
    # H0 - lambda^2 is factored once, for the norm pass, the bordered
    # solve, the formula and identity_residuals; R0(0) is the one that
    # build_S0 keeps, and the other factorization is the shifted
    # tridiagonal of each bordered solve
    g, reg = ee_small["grid"], ee_small["reg"]
    resolvents = count_calls(lowenergy, "domain_resolvent")
    factorizations = count_calls(birman, "_tridiagonal_solver")
    f = grids.gaussian_bump(g)
    lambdas = [0.03, 0.1, 0.2]
    lowenergy.low_energy_scan(reg, lambdas, f, f)
    assert sorted(args[1] for args in resolvents) == lambdas
    assert len(factorizations) == len(resolvents) + len(lambdas)


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
    apply, _ = lowenergy.build_S_lambda(reg, lam, lowenergy.domain_resolvent(grid, lam))
    S, SX = apply(np.eye(grid.size)), apply(X)
    expect = S @ X
    assert np.abs(SX - expect).max() <= 1e-12 * np.abs(expect).max()
    # X = I gives the plain operator series sum_m step^m S0, stopped once
    # the induced L^1 norm of a term is below the tolerance; here with the
    # dense step of the oracle, so the two agree to round-off
    step = series_step(reg, lam)
    S0 = dense_S0(reg)
    total, term = S0.copy(), S0
    for _ in range(200):
        term = step @ term
        total += term
        if operator_l1_norm(term, grid) < 1e-13:
            break
    assert np.abs(S - total).max() <= 1e-12 * np.abs(total).max()


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


@pytest.fixture(scope="module")
def full_ee_reg():
    """S0 on the full-ee benchmark grid, window 1."""
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 80.0, 400)
    V, _, _ = potentials.tune_coupling(potentials.exact_eigen(grid), grid)
    return lowenergy.build_S0(V, grid, jordan.threshold(V, grid).basis, window=1.0)


def _window_reg(request, scenario):
    """The RegularizedInverse of a window-search scenario."""
    if scenario == "ee_small":
        return request.getfixturevalue("ee_small")["reg"]
    if scenario == "full_ee":
        return request.getfixturevalue("full_ee_reg")
    if scenario == "ee6":
        ee6 = request.getfixturevalue("ee6")
        grid, V = ee6["grid"], ee6["V"]
    else:  # no threshold basis: S0 is the plain inverse
        grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 20.0, 200)
        V = potentials.gaussian_well(grid, depth=4.0, width=1.0)
    return lowenergy.build_S0(V, grid, jordan.threshold(V, grid).basis, window=1.0)


#: k of each scenario's window k 2^-30, pinned bit for bit
_WINDOW_K = {"ee_small": 203744668, "ee6": 56658225, "full_ee": 3661144,
             "well": 24196409}


@pytest.mark.parametrize("scenario", ["ee_small", "ee6", "full_ee", "well"])
def test_auto_window_brackets_the_crossing(request, count_calls, scenario):
    reg = _window_reg(request, scenario)
    exact = count_calls(lowenergy, "_step_column_norms")
    w = lowenergy._auto_window(reg)
    assert len(exact) == 1
    assert w == _WINDOW_K[scenario] / 2**30

    def cf(lam):
        return _factor(reg, lam)

    assert w == 1.0 or cf(w) <= 0.5 < cf(w + 2.0**-30)
    assert w == _bisection_window(cf)


@pytest.mark.parametrize("scenario", ["ee_small", "full_ee"])
def test_column_factor_is_the_exact_column_norm_to_its_rounding(request, scenario):
    # the search's one-column factor, with the row of R0(0) X^T formed once
    # for its column, is the exact norm's column to within
    # `_column_rounding`, at the argmax column below, at and above the window
    reg = _window_reg(request, scenario)
    w = lowenergy._auto_window(reg)
    for lam in (w / 2, w, 2 * w):
        norms = lowenergy._step_column_norms(reg, lam)
        j = int(np.argmax(norms))
        r0_row = lowenergy._x_resolvent_column(reg, reg.R0, j)
        factor = lowenergy._column_factor(reg, lam, j, r0_row)
        assert abs(factor - norms[j]) <= lowenergy._column_rounding(reg, j, r0_row)


def test_block_size_keeps_S0_and_moves_the_norms_by_rounding(monkeypatch):
    # on the invert-ee grid, blocks of 8, 24 (the default) and 112 columns
    # give the columns of S0 bit for bit; the exact norms, summed block by
    # block, agree to the rounding of a regrouped sum of positive terms
    # (6 ulp measured)
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, 2.25, 550)
    V, _, _ = potentials.tune_coupling(potentials.exact_eigen(grid), grid)
    basis = jordan.threshold(V, grid).basis
    solvers = [lowenergy.domain_resolvent(grid, lam) for lam in (0.02, 0.05, 0.1, 0.15, 0.2)]
    runs = []
    for block_bytes, count in ((2**17, 23), (2**14, 69), (2**19, 5)):
        monkeypatch.setattr(lowenergy, "BLOCK_BYTES", block_bytes)
        reg = lowenergy.build_S0(V, grid, basis, window=0.25)
        blocks = lowenergy._blocks(grid.size, 8)
        assert len(blocks) == count
        S0 = np.hstack([reg.S0(np.eye(grid.size, J.stop - J.start, -J.start))
                        for J in blocks])
        runs.append((S0, lowenergy._scan_column_norms(reg, solvers)))
    S0, norms = runs[0]
    for other, other_norms in runs[1:]:
        assert np.array_equal(other, S0)
        assert np.all(np.abs(other_norms - norms) <= 1e-14 * norms)


@pytest.mark.parametrize("extent, nodes, lam", [
    (80.0, 400, 2e-4),  # the full-ee grid, a lambda of its scan
    (2.25, 550, 0.02),  # the invert-ee grid, a lambda of its scan
])
def test_step_column_norms_match_a_long_double_difference(extent, nodes, lam):
    # the difference R0(lambda^2) X^T - R0(0) X^T cancels to about
    # lambda^2 L^2 of its terms; against the same difference of the same
    # blocks in long double, the double norms hold to about 3e-9 and 1e-9.
    # The product form lambda^2 R0(lambda^2) R0(0) X^T misses by 8e-8 and
    # 1e-8 there.
    grid = grids.make_grid(grids.Mode.RADIAL_SWAVE, extent, nodes)
    V, _, _ = potentials.tune_coupling(potentials.exact_eigen(grid), grid)
    reg = lowenergy.build_S0(V, grid, jordan.threshold(V, grid).basis, window=1.0)
    d, e = birman.tridiagonal_bs(grid, 0.0)
    w = grid.weights.astype(np.longdouble)
    sums = np.zeros(nodes, np.longdouble)
    for J in lowenergy._blocks(nodes, 8):
        Xt = lowenergy._xt_block(reg, J)
        D = thomas_longdouble(d - lam**2, e, Xt) - thomas_longdouble(d, e, Xt)
        sums += np.abs(D) @ w[J]
    exact = sums / w
    got = lowenergy._step_column_norms(reg, lam)
    assert np.all(np.abs(got - exact) <= 1e-8 * exact)


def _patch_factors(monkeypatch, columns, rounding=0.0):
    """Make the step's column norms the given functions of lambda, for
    `_step_column_norms` and `_column_factor` alike, except that a pair
    (exact, column) gives the two separately, and `_column_rounding` the
    given bound.  Returns a stand-in for the RegularizedInverse, whose grid
    has one node per column, so that columns[-1] is the last column, the
    exact factor max_j exact_j and the lists of the exact and the column
    evaluations."""
    columns = [c if isinstance(c, tuple) else (c, c) for c in columns]
    exact, column = [], []

    def norms(reg, lam):
        exact.append(lam)
        return np.array([c[0](lam) for c in columns])

    def factor(reg, lam, j, r0_row):
        column.append(lam)
        return columns[j][1](lam)

    monkeypatch.setattr(lowenergy, "_step_column_norms", norms)
    monkeypatch.setattr(lowenergy, "_x_resolvent_column", lambda reg, R, j: None)
    monkeypatch.setattr(lowenergy, "_column_factor", factor)
    monkeypatch.setattr(lowenergy, "_column_rounding", lambda reg, j, r0_row: rounding)
    reg = SimpleNamespace(grid=SimpleNamespace(size=len(columns)), R0=None)
    return reg, (lambda lam: max(c[0](lam) for c in columns)), exact, column


def _k_star_exact(lam, k_star=3 * 2**28 + 12345):
    # exactly 1/2 at lambda = k_star 2^-30, above it from the next grid point
    return lam / (2 * (k_star / 2**30))


def _k_star_small(lam):
    # exactly 1/2 at the grid point k_star 2^-30 near 5e-4
    return _k_star_exact(lam, 2**19 + 12345)


@pytest.mark.parametrize("columns, rounding, exact_calls, least, most", [
    # the last column's factor at lambda = 1 is at most 1/2, so the exact
    # norm there is taken, and it is at most 1/2 too: lo = 1
    ([lambda lam: 0.25 * lam], 0.0, 1, 1, 1),
    # concave: hi moves twice in a row and cf(lo) is halved; plain regula
    # falsi takes 58 evaluations here
    ([lambda lam: lam**0.25], 0.0, 1, 2, 16),
    ([lambda lam: float(lam > 0.9)], 0.0, 1, 32, 61),  # a jump: bisection past 30 steps
    # the last column, the argmax at lambda = 1, crosses first, at 0.12
    ([lambda lam: 2.1 * lam, lambda lam: min(1.5, 4.1 * lam)], 0.0, 1, 3, 31),
    # the last column crosses at 0.24, the other one first, at 0.12: the
    # certificate at the first lo fails and the search moves
    ([lambda lam: min(1.5, 4.1 * lam), lambda lam: 2.1 * lam], 0.0, 2, 3, 31),
    # the last column's factor at lambda = 1 is below 1/2 and the other's
    # above: the exact norm at lambda = 1 moves the search to its argmax
    ([lambda lam: 2.1 * lam, lambda lam: 0.25 * lam], 0.0, 2, 3, 31),
    # the column is within rounding of 1/2 at the crossing, where the exact
    # norm is 1/2 itself: that hi is checked by the exact norm, and the
    # search goes on above it
    ([(_k_star_exact, lambda lam: _k_star_exact(lam) + 1e-13)], 0.0, 2, 3, 31),
    # the same below 1e-3, where the column's rounding, which does not
    # shrink with lambda, is far above 1e-12 relative
    ([(_k_star_small, lambda lam: _k_star_small(lam) + 2e-11)], 4e-11, 2, 3, 31),
    # the last column is within rounding above 1/2 at lambda = 1, where the
    # exact norm is 1/2 itself: the exact norm decides, and lo = 1
    ([(lambda lam: 0.5 * lam, lambda lam: 0.5 * lam + 1e-13)], 0.0, 1, 1, 1),
], ids=["below-at-1", "concave", "jump", "last-crosses-first", "argmax-switch",
        "last-below-at-1", "column-rounding", "column-rounding-below-1e-3",
        "column-rounding-at-1"])
def test_auto_window_on_synthetic_factors(
    monkeypatch, columns, rounding, exact_calls, least, most
):
    reg, cf, exact, column = _patch_factors(monkeypatch, columns, rounding)
    lo = lowenergy._auto_window(reg)
    assert len(exact) == exact_calls
    assert least <= len(column) <= most
    assert lo == _bisection_window(cf)
