import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from speclab import birman, evolution, grids, jordan, lowenergy, potentials
from speclab.grids import GridFunction


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


def test_s0_range_constraint(ee_small):
    assert lowenergy.range_constraint_residual(ee_small["reg"]) < 1e-9


def test_series_continuation_one_sided(ee_small):
    for lam in (0.03, 0.1, 0.2):
        assert lowenergy.one_sided_residual(ee_small["reg"], lam) < 1e-9


def test_contraction_factor_grows_with_lambda(ee_small):
    reg = ee_small["reg"]
    f1 = lowenergy.contraction_factor(reg, 0.03)
    f2 = lowenergy.contraction_factor(reg, 0.2)
    assert f1 < f2 < 1.0


def test_series_rejected_outside_window(ee_small):
    with pytest.raises(ValueError):
        lowenergy.build_S_lambda(ee_small["reg"], 0.5)


def test_series_refuses_to_run_out_of_terms(ee_small):
    with pytest.raises(birman.SeriesNotConvergedError):
        lowenergy.build_S_lambda(ee_small["reg"], 0.1, max_terms=1)


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
    f_adm = lowenergy.admissible_part(f_gen, reg.basis)
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
