import numpy as np
import pytest

from speclab import birman, grids, lowenergy
from speclab.grids import GridFunction


def _rand_f(grid, rng):
    return GridFunction(
        grid, rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    )


def test_domain_resolvent_inverts_H(ee6):
    from speclab import evolution

    g = ee6["grid"]
    lam = 0.1
    H0 = evolution.discretize_H(None, g)
    R = lowenergy.domain_resolvent(g, lam)
    eye = (H0 - lam**2 * np.eye(g.size)) @ R
    assert np.abs(eye - np.eye(g.size)).max() < 1e-10


def test_domain_resolvent_cache_is_bounded():
    g = grids.make_grid(grids.Mode.RADIAL_SWAVE, 2.0, 16)
    size = lowenergy._DOMAIN_RESOLVENT_CACHE_SIZE
    lams = [0.01 * k for k in range(1, size + 4)]
    for lam in lams:
        lowenergy.domain_resolvent(g, lam)
        # the oldest entry stays cached while it keeps being used
        lowenergy.domain_resolvent(g, lams[0])
    cache = lowenergy._DOMAIN_RESOLVENT_CACHE
    assert len(cache) <= size
    assert (g.mode, g.extent, g.size, lams[0]) in cache
    assert (g.mode, g.extent, g.size, lams[1]) not in cache
    for R in cache.values():
        assert isinstance(R, np.ndarray) and not R.flags.writeable


def test_s0_one_sided_inverse(ee_small):
    assert lowenergy.one_sided_residual(ee_small["reg"], 0.0) < 1e-9


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
        rc = max(r["rel"] for r in lowenergy.chain_identity_residual(V, g, jb, lam))
        rt = max(r["rel"] for r in lowenergy.telescope_residual(V, g, jb, lam))
        re_ = max(r["scaled"] for r in lowenergy.exact_inverse_residual(V, g, jb, lam))
        assert rc < 1e-9 and rt < 1e-9 and re_ < 1e-9


def test_exact_inverse_rejects_lambda_zero(ee_small):
    with pytest.raises(ValueError):
        lowenergy.exact_inverse_residual(
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
