"""Acceptance suite: the ten end-to-end criteria, one test each.

These run the frozen flagship scenarios at their stated tolerances.  The
interior-eigenvalue scenario (criterion 2) is the largest, a 1600-node
domain: the coupling tuning and the banded threshold, then two decay scans
of ten propagator steps (about 1.2 s on 2 cores).
"""

import numpy as np
import pytest

from nilpotent import nilpotent_fixture
from oracles import bs_matrix, build_bs, direct_inverse, free_evolution_radial
from speclab import birman, evolution, ftdiag, grids, jordan, lowenergy, potentials
from speclab.grids import GridFunction, Mode


# ---------------------------------------------------------------------------
# Shared expensive scenario: tuned zero-energy eigenvalue on the wide domain


@pytest.fixture(scope="module")
def ee80():
    """Tuned exact-eigenvalue scenario, wide enough that boundary
    reflections stay clear of the decay-fit window."""
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 80.0, 1600)
    tuned, c, info = potentials.tune_coupling(
        potentials.exact_eigen(grid, s=2.0), grid
    )
    basis = jordan.threshold(tuned, grid).basis
    return {"grid": grid, "V": tuned, "basis": basis}


# 1. Free dispersive law -----------------------------------------------------


def test_criterion_01_free_dispersive_law():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 40.0, 800)
    f = grids.gaussian_bump(g)
    times = np.linspace(2.0, 6.4, 10)
    free = birman.sample_potential("free", g, np.zeros_like)
    plan = evolution.make_plan(free, g, times, k_max=2.5, T_fit_min=2.0)
    report = evolution.dispersive_scan(plan, f)
    assert abs(report["exponent"] + 1.5) < 0.1
    # pointwise agreement with the analytic Gaussian kernel at t = 2
    numeric = evolution.propagate(evolution.make_plan(free, g, [2.0]), f)[0]
    analytic = free_evolution_radial(g, f, 2.0)
    mask = g.nodes <= 10.0
    pn = grids.profile_values(numeric)[mask]
    pa = grids.profile_values(analytic)[mask]
    assert np.abs(pn - pa).max() / np.abs(pa).max() < 0.02


# 2. Dispersive bound with a zero-energy eigenvalue --------------------------


def test_criterion_02_projected_dispersive_bound(ee80):
    g, V = ee80["grid"], ee80["V"]
    f = grids.gaussian_bump(g)
    # effective wavenumber content includes the barrier-enhanced modes near
    # lambda ~ 4, so the reflection horizon uses k_max = 4
    times = np.linspace(2.5, 8.0, 10)
    plan = evolution.make_plan(V, g, times, k_max=4.0, T_fit_min=2.5)
    unprojected = evolution.dispersive_scan(plan, f)
    assert unprojected["exponent"] >= -0.2
    P = jordan.build_Ppp(V, g, basis=ee80["basis"])
    projected = evolution.dispersive_scan(plan, f, P)
    assert abs(projected["exponent"] + 1.5) < 0.15


# 3. Low-energy inverse formula vs dense oracle ------------------------------


def _low_energy_exponents(reg, lambdas, rng):
    """The low-energy scan of criterion 3 on admissible data (I - P0) f and
    a generic bump: the ratio max / last of the admissible norms, and the
    log-log slope of the generic ones."""
    g = reg.grid
    f = GridFunction(g, rng.standard_normal(g.size).astype(complex))
    f_adm = GridFunction(
        g, grids.apply_complement(jordan.build_P0(reg.basis, g), f.values)
    )
    f_gen = grids.gaussian_bump(g, width=0.5)
    rows = lowenergy.low_energy_scan(reg, lambdas, f_adm, f_gen)
    adm = np.array([r["norm_admissible_f"] for r in rows])
    gen = np.array([r["norm_generic_f"] for r in rows])
    return adm.max() / adm[-1], np.polyfit(np.log(lambdas), np.log(gen), 1)[0]


def test_criterion_03_inverse_formula_oracle(ee_small, chain_fixture20):
    g, V, reg = ee_small["grid"], ee_small["V"], ee_small["reg"]
    rng = np.random.default_rng(0)
    for lam in (0.03, 0.1, 0.2):
        T = bs_matrix(V, g, lam)
        for _ in range(20):
            f = GridFunction(
                g, rng.standard_normal(g.size) + 1j * rng.standard_normal(g.size)
            )
            out, _ = lowenergy.inverse_via_formula(reg, lam, f)
            oracle = np.linalg.solve(T, f.values)
            rel = grids.lp_norm(GridFunction(g, out.values - oracle), 1)
            rel /= grids.lp_norm(GridFunction(g, oracle), 1)
            assert rel <= 1e-6
    # lambda-scan: bounded for admissible f, -2K slope for generic f; the
    # chain potential scans its automatic window w, with K = 2
    w = chain_fixture20["reg"].window
    for sc, lambdas in ((ee_small, np.geomspace(0.02, 0.2, 8)),
                        (chain_fixture20, np.geomspace(w / 10, w, 6))):
        ratio, slope = _low_energy_exponents(sc["reg"], lambdas, rng)
        assert ratio <= 3.0
        assert abs(slope + 2.0 * max(sc["basis"].multiplicities)) < 0.2
    assert max(chain_fixture20["basis"].multiplicities) == 2
    # S(lambda) stays a one-sided inverse inside that window; no dense
    # oracle at K = 2: I + V R0(lambda^2) has condition 1e15-5e17 there
    assert lowenergy.one_sided(chain_fixture20["reg"], w / 2)[0] <= 1e-9


# 4. Dual-basis certificate on random nilpotent fixtures ---------------------


def test_criterion_04_dual_basis_certificate():
    # hand-solved 2x2 block: exact to round-off
    N = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    jb = jordan.jordan_dual_basis(N, B)
    cert = jb.pairing_certificate - jordan.expected_gram(jb.multiplicities)
    assert np.abs(cert).max() == 0.0
    rng = np.random.default_rng(7)
    for _ in range(100):
        n_chains = int(rng.integers(1, 4))
        lengths = sorted(rng.integers(1, 7, size=n_chains).tolist(), reverse=True)
        while sum(lengths) > 20:
            lengths = lengths[:-1]
        spec = {}
        for k in lengths:
            spec[k] = spec.get(k, 0) + 1
        N = nilpotent_fixture(spec, rng=rng)
        jb = jordan.jordan_dual_basis(N)
        assert jb.multiplicities == spec
        cert = jb.pairing_certificate - jordan.expected_gram(jb.multiplicities)
        assert np.abs(cert).max() < 1e-9
        for C in jb.chains:
            for j in range(C.shape[1]):
                tgt = C[:, j - 1] if j > 0 else np.zeros_like(C[:, j])
                assert np.abs(N @ C[:, j] - tgt).max() < 1e-9


# 5. Projection algebra -------------------------------------------------------


def test_criterion_05_projection_algebra(ee6):
    g, jb = ee6["grid"], ee6["basis"]
    (U0, W0), (Ut, Wt) = jordan.build_P0(jb, g), jordan.build_Ptilde0(jb, g)
    P0, Pt = U0 @ W0.T, Ut @ Wt.T
    Qt = np.eye(g.size) - Pt
    assert np.abs(P0 @ P0 - P0).max() < 1e-10
    assert np.abs(Pt @ Pt - Pt).max() < 1e-10
    assert np.abs(Qt @ Pt).max() < 1e-10
    H = evolution.discretize_H(ee6["V"], g)
    comm = H @ P0 - P0 @ H
    assert np.abs(comm @ P0).max() < 1e-6
    assert np.abs(P0 @ comm).max() < 1e-6
    # cluster projectors are mutually annihilating
    g2 = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 400)
    V2 = potentials.gaussian_well(g2, depth=12.0, width=2.0)
    H2 = evolution.discretize_H(V2, g2)
    ev = np.linalg.eigvals(H2)
    pts = np.sort_complex(ev[ev.real < -0.05])
    assert len(pts) == 2
    Ps = [U @ W.T for U, W in (jordan._riesz_projector(H2, z, 1e-6) for z in pts)]
    assert np.abs(Ps[0] @ Ps[1]).max() < 1e-10
    assert np.abs(Ps[1] @ Ps[0]).max() < 1e-10


# 6. Regularized-inverse identity suite ---------------------------------------


def test_criterion_06_identity_suite(ee_small, chain_fixture20):
    scenarios = [
        (ee_small["V"], ee_small["grid"], ee_small["basis"], ee_small["reg"],
         (0.03, 0.1, 0.2)),
        (chain_fixture20["V"], chain_fixture20["grid"], chain_fixture20["basis"],
         chain_fixture20["reg"], (0.002, 0.005, 0.02)),
    ]
    for V, g, basis, reg, lambdas in scenarios:
        one_sided_S0, range_constraint = lowenergy.one_sided(reg, 0.0)
        assert one_sided_S0 <= 1e-9
        assert range_constraint <= 1e-9
        for lam in lambdas:
            resid = lowenergy.identity_residuals(
                V, g, basis, lam, lowenergy.domain_resolvent(g, lam)
            )
            assert resid["resid_chain"] <= 1e-6
            assert resid["resid_telescope"] <= 1e-6
            assert resid["resid_exactinv"] <= 1e-6


# 7. Localized Neumann mechanism ----------------------------------------------


def test_criterion_07_local_neumann_and_transform_bound(grid20, well20):
    g, V = grid20, well20
    checked = 0
    for lam0 in (1.0, 2.0, 4.0, 8.0):
        lam = lam0 + 0.01
        try:
            op, factor = birman.local_neumann_inverse(V, g, lam0, 0.015, lam)
        except birman.NoContractionError:
            continue
        assert factor < 1.0
        dense, _ = direct_inverse(build_bs(V, g, lam))
        scale = np.abs(dense).max()
        assert np.abs(op - dense).max() / scale <= 1e-8
        checked += 1
    assert checked >= 3
    # measured transform-bound constant: r-scaling and ||V||-linearity
    out = ftdiag.vb_hat_bound_check(V, g, 0.5, halvings=4)
    assert out["fitted_exponent"] >= out["epsilon"] - 0.1
    V2 = potentials.gaussian_well(g, depth=8.0, width=1.0)
    out2 = ftdiag.vb_hat_bound_check(V2, g, 0.5, halvings=1)
    ratio = out2["values"][0] / out["values"][0]
    assert abs(ratio - 2.0) < 0.1


# 8. High-energy decay and uniform invertibility -------------------------------


def test_criterion_08_high_energy(grid20, well20):
    scan = birman.high_energy_norm_scan(well20, grid20, [1.0, 16.0])
    assert scan["norms"][1] <= 0.5 * scan["norms"][0]
    unif = birman.uniform_inverse_scan(well20, grid20, np.geomspace(0.5, 16.0, 25))
    assert np.isfinite(unif["sup"])


# 9. Low-window transform dichotomy --------------------------------------------


def test_criterion_09_transform_dichotomy(ee6):
    g = grids.make_grid(Mode.RADIAL_SWAVE, 6.0, 300)
    tuned, _, _ = potentials.tune_coupling(potentials.exact_eigen(g, s=4.0), g)
    jb = jordan.threshold(tuned, g).basis
    P0 = jordan.build_P0(jb, g)
    rng = np.random.default_rng(3)
    f = GridFunction(g, rng.standard_normal(g.size).astype(complex))
    fperp = GridFunction(g, grids.apply_complement(P0, f.values))
    perp_totals, gen_totals = [], []
    for n in (128, 256, 512):
        params = {"n": n, "lam_max": 8.0, "lambda1": 1.0, "r": 0.25}
        perp_totals.append(ftdiag.t_hat_l1_scan(tuned, g, fperp, "LOW", params).total)
        gen_totals.append(ftdiag.t_hat_l1_scan(tuned, g, f, "LOW", params).total)
    for a, b in zip(perp_totals, perp_totals[1:]):
        assert abs(b - a) / a <= 0.10
    for a, b in zip(gen_totals, gen_totals[1:]):
        assert b > 1.5 * a
    # K2 kernel bounds: R0 variant O(1) against its quadrature bound, B0
    # variant O(r) with fitted slope >= 0.9
    radii = [0.25, 0.125, 0.0625, 0.03125]
    b0 = []
    for r in radii:
        rows = ftdiag.k2_bound_check(ee6["grid"], ee6["basis"], r)
        for row in rows:
            assert row["r0_variant"] <= 1.05 * row["r0_quadrature_bound"]
        b0.append(rows[0]["b0_variant"])
    slope = np.polyfit(np.log(radii), np.log(b0), 1)[0]
    assert slope >= 0.9


# 10. L2 contrast for a complex eigenvalue --------------------------------------


def test_criterion_10_complex_l2_contrast():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 400)
    base = potentials.gaussian_well(g, depth=5.0, width=1.0)
    V = potentials.complex_perturbed(g, base=base, gamma=1.5, width=1.0)
    P = jordan.build_Ppp(V, g, delta_im=0.3)
    f = grids.gaussian_bump(g)
    plan = evolution.make_plan(V, g, np.linspace(0.0, 6.0, 13), k_max=1.25)
    base = grids.profile_lp_norm(f, 2)

    def ratio_sup(data):
        # sup over t of ||e^{-itH} data||_2 / ||f||_2, as 3-D profile norms
        states = evolution.propagate(plan, data)
        return max(grids.profile_lp_norm(st, 2) for st in states) / base

    assert ratio_sup(f) >= 10.0
    assert ratio_sup(GridFunction(g, grids.apply_complement(P, f.values))) <= 3.0
