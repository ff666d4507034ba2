import tracemalloc

import numpy as np
import pytest

from oracles import dlambda_kernel_check, out_of_place_transform
from speclab import birman, ftdiag, grids, potentials
from speclab.grids import Mode


@pytest.fixture(scope="module")
def g():
    return grids.make_grid(Mode.RADIAL_SWAVE, 10.0, 150)


def test_lambda_grid_symmetric_offset():
    lams, delta = ftdiag.lambda_grid(256, 8.0)
    assert len(lams) == 256
    assert np.abs(lams + lams[::-1]).max() < 1e-12  # symmetric about 0
    assert np.abs(lams).min() == pytest.approx(delta / 2.0)  # avoids 0
    with pytest.raises(ValueError):
        ftdiag.lambda_grid(255, 8.0)


def test_window_partition_is_exact():
    lams, _ = ftdiag.lambda_grid(128, 8.0)
    cuts = ftdiag.window_cutoffs(lams, 1.0, 0.25)
    total = cuts["LOW"] + cuts["MID"] + cuts["HIGH"]
    assert np.abs(total - 1.0).max() < 1e-14


def test_transform_concentrates_pure_phase():
    # Parseval sanity: transform of e^{i a lambda} chi(lambda) concentrates
    # at rho = a
    # lam_max = 2 exactly contains supp(chi), so the resolution unit is
    # comparable to the width of chi_hat and the 4-unit window holds its mass
    n, lam_max, a = 128, 2.0, 3.0
    lams, delta = ftdiag.lambda_grid(n, lam_max)
    from speclab.birman import smooth_cutoff

    samples = (np.exp(1j * a * lams) * smooth_cutoff(lams))[:, None]
    rho, order = ftdiag._transform(samples, lams, delta)
    mass = np.abs(samples[order, 0])
    res = 2.0 * np.pi / (n * delta)
    near = np.abs(rho - a) <= 4.0 * res
    assert mass[near].sum() / mass.sum() > 0.9
    assert abs(rho[np.argmax(mass)] - a) <= res


def test_free_total_is_cutoff_transform(g):
    # T = I for V = 0, so the scan total is ||chi_hat||_1 ||f||_1
    f = grids.gaussian_bump(g)
    V = potentials.gaussian_well(g, depth=0.0)
    params = {"n": 256, "lam_max": 8.0, "lambda1": 1.0, "r": 0.25}
    scan = ftdiag.t_hat_l1_scan(V, g, f, "LOW", params)
    # LOW cutoff is chi(lambda / r) with r = 0.25 by default
    got = scan.total / grids.lp_norm(f, 1)
    assert got == pytest.approx(ftdiag.chi_hat_l1(0.25, n=256, lam_max=8.0), rel=1e-4)


def test_real_scan_mirrors_the_negative_lambdas(g, monkeypatch, count_calls):
    # real samples and a real f: T(-lambda) f = conj T(lambda) f, so half
    # the solves give the bits of the scan that solves every lambda, as
    # complex samples still do
    f = grids.gaussian_bump(g)
    V = potentials.gaussian_well(g, depth=2.0, width=1.0)
    params = {"n": 128, "lam_max": 8.0, "lambda1": 1.0, "r": 0.25}
    solves = count_calls(birman, "bs_solve")
    mirrored = ftdiag.t_hat_l1_scan(V, g, f, "HIGH", params)
    half = len(solves)
    monkeypatch.setattr(birman, "_samples", lambda V: V.values.values)
    full = ftdiag.t_hat_l1_scan(V, g, f, "HIGH", params)
    assert 2 * half == len(solves) - half == 112
    assert full.total == mirrored.total
    assert np.array_equal(full.profile, mirrored.profile)


def test_scan_transforms_one_array_in_place(monkeypatch):
    # on the full-ee grid the scan's arrays peak at about 1.5 copies of its
    # n x M samples (the samples, transformed in place, and their moduli),
    # and its profile and total are those of the out-of-place transform
    grid = grids.make_grid(Mode.RADIAL_SWAVE, 80.0, 400)
    V, _, _ = potentials.tune_coupling(potentials.exact_eigen(grid, s=2.0), grid)
    f = grids.gaussian_bump(grid)
    params = {"n": 128, "lam_max": 8.0, "lambda1": 1.0, "r": 0.25}
    tracemalloc.start()
    try:
        scan = ftdiag.t_hat_l1_scan(V, grid, f, "HIGH", params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * params["n"] * grid.size * 16
    seen = []
    transform = ftdiag._transform

    def keep(samples, lams, delta):
        seen.append(samples.copy())
        return transform(samples, lams, delta)

    monkeypatch.setattr(ftdiag, "_transform", keep)
    assert ftdiag.t_hat_l1_scan(V, grid, f, "HIGH", params).total == scan.total
    rho, hat = out_of_place_transform(seen[0], scan.lambdas, scan.delta_lambda)
    profile = np.abs(hat) @ grid.weights
    assert np.array_equal(scan.rho, rho)
    assert np.array_equal(scan.profile, profile)
    assert scan.total == float(np.sum(profile) * (rho[1] - rho[0]))


def test_dlambda_kernel_modulus():
    # the closed form (16 pi i t)^{-1/2} e^{i (rho - d)^2 / 4t}: transform
    # modulus is (16 pi |t|)^{-1/2} uniformly in (rho, d)
    for t in (1.0, 4.0):
        assert dlambda_kernel_check(t) < 0.02


def test_vb_hat_scales_in_r_and_V(g):
    V = potentials.gaussian_well(g, depth=4.0, width=1.0)
    out = ftdiag.vb_hat_bound_check(V, g, 0.5, halvings=4)
    eps = V.epsilon
    assert out["fitted_exponent"] >= eps - 0.1
    V2 = potentials.gaussian_well(g, depth=8.0, width=1.0)
    out2 = ftdiag.vb_hat_bound_check(V2, g, 0.5, halvings=1)
    ratio = out2["values"][0] / out["values"][0]
    assert ratio == pytest.approx(2.0, rel=0.05)


def test_scan_csv_and_json(tmp_path, g):
    f = grids.gaussian_bump(g)
    V = potentials.gaussian_well(g, depth=2.0)
    params = {"n": 128, "lam_max": 8.0, "lambda1": 1.0, "r": 0.25}
    scan = ftdiag.t_hat_l1_scan(V, g, f, "HIGH", params)
    path = tmp_path / "scan.csv"
    scan.to_csv(str(path))
    assert path.read_text().splitlines()[0] == "rho,l1_profile"
    assert scan.window == "HIGH"
    assert scan.verdict in ("OK", "DIVERGENT")


def _box_bands(grid, lam):
    """The bands of H0 - lambda^2, whose inverse is the box family
    `lowenergy.domain_resolvent`."""
    d, e = birman.tridiagonal_bs(grid, 0.0)
    return d - lam**2, e


def _inverse_slope(V, grid, lams, bands):
    """The log-log slope in lambda of the weighted L^1 norm of
    T(lambda)^{-1} f = A (A + V)^{-1} f, A = tridiag(bands(grid, lambda))
    the inverse of the family's R0(lambda^2), for one seeded complex f."""
    rng = np.random.default_rng(17)
    f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
    v = birman._samples(V)
    norms = []
    for lam in lams:
        d, e = bands(grid, lam)
        x = birman._tridiagonal_apply(d, e, birman._tridiagonal_solver(d + v, e)(f))
        norms.append(grid.weights @ np.abs(x))
    return np.polyfit(np.log(lams), np.log(norms), 1)[0]


def test_the_nystrom_family_does_not_see_a_jordan_chain(chain_fixture20):
    # T(lambda)^{-1} is singular like lambda^{-2K} at a chain of length K.
    # The box family shows K = 1 on the tuned eigenvalue and K = 2 on the
    # chain potential.  The Nystrom family T_lambda of tridiagonal_bs, which
    # the transform scan uses, is H0 - lambda^2 M + O(lambda^4) with the
    # consistent mass matrix M = tridiag(1/6, 2/3, 1/6) in place of the
    # identity, and shows K = 1 on both: the chain's eigenvector psi_1 is
    # isotropic under the identity but not under M
    g6 = grids.make_grid(Mode.RADIAL_SWAVE, 6.0, 300)
    V6, _, _ = potentials.tune_coupling(potentials.exact_eigen(g6, s=4.0), g6)
    cases = (
        (V6, g6, np.geomspace(1e-4, 0.03, 8), -2.0, -2.0),
        (chain_fixture20["V"], chain_fixture20["grid"], np.geomspace(3e-3, 0.1, 8),
         -4.0, -2.0),
    )
    for V, grid, lams, box, nystrom in cases:
        assert abs(_inverse_slope(V, grid, lams, _box_bands) - box) <= 0.05
        assert abs(_inverse_slope(V, grid, lams, birman.tridiagonal_bs) - nystrom) <= 0.05
    psi = chain_fixture20["basis"].chains[0][:, 0]
    norm2 = np.vdot(psi, psi).real
    mass_psi = birman._tridiagonal_apply(
        np.full(psi.size, 2.0 / 3.0), np.full(psi.size - 1, 1.0 / 6.0), psi
    )
    assert abs(psi @ psi) <= 1e-13 * norm2  # 3e-15 measured
    assert abs(abs(psi @ mass_psi) / norm2 - 0.0353) <= 5e-4
