import numpy as np
import pytest

from speclab import birman, potentials
from speclab.grids import GridFunction, operator_l1_norm


def test_potential_spec_validates_exponents(grid20):
    with pytest.raises(ValueError):
        birman.PotentialSpec("bad", GridFunction(grid20, np.zeros(grid20.size)),
                             p=1.6, q=2.0)


def test_epsilon_at_default_exponents(well20):
    # min(3/p - 2, 2 - 3/q) at (1.4, 2.0) is 1/7
    assert well20.epsilon == pytest.approx(1.0 / 7.0)


def test_zero_potential_gives_identity(grid20):
    V = potentials.gaussian_well(grid20, depth=0.0)
    A = birman.build_bs(V, grid20, 0.8)
    assert np.abs(A - np.eye(grid20.size)).max() < 1e-15


def test_direct_inverse_roundtrip(grid20, well20):
    A = birman.build_bs(well20, grid20, 0.8)
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
        birman.bs_inverse(tuned, grid20, 0.0)


def test_high_energy_norms_decay(grid20, well20):
    out = birman.high_energy_norm_scan(well20, grid20, [1.0, 4.0, 16.0])
    norms = out["norms"]
    assert norms[1] < norms[0] and norms[2] < norms[1]
    assert out["lambda1"] is not None


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
    oracle = birman.bs_inverse(well20, grid20, 2.01)
    diff = op - oracle
    assert operator_l1_norm(diff, grid20) / operator_l1_norm(oracle, grid20) < 1e-10


def test_local_neumann_rejects_wide_window(grid20, well20):
    with pytest.raises(birman.NoContractionError):
        birman.local_neumann_inverse(well20, grid20, 1.0, 0.2, 1.15)
