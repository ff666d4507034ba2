import numpy as np
import pytest

from speclab import grids
from speclab.grids import GridFunction, GridMismatchError, Mode, operator_l1_norm


def test_radial_grid_geometry():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 10.0, 100)
    assert g.size == 100
    assert g.spacing == pytest.approx(0.1)
    # midpoint nodes
    assert g.nodes[0] == pytest.approx(0.05)
    assert g.nodes[-1] == pytest.approx(9.95)
    # working weights cover the interval exactly
    assert g.weights.sum() == pytest.approx(10.0)


def test_volume_weights_integrate_ball():
    # integral of 1 over the ball of radius L is (4/3) pi L^3; the midpoint
    # shell rule reproduces it to second order
    g = grids.make_grid(Mode.RADIAL_SWAVE, 10.0, 400)
    vol = g.volume_weights.sum()
    exact = 4.0 / 3.0 * np.pi * 10.0**3
    assert abs(vol - exact) / exact < 1e-4


def test_profile_l1_norm_is_3d_integral():
    # radial mode stores u = r psi; the L^1 profile norm must weight by
    # 4 pi r^2 dr against psi = u / r
    g = grids.make_grid(Mode.RADIAL_SWAVE, 30.0, 600)
    psi = np.exp(-g.nodes**2)
    f = GridFunction(g, g.nodes * psi)
    exact = 4.0 * np.pi * 0.25 * np.sqrt(np.pi)  # int |e^{-r^2}| d^3x
    assert grids.profile_lp_norm(f, 1) == pytest.approx(exact, rel=1e-6)


def test_bilinear_pair_is_unconjugated():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 5.0, 50)
    f = GridFunction(g, 1j * np.ones(g.size))
    assert grids.bilinear_pair(f, f) == pytest.approx(-5.0)


def test_grid_mismatch_rejected():
    a = grids.make_grid(Mode.RADIAL_SWAVE, 5.0, 50)
    b = grids.make_grid(Mode.RADIAL_SWAVE, 5.0, 60)
    with pytest.raises(GridMismatchError):
        grids.bilinear_pair(
            GridFunction(a, np.ones(a.size)), GridFunction(b, np.ones(b.size))
        )


def test_operator_l1_norm_matches_brute_force():
    rng = np.random.default_rng(0)
    g = grids.make_grid(Mode.RADIAL_SWAVE, 5.0, 40)
    M = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    norm = operator_l1_norm(M, g)
    # brute force: maximize ||A f||_1 / ||f||_1 over weighted basis vectors
    brute = 0.0
    for j in range(40):
        f = GridFunction(g, np.eye(40)[j])
        Af = GridFunction(g, M @ f.values)
        brute = max(brute, grids.lp_norm(Af, 1) / grids.lp_norm(f, 1))
    assert norm == pytest.approx(brute, rel=1e-12)


def test_wrapping_leaves_caller_array_writable():
    g = grids.make_grid(Mode.RADIAL_SWAVE, 5.0, 10)
    a = np.arange(10, dtype=complex)
    f = GridFunction(g, a)
    assert a.flags.writeable
    a[0] = 7.0
    assert f.values[0] == 0.0
    assert not f.values.flags.writeable
