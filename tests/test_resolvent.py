import numpy as np
import pytest

from oracles import build_R0, kernel_difference_check
from speclab import birman, evolution, grids, resolvent
from speclab.grids import Mode
from speclab.resolvent import Branch


@pytest.fixture(scope="module")
def g():
    return grids.make_grid(Mode.RADIAL_SWAVE, 10.0, 200)


def _kernel(r, rp, lam):
    """G(r, r') = a(r_<) b(r_>) from the generators."""
    a, _ = resolvent.kernel_generators(min(r, rp), lam)
    _, b = resolvent.kernel_generators(max(r, rp), lam)
    return a * b


def test_kernel_at_zero_is_min():
    # reduced s-wave R0(0) kernel is min(r, r')
    assert _kernel(2.0, 3.0, 0.0) == pytest.approx(2.0)
    assert _kernel(3.0, 2.0, 0.0) == pytest.approx(2.0)


def test_kernel_small_lambda_limit():
    # sin(lam r<) e^{i lam r>} / lam -> r< as lam -> 0
    lo = _kernel(2.0, 3.0, 1e-8)
    assert abs(lo - 2.0) < 1e-6


def test_build_R0_at_subnormal_lambda(g):
    # a subnormal lambda takes the lambda = 0 limit instead of inf + nan j
    R = build_R0(g, 1e-310)
    R0 = build_R0(g, 0.0)
    assert np.isfinite(R).all()
    assert np.abs(R - R0).max() <= 1e-9 * np.abs(R0).max()


def test_kernel_symmetric(g):
    R0 = build_R0(g, 0.7)
    assert np.abs(R0 - R0.T).max() == 0.0


def test_H0_inverts_R0_at_zero(g):
    # the sampled zero-energy kernel is the exact Green function of the
    # discrete Laplacian (Dirichlet ghost at 0, Neumann ghost at L)
    H0 = evolution.discretize_H(birman.sample_potential("free", g, np.zeros_like), g)
    R0 = build_R0(g, 0.0)
    eye = H0 @ R0
    assert np.abs(eye - np.eye(g.size)).max() < 1e-10


def test_minus_branch_is_conjugate(g):
    Rp = build_R0(g, 0.9)
    Rm = build_R0(g, 0.9, Branch.MINUS)
    assert np.abs(Rm - np.conj(Rp)).max() < 1e-14


def test_negative_lambda_rides_conjugate_branch(g):
    Rp = build_R0(g, -0.9)
    Rm = build_R0(g, 0.9, Branch.MINUS)
    assert np.abs(Rp - Rm).max() < 1e-14


def test_kernel_difference_growth_rate(g):
    out = kernel_difference_check(
        g, [0.02, 0.05, 0.1, 0.2, 0.4], mu=0.0, p=1.4
    )
    assert out["ok"]
    assert out["fitted_exponent"] >= out["predicted_exponent"] - 0.15
