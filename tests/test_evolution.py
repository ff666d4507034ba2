import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import free_evolution_radial
from speclab import birman, evolution, grids, jordan, potentials
from speclab.grids import GridFunction, Mode


@pytest.fixture(scope="module")
def g200():
    return grids.make_grid(Mode.RADIAL_SWAVE, 20.0, 200)


@pytest.fixture(scope="module")
def free200(g200):
    return birman.sample_potential("free", g200, np.zeros_like)


def test_free_spectrum(g200, free200):
    # Dirichlet ghost at 0, Neumann ghost at L: eigenvalues ((n+1/2) pi / L)^2
    H0 = evolution.discretize_H(free200, g200)
    ev = np.sort(np.linalg.eigvalsh(H0.real))[:5]
    exact = ((np.arange(5) + 0.5) * np.pi / 20.0) ** 2
    assert (np.abs(ev - exact) / exact).max() < 1e-2


def test_H_complex_symmetric(g200):
    V = potentials.complex_perturbed(
        g200, base=potentials.gaussian_well(g200, depth=2.0), gamma=0.4
    )
    H = evolution.discretize_H(V, g200)
    assert np.abs(H - H.T).max() == 0.0


def test_propagate_t0_is_identity(g200, free200):
    f = grids.gaussian_bump(g200)
    plan = evolution.make_plan(free200, g200, [0.0, 1.0])
    out = evolution.propagate(plan, f)
    assert np.abs(out[0].values - f.values).max() < 1e-12


def test_unitarity_for_hermitian(g200):
    V = potentials.gaussian_well(g200, depth=4.0)
    f = grids.gaussian_bump(g200)
    plan = evolution.make_plan(V, g200, [1.0, 2.0, 3.0])
    n0 = grids.profile_lp_norm(f, 2)
    for st in evolution.propagate(plan, f):
        assert abs(grids.profile_lp_norm(st, 2) - n0) < 1e-8


def test_group_property(g200):
    V = potentials.gaussian_well(g200, depth=4.0)
    f = grids.gaussian_bump(g200)
    sts = evolution.propagate(evolution.make_plan(V, g200, [1.0, 2.0, 3.0]), f)
    hop = evolution.propagate(
        evolution.make_plan(V, g200, [2.0]), GridFunction(g200, sts[0].values)
    )[0]
    scale = np.abs(sts[2].values).max()
    assert np.abs(hop.values - sts[2].values).max() / scale < 1e-9


def _tridiagonal_cases(g):
    return {
        "free": birman.sample_potential("free", g, np.zeros_like),
        "well": potentials.gaussian_well(g, depth=4.0),
        "complex": potentials.complex_perturbed(
            g, base=potentials.gaussian_well(g, depth=5.0), gamma=1.5
        ),
    }


@pytest.mark.parametrize("case", ["free", "well", "complex"])
def test_tridiagonal_path_matches_dense_expm(g200, case):
    # the Pade path against a dense expm of the whole time
    V = _tridiagonal_cases(g200)[case]
    f = grids.gaussian_bump(g200)
    times = [0.5, 1.5, 4.0]
    plan = evolution.make_plan(V, g200, times)
    scale = np.abs(f.values).max()
    for st, t in zip(evolution.propagate(plan, f), times):
        dense = sla.expm(-1j * t * evolution.discretize_H(V, g200)) @ f.values
        assert np.abs(st.values - dense).max() <= 1e-10 * scale


def test_tridiagonal_path_matches_eigh_tridiagonal():
    # real samples on the full_exact_eigen grid (L = 80, M = 1600) against
    # the exact propagator Q e^{-itE} Q^T of eigh_tridiagonal
    g = grids.make_grid(Mode.RADIAL_SWAVE, 80.0, 1600)
    V = potentials.gaussian_well(g, depth=4.0)
    f = grids.gaussian_bump(g)
    times = np.linspace(2.5, 8.0, 10)
    states = evolution.propagate(evolution.make_plan(V, g, times), f)
    d, e = birman.hamiltonian(V, g)
    assert not np.iscomplexobj(d)
    E, Q = sla.eigh_tridiagonal(d, e)
    coef = Q.T @ f.values
    scale = np.abs(f.values).max()
    for st, t in zip(states, times):
        exact = Q @ (np.exp(-1j * t * E) * coef)
        assert np.abs(st.values - exact).max() <= 1e-11 * scale


# Rough (i.i.d.) samples make the state rough: step doubling then resolves
# all of H, about dt ||H||_1 / 8 substeps, so the draws keep ||H||_1 small.
@settings(max_examples=30)
@given(
    nodes=st.integers(8, 300),
    extent=st.floats(10.0, 40.0),
    kind=st.sampled_from(["iid", "well"]),
    complex_samples=st.booleans(),
    steps=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_pade_path_matches_dense_expm(nodes, extent, kind, complex_samples, steps, seed):
    # the draws of `steps` are the (unequal) output intervals
    g = grids.make_grid(Mode.RADIAL_SWAVE, extent, nodes)
    rng = np.random.default_rng(seed)
    if kind == "iid":
        v = rng.uniform(-10.0, 10.0, nodes) + 1j * rng.uniform(-2.0, 2.0, nodes)
    else:
        depth, width = rng.uniform(-10.0, 10.0), rng.uniform(0.3, 3.0)
        v = depth * np.exp(-((g.nodes / width) ** 2)) * (1 + 1j * rng.uniform(-0.5, 0.5))
    if not complex_samples:
        v = v.real
    V = birman.PotentialSpec("random", GridFunction(g, v))
    f = grids.gaussian_bump(g, width=rng.uniform(0.5, 2.0))
    times = np.cumsum(steps)
    H = evolution.discretize_H(V, g)
    for state, t in zip(evolution.propagate(evolution.make_plan(V, g, times), f), times):
        dense = sla.expm(-1j * t * H) @ f.values
        assert np.abs(state.values - dense).max() <= 1e-10 * np.abs(dense).max()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tridiagonal_path_rejects_non_finite_samples(g200, bad):
    v = np.zeros(g200.size)
    v[5] = bad
    V = birman.PotentialSpec("bad", GridFunction(g200, v))
    plan = evolution.make_plan(V, g200, [1.0])
    with pytest.raises(ValueError, match="non-finite"):
        evolution.propagate(plan, grids.gaussian_bump(g200))


def test_tridiagonal_path_ignores_global_rng(g200):
    # no path may draw from numpy's global RNG: the states, and so the
    # reports, must not depend on its state
    V = _tridiagonal_cases(g200)["complex"]
    plan = evolution.make_plan(V, g200, [0.5, 1.5, 4.0])
    f = grids.gaussian_bump(g200)
    runs = []
    for seed in (0, 1):
        np.random.seed(seed)
        runs.append(np.array([st.values for st in evolution.propagate(plan, f)]))
    assert np.array_equal(runs[0], runs[1])


def test_free_evolution_matches_analytic_kernel(g200, free200):
    f = grids.gaussian_bump(g200)
    plan = evolution.make_plan(free200, g200, [2.0], k_max=2.5)
    numeric = evolution.propagate(plan, f)[0]
    analytic = free_evolution_radial(g200, f, 2.0)
    mask = g200.nodes <= 10.0
    pn = grids.profile_values(numeric)[mask]
    pa = grids.profile_values(analytic)[mask]
    assert np.abs(pn - pa).max() / np.abs(pa).max() < 0.02


def test_jordan_polynomial_growth(chain_fixture20):
    # e^{-itH} psi_2 = psi_2 - i t psi_1: the chain top grows like t^{K-1}
    g, F, jb = chain_fixture20["grid"], chain_fixture20["V"], chain_fixture20["basis"]
    Psi = GridFunction(g, jb.chains[0][:, 1])
    times = np.linspace(5.0, 50.0, 8)
    plan = evolution.make_plan(F, g, times)
    norms = [grids.profile_lp_norm(s, 2) for s in evolution.propagate(plan, Psi)]
    A = np.vstack([np.log(times), np.ones_like(times)]).T
    coef, *_ = np.linalg.lstsq(A, np.log(norms), rcond=None)
    assert coef[0] == pytest.approx(1.0, abs=0.1)


def test_propagate_leaves_the_data_alone(g200):
    # each pass updates its own copy of the state in place
    V = _tridiagonal_cases(g200)["complex"]
    f = grids.gaussian_bump(g200)
    before = f.values.copy()
    states = evolution.propagate(evolution.make_plan(V, g200, [0.5, 1.5, 4.0]), f)
    assert np.array_equal(f.values, before)
    assert not np.array_equal(states[-1].values, before)


def test_linspace_steps_factor_once(g200, free200, count_calls, monkeypatch):
    # np.linspace steps differ in their last bits; the Pade path still
    # factors each (step length, substep count) pair once, and [0, t_0] is
    # a remainder and steps of the spacing: two step lengths in all
    solves = count_calls(birman, "_tridiagonal_solver")
    lengths = set()
    stepper = evolution._pade_stepper

    def recording_stepper(d, e):
        step = stepper(d, e)

        def recorded(dt, x):
            lengths.add(dt)
            return step(dt, x)

        return recorded

    monkeypatch.setattr(evolution, "_pade_stepper", recording_stepper)
    times = np.linspace(2.5, 8.0, 10)
    plan = evolution.make_plan(free200, g200, times)
    evolution.propagate(plan, grids.gaussian_bump(g200))
    spacing = times[1] - times[0]
    assert sorted(lengths) == [times[0] % spacing, spacing]
    d = birman.tridiagonal_bs(g200, 0.0)[0]
    # the shift of the first Pade root names the level: i z_1 n / dt
    shifts = np.sort([np.abs(call[0] - d).max() for call in solves[::16]])
    assert len(solves) == 16 * len(shifts)
    assert np.all(np.diff(shifts) > 1e-9 * shifts[1:])


def test_commutation_with_ppp(ee6):
    g = ee6["grid"]
    Pu, Pw = jordan.build_Ppp(ee6["V"], g, basis=ee6["basis"])
    P = Pu @ Pw.T
    H = evolution.discretize_H(ee6["V"], g)
    U = sla.expm(-1j * H)
    assert np.abs(P @ U - U @ P).max() < 1e-8


def test_projected_evolution_of_range_vanishes(ee6):
    g, jb = ee6["grid"], ee6["basis"]
    P = jordan.build_P0(jb, g)
    psi = jb.chains[0][:, 0]
    proj = GridFunction(g, grids.apply_complement(P, psi))
    plan = evolution.make_plan(ee6["V"], g, [1.0, 2.0])
    for st in evolution.propagate(plan, proj):
        assert np.abs(st.values).max() < 1e-10


def test_dispersive_scan_rejects_short_window(g200, free200):
    f = grids.gaussian_bump(g200)
    plan = evolution.make_plan(free200, g200, [2.0, 2.5, 3.0], k_max=2.5)
    with pytest.raises(evolution.FitWindowError):
        evolution.dispersive_scan(plan, f)


def test_stone_formula_cross_check(g200, free200):
    f = grids.gaussian_bump(g200)
    d = evolution.stone_check(free200, g200, f, 1.0, 36.0, 200)
    assert d < 0.05
    # quadrature refinement does not make it worse
    d2 = evolution.stone_check(free200, g200, f, 1.0, 36.0, 400)
    assert d2 <= d


def test_decay_csv_columns(tmp_path, g200, free200):
    f = grids.gaussian_bump(g200)
    plan = evolution.make_plan(free200, g200, np.linspace(2.0, 6.4, 6), k_max=1.0)
    rep = evolution.dispersive_scan(plan, f)
    path = tmp_path / "decay.csv"
    evolution.write_decay_csv(rep, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "t,sup_norm,l2_norm,fitted_exponent,fit_window,T_max"
