"""Self-tests for the outside-in tracer.

    python3 -m pytest -q bench/tests
"""

import json
import types

import numpy as np
import pytest

import onepass
from tracer import Tracer, layer_summary, read_jsonl, self_figures


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_modules(clock):
    a = types.ModuleType("fakepkg.alpha")
    b = types.ModuleType("fakepkg.beta")

    def inner(dt):
        clock.now += dt
        return dt

    def outer():
        clock.now += 1.0
        a.inner(2.0)  # through the defining module
        b.inner(3.0)  # through an alias imported into another module
        clock.now += 0.5

    inner.__module__, outer.__module__ = a.__name__, b.__name__
    a.inner, b.inner, b.outer = inner, inner, outer
    return a, b


def test_nested_self_times_add_up(tmp_path):
    clock = FakeClock()
    a, b = _fake_modules(clock)
    tracer = Tracer(pass_id=7, clock=clock)
    tracer.install([a, b])
    b.outer()
    tracer.uninstall()
    assert [s.name for s in tracer.spans] == ["beta.outer", "alpha.inner", "alpha.inner"]
    selfs = [s for s, _ in self_figures(tracer.spans)]
    assert selfs == [1.5, 2.0, 3.0]
    assert sum(selfs) == tracer.spans[0].end - tracer.spans[0].start
    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(path)
    assert json.loads(path.read_text().splitlines()[0])["pass"] == 7
    summary = layer_summary(read_jsonl(path))
    assert summary["layers"]["alpha"] == {"self_s": 5.0, "calls": 2, "rss_growth_mb": 0.0}
    assert summary["functions"]["beta.outer"]["wall_s"] == 6.5


def test_recursive_calls_count_wall_once():
    clock = FakeClock()
    mod = types.ModuleType("fakepkg.gamma")

    def rec(n):
        clock.now += 1.0
        if n:
            mod.rec(n - 1)

    rec.__module__ = mod.__name__
    mod.rec = rec
    tracer = Tracer(clock=clock)
    tracer.install([mod])
    mod.rec(2)
    fn = layer_summary(tracer.spans)["functions"]["gamma.rec"]
    assert fn["calls"] == 3 and fn["wall_s"] == 3.0 and fn["self_s"] == 3.0


def test_aliases_are_rebound_and_restored():
    mods = onepass.import_speclab()
    grids, birman = mods["grids"], mods["birman"]
    lowenergy, ftdiag = mods["lowenergy"], mods["ftdiag"]
    originals = (grids.bilinear_pair, grids.lp_norm, grids.operator_l1_norm,
                 birman.smooth_cutoff)
    tracer = Tracer()
    tracer.install(list(mods.values()))
    try:
        for name in ("bilinear_pair", "lp_norm", "operator_l1_norm"):
            assert getattr(lowenergy, name) is getattr(grids, name)
            assert getattr(grids, name).__wrapped__ is not None
        assert ftdiag.smooth_cutoff is birman.smooth_cutoff
        assert ftdiag.smooth_cutoff.__wrapped__ is originals[3]
        ftdiag.smooth_cutoff(np.linspace(0.0, 2.0, 5))
        assert tracer.spans[-1].name == "birman.smooth_cutoff"
    finally:
        tracer.uninstall()
    assert (grids.bilinear_pair, grids.lp_norm, grids.operator_l1_norm,
            birman.smooth_cutoff) == originals
    assert lowenergy.bilinear_pair is originals[0]
    assert ftdiag.smooth_cutoff is originals[3]


SMALL_FULL = {
    "schema_version": 1,
    "grid": {"mode": "radial_swave", "extent": 20.0, "nodes": 100},
    "potential": {"builtin": "exact_eigen", "params": {"s": 2.0}},
    "invert": {"lambdas": [0.002, 0.005], "window": "auto"},
    "ftscan": {"window": "HIGH", "n": 32, "lam_max": 8.0},
    "evolve": {"t_start": 2.0, "t_end": 8.0, "n_times": 4, "k_max": 1.0,
               "project": True},
}


def _full_report_bytes(mods, tmp_path):
    cli = mods["cli"]
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_FULL))
    cfg = cli.load_config(str(path))
    grid = cli.make_scenario_grid(cfg)
    V = cli.make_scenario_potential(cfg, grid)
    report = cli.run_full(cfg, grid, V, np.random.default_rng(0))
    return json.dumps(report, indent=2, sort_keys=True, default=onepass._json_default)


def test_tracing_leaves_report_bytes_unchanged(tmp_path):
    mods = onepass.import_speclab()
    plain = _full_report_bytes(mods, tmp_path)
    tracer = Tracer(keyfns={"lowenergy.domain_resolvent": onepass._domain_key})
    tracer.install(list(mods.values()))
    try:
        traced = _full_report_bytes(mods, tmp_path)
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = layer_summary(tracer.spans)
    assert set(summary["layers"]) <= set(onepass.LAYERS)
    for layer in ("cli", "jordan", "lowenergy", "birman", "evolution", "ftdiag"):
        assert summary["layers"][layer]["calls"] > 0
    dr = summary["functions"]["lowenergy.domain_resolvent"]
    assert 0 < dr["distinct"] <= dr["calls"]
    # Every span sits inside the top-level calls, so the self times of all
    # layers add up to the time spent in them.
    roots = [s for s in tracer.spans if s.parent < 0]
    total = sum(s.end - s.start for s in roots)
    layer_self = sum(v["self_s"] for v in summary["layers"].values())
    assert layer_self == pytest.approx(total, rel=1e-9)
