"""Self-tests for the benchmark's metric reduction and accuracy checks.

    python3 -m pytest -q bench/tests
"""

import json

import pytest

import accuracy
import onepass
import run
import stats
from onepass import BENCH_DIR


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert stats.tail_percentile(list(range(99))) is None
    assert stats.tail_percentile(list(range(100))) == (90.0, 89)
    assert stats.tail_percentile(list(range(999))) == (90.0, 899)
    assert stats.tail_percentile(list(range(1000))) == (99.0, 989)
    assert stats.tail_percentile(list(range(10000))) == (99.9, 9989)


def test_timing_reports_median_and_count():
    t = stats.timing([3.0, 1.0, 2.0, 10.0])
    assert t == {"median": 2.5, "tail": None, "n": 4}
    assert stats.timing([])["median"] is None


def _record(ok, run_s=1.0, trace=0):
    return {"ok": ok, "trace": trace, "run_s": run_s if ok else None,
            "setup_s": [0.2, 0.1, 0.3] if ok else [], "peak_rss_mb": 100.0,
            "residual_max": 0.5 if ok else None, "ref_dev": 0.0 if ok else None,
            "report_sha256": "x" if ok else None}


def test_raised_pass_counts_as_failed(monkeypatch):
    import speclab.birman
    import speclab.cli

    def singular(path):
        raise speclab.birman.NearSingularError(1e17, "in load_config")

    monkeypatch.setattr(speclab.cli, "load_config", singular)
    rec = onepass.run_pass("invert-ee", 0, 0, 0)
    assert not rec["ok"] and rec["error"].startswith("NearSingularError")
    correct, figures, _ = run.reduce_run([_record(True), rec], trace=0)
    assert figures["failed_share"] == 0.5
    assert not correct


def test_reduce_run_medians_and_gates():
    recs = [_record(True, 1.0), _record(True, 3.0), _record(True, 2.0)]
    correct, figures, notes = run.reduce_run(recs, trace=0)
    assert correct
    assert figures["run_s"] == 2.0 and figures["setup_s"] == 0.2
    assert figures["failed_share"] == 0 and notes["run_s"]["n"] == 3
    recs[1]["residual_max"] = 1.5
    assert not run.reduce_run(recs, trace=0)[0]
    recs[1]["residual_max"] = 0.5
    recs[1]["ref_dev"] = 10 * accuracy.REF_TOL
    assert not run.reduce_run(recs, trace=0)[0]


def test_ref_dev_relative_exact_and_floored():
    ref = {"exponent": [[-1.5, 0.0], 0.0], "verdicts": [["EIGENVALUE"], None],
           "c0.0": [[1e-6, 0.0], 1e-2]}
    same = json.loads(json.dumps(ref))
    assert accuracy.ref_dev(same, ref) == 0.0
    moved = json.loads(json.dumps(ref))
    moved["exponent"][0][0] = -1.5 * (1 + 1e-9)
    assert accuracy.ref_dev(moved, ref) == pytest.approx(1e-9)
    moved["c0.0"][0][0] = 2e-6  # deviation taken against the 1e-2 verdict scale
    assert accuracy.ref_dev(moved, ref) == pytest.approx(1e-4)
    flipped = json.loads(json.dumps(ref))
    flipped["verdicts"][0] = ["RESONANCE"]
    assert accuracy.ref_dev(flipped, ref) == 1.0
    assert accuracy.ref_dev({}, ref) == 1.0


def test_residual_max_over_invert_gates():
    inv = {"pipeline": "invert",
           "tolerances": {"one_sided_residual": 1e-9, "identity_residual": 1e-6},
           "residuals": {"one_sided_S0": 2e-10, "range_constraint": 1e-12},
           "per_lambda": [{"chain": 5e-7, "telescope": 1e-8, "exact_inverse": 0.0}]}
    assert accuracy.residual_max(inv) == pytest.approx(0.5)
    assert accuracy.residual_max({"pipeline": "full", "stages": {"invert": inv}}) == pytest.approx(0.5)
    assert accuracy.residual_max({"pipeline": "evolve"}) == 0.0


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert layer == run.per_layer_metrics()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(onepass.WORKLOADS)
