"""speclab benchmark: run one workload for a while and print its metrics.

    python3 bench/run.py --workload full-ee --seed 1 --seconds 25 --trace 0

Each pass is a fresh ``bench/onepass.py`` process, as a ``speclab``
invocation is, so module-level caches and peak RSS never carry over from
one pass to the next.  Passes run one after another (a closed loop with one
client) until ``--seconds`` have elapsed; at least one always runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics of the traced
passes plus the tracing overhead.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines above it show
every figure with its unit.  The full record of the run, with the
environment (cores, BLAS and its threads, numpy/scipy, source digest), goes
to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
import time

import accuracy
import stats
from onepass import BENCH_DIR, LAYERS, OUT_DIR, ROOT, WORKLOADS
from tracer import layer_summary, read_jsonl

RUN_BUDGET_S = 170.0

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed with the end-to-end metrics; they decide `correct` instead of
# being compared by a relative bound, since each is 0 on a healthy run.
GATES = {"failed_share": "ratio", "residual_max": "ratio", "ref_dev": "ratio"}

_FUNCTION_FIGURES = (
    ("cli.run_threshold", "wall_s"), ("cli.run_invert", "wall_s"),
    ("cli.run_ftscan", "wall_s"), ("cli.run_evolve", "wall_s"),
    ("evolution.propagate", "self_s"), ("jordan.build_Ppp", "self_s"),
    ("jordan.build_filtration", "calls"), ("jordan.build_filtration", "self_s"),
    ("birman.direct_inverse", "calls"), ("birman.direct_inverse", "self_s"),
    ("birman.build_bs", "self_s"), ("resolvent.build_R0", "calls"),
    ("resolvent.free_kernel_radial", "self_s"), ("ftdiag.t_hat_l1_scan", "self_s"),
    ("lowenergy.domain_resolvent", "calls"), ("lowenergy.domain_resolvent", "distinct"),
    ("lowenergy.build_S_lambda", "self_s"), ("lowenergy.contraction_factor", "calls"),
    ("potentials.tune_coupling", "self_s"),
)
_UNITS = {"self_s": "s", "wall_s": "s", "calls": "count", "distinct": "count",
          "rss_growth_mb": "MB"}


def per_layer_metrics():
    """Ordered {name: (unit, better)} of the traced run's metrics."""
    out = {}
    for layer in LAYERS:
        for fig in ("self_s", "calls", "rss_growth_mb"):
            out[f"{layer}.{fig}"] = (_UNITS[fig], "lower")
    for fn, fig in _FUNCTION_FIGURES:
        out[f"{fn}.{fig}"] = (_UNITS[fig], "lower")
    out["lowenergy.domain_resolvent.hit_ratio"] = ("ratio", "higher")
    out["trace.overhead"] = ("ratio", "lower")
    out["trace.run_s"] = ("s", "lower")
    out["bench.self_s"] = ("s", "lower")
    return out


def traced_figures(rec):
    """Per-layer figures of one traced pass, read from its span file."""
    summary = layer_summary(read_jsonl(rec["trace_file"]))
    layers, functions = summary["layers"], summary["functions"]
    figs = {}
    for layer in LAYERS:
        lay = layers.get(layer, {})
        for fig in ("self_s", "calls", "rss_growth_mb"):
            figs[f"{layer}.{fig}"] = lay.get(fig, 0)
    for fn, fig in _FUNCTION_FIGURES:
        figs[f"{fn}.{fig}"] = functions.get(fn, {}).get(fig, 0)
    calls = figs["lowenergy.domain_resolvent.calls"]
    distinct = figs["lowenergy.domain_resolvent.distinct"]
    figs["lowenergy.domain_resolvent.hit_ratio"] = 1 - distinct / calls if calls else 0.0
    figs["trace.run_s"] = rec["run_s"]
    layer_self = sum(lay["self_s"] for lay in layers.values())
    figs["bench.self_s"] = sum(rec["setup_s"]) + rec["run_s"] - layer_self
    return figs


def run_one_pass(workload, seed, trace, pass_id, timeout):
    cmd = [sys.executable, str(BENCH_DIR / "onepass.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--pass-id", str(pass_id)]
    base = {"workload": workload, "seed": seed, "trace": trace, "pass_id": pass_id,
            "ok": False, "setup_s": [], "run_s": None, "peak_rss_mb": None,
            "residual_max": None, "ref_dev": None, "report_sha256": None}
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {**base, "error": f"pass timed out after {timeout:.0f} s"}
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {**base, "error": f"pass exited {proc.returncode} without a record"}


def run_passes(workload, seed, seconds, trace):
    kinds = (0, 1) if trace else (0,)
    records, start, longest = [], time.perf_counter(), 0.0
    while True:
        for kind in kinds:
            t0 = time.perf_counter()
            left = RUN_BUDGET_S - (t0 - start)
            records.append(run_one_pass(workload, seed, kind, len(records), max(left, 5.0)))
            longest = max(longest, time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed + len(kinds) * longest > RUN_BUDGET_S:
            return records


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def reduce_run(records, trace):
    """(correct, figures, notes) of one run from its pass records."""
    plain = [r for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    run = stats.timing([r["run_s"] for r in plain if r["run_s"] is not None])
    setup = stats.timing([t for r in plain for t in r["setup_s"]])
    figures = {
        "run_s": run["median"],
        "setup_s": setup["median"],
        "peak_rss_mb": _median(r["peak_rss_mb"] for r in plain),
        "failed_share": stats.failed_share(records),
        "residual_max": stats.worst(r["residual_max"] for r in records),
        "ref_dev": stats.worst(r["ref_dev"] for r in records),
    }
    notes = {"run_s": run, "setup_s": setup}
    correct = (
        figures["failed_share"] == 0
        and figures["residual_max"] is not None and figures["residual_max"] <= 1.0
        and figures["ref_dev"] is not None and figures["ref_dev"] <= accuracy.REF_TOL
    )
    if trace:
        digests = {r["report_sha256"] for r in records}
        notes["traced_bytes_equal"] = len(digests) == 1
        correct = correct and notes["traced_bytes_equal"]
        if correct:
            per_pass = [traced_figures(r) for r in traced]
            for name in per_layer_metrics():
                if name != "trace.overhead":
                    figures[name] = statistics.median(f[name] for f in per_pass)
            figures["trace.overhead"] = (
                _median(r["run_s"] for r in traced) / run["median"] - 1
            )
    return correct, figures, notes


def env_flags(records):
    """Warnings for comparisons made across differing environments."""
    flags = []
    envs = {json.dumps(r["env"], sort_keys=True) for r in records if "env" in r}
    if len(envs) > 1:
        flags.append("passes of this run saw differing environments")
    for r in records:
        ref_env, env = r.get("ref_env"), r.get("env")
        if ref_env and env and ref_env["blas_threads"] != env["blas_threads"]:
            flags.append(
                f"ref_dev compares across BLAS thread counts: reference "
                f"{ref_env['blas_threads']}, this run {env['blas_threads']}"
            )
            break
    return flags


def _fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description="speclab benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "speclab" / "__init__.py").is_file():
        print(f"error: no speclab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, on which subprocess.run kills the running pass.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    records = run_passes(args.workload, args.seed, args.seconds, args.trace)
    correct, figures, notes = reduce_run(records, args.trace)
    flags = env_flags(records)
    for flag in flags:
        print(f"warning: {flag}", file=sys.stderr)
    for r in records:
        if not r["ok"]:
            print(f"pass {r['pass_id']} failed: {r.get('error')}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "figures": figures,
        "notes": notes, "env_flags": flags,
        "env": next((r["env"] for r in records if "env" in r), None),
        "passes": records,
    }, indent=1))

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {attempted} ({failed} failed)  correct {correct}")
    for name, unit in {**END_TO_END, **GATES}.items():
        line = f"  {name:<14} {_fmt(figures[name]):>12} {unit}"
        if name in notes:
            note = notes[name]
            tail = note["tail"]
            line += f"   median of {note['n']}"
            line += f", p{tail[0]:g} {tail[1]:.6g}" if tail else ", no tail percentile"
        print(line)
    if args.trace:
        metric_units = {n: u for n, (u, _) in per_layer_metrics().items()}
        for name, unit in metric_units.items():
            print(f"  {name:<40} {_fmt(figures.get(name)):>12} {unit}")
    else:
        metric_units = END_TO_END
    print(f"  record: {result_path.relative_to(ROOT)}")
    metrics = {
        name: {"value": figures.get(name) or 0.0, "unit": unit}
        for name, unit in metric_units.items()
    }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
