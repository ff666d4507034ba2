"""Write the reference outputs that `ref_dev` is measured against.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one untraced pass of each named workload (all by default) and stores
its physics outputs and environment in ``bench/reference/<workload>.json``.
Run it only on a commit whose results are taken as correct; the stored
files were made on the first commit that carried the benchmark.
"""

from __future__ import annotations

import json
import sys

from onepass import BENCH_DIR, WORKLOADS
from run import RUN_BUDGET_S, run_one_pass


def main(argv):
    names = argv or sorted(WORKLOADS)
    for name in names:
        rec = run_one_pass(name, 0, 0, 0, RUN_BUDGET_S)
        if not rec["ok"]:
            print(f"{name}: pass failed: {rec.get('error')}", file=sys.stderr)
            return 1
        path = BENCH_DIR / "reference" / f"{name}.json"
        path.write_text(json.dumps(
            {"workload": name, "env": rec["env"], "outputs": rec["outputs"]},
            indent=1, sort_keys=True,
        ) + "\n")
        print(path.relative_to(BENCH_DIR.parent))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
