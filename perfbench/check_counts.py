"""Exact-count test: two traced runs of one seed must count the same work.

    python3 perfbench/check_counts.py

Runs `perfbench/run.py --seed 1 --trace 1` twice per workload from the root
of a source checkout and exits 1 when any exact count differs.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXACT = (
    "solvers.iterations",
    "operators.apply.calls",
    "blocks.hi_threshold.calls",
    "riplab.supports_examined",
)


def traced_counts(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in EXACT}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import workloads

    differing = 0
    for name in workloads.WORKLOADS:
        first, second = traced_counts(name), traced_counts(name)
        for key in EXACT:
            same = first[key] == second[key]
            differing += not same
            print(f"{name} {key}: {first[key]} vs {second[key]}"
                  f"{'' if same else '  DIFFERS'}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
