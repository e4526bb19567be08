"""Alternating parent/change runs of one perfbench workload, as one BENCH file.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload NAME \
        --seeds 61-70 --out BENCH_N_NAME.json [--seconds 35]

Each DIR is a source checkout, e.g. `git archive` of a commit unpacked into
an empty directory.  Both are byte-compiled (`python -m compileall -q src
perfbench`) before the first pair: under PYTHONDONTWRITEBYTECODE a checkout
holding stale .pyc files recompiles on every import, which reads as
setup_s.  Pair i runs `python3 perfbench/run.py --workload NAME
--seed S --seconds T` in both checkouts, the parent first when i is even
and the change first when i is odd, so drift in the host's load falls on
both sides alike.  The output records every run's end-to-end metrics and
output checks, per-side medians and quartiles, how many pairs the change
won on each metric (direction from BENCHMARK.json) and the first run's
full report, environment included.  The file is written in any case; the
exit status is 1, and the failing pairs are named, when a run exits
nonzero or reports checks.ok false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, int]:
    """The run's report (its leading JSON document) and exit status."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    report, _ = json.JSONDecoder().raw_decode(proc.stdout)
    return report, proc.returncode


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="LO-HI, inclusive")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    for side in SIDES:
        subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=getattr(args, side), check=True)
    pairs, first, failed = [], None, []
    for i, seed in enumerate(args.seeds):
        pair = {"seed": seed}
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            report, status = _run(getattr(args, side), args.workload, seed, args.seconds)
            first = first or {"side": side, "output": report}
            pair[side] = {
                "metrics": {k: m["value"] for k, m in report["metrics"].items()},
                "checks": report["checks"],
                "exit_status": status,
            }
            if status != 0 or not report["checks"]["ok"]:
                failed.append(f"seed {seed} {side}: exit status {status}, "
                              f"checks.ok {report['checks']['ok']}")
            print(seed, side, pair[side]["metrics"], file=sys.stderr, flush=True)
        pairs.append(pair)

    def values(side, name):
        return [pair[side]["metrics"][name] for pair in pairs]

    def won(name):
        sign = 1 if better[name] == "higher" else -1
        return sum(sign * (pair["change"]["metrics"][name] - pair["parent"]["metrics"][name]) > 0
                   for pair in pairs)

    doc = {
        "command": f"python3 tools/bench_pairs.py --parent PARENT --change CHANGE "
                   f"--workload {args.workload} --seeds {args.seeds[0]}-{args.seeds[-1]} "
                   f"--out {args.out.name} --seconds {args.seconds:g}",
        "run_command": f"python3 perfbench/run.py --workload {args.workload} "
                       f"--seed S --seconds {args.seconds:g}",
        "pairs": pairs,
        "summary": {side: {name: _quartiles(values(side, name)) for name in better}
                    for side in SIDES},
        "change_better_in_pairs": {name: won(name) for name in better},
        "first_run": first,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    for line in failed:
        print(f"failed run, {line}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
