"""Run every pooled pass of the named workloads and check it against the
recording in perfbench/reference.json, which is read, never rewritten.

    python3 tools/check_reference.py WORKLOAD [WORKLOAD ...] [--hashes OUT.json]
        [--against HASHES.json]

Run from the root of a source checkout.  As a script it puts the
checkout's perfbench and src first on sys.path and pins BLAS to one
thread; an importer puts perfbench on its own path and keeps its settings.
For each master seed in a workload's pool the pass is run once, as
perfbench runs it, and checked as perfbench checks it: every record's
success flag, detected block count and iteration count (theorem-verify:
each bound family's worst slack) must match the recording, and no trial
may fail.  --hashes writes the sha256 prefix of each pass's trials.csv
(report.json for theorem-verify) as {workload: {seed: hash}}.  --against
reads such a file, written in another checkout, and prints per workload
how many passes have the same output hash.  The exit status is 1 when
any pass mismatches or fails, or differs from the --against hash.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

if __name__ == "__main__":  # an importing process keeps its own settings
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    _ROOT = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(_ROOT / "perfbench"), str(_ROOT / "src")]

import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+", choices=list(workloads.WORKLOADS))
    parser.add_argument("--hashes", type=Path, help="write each pass's output hash here")
    parser.add_argument("--against", type=Path,
                        help="compare each pass's output hash with this --hashes file")
    args = parser.parse_args(argv)
    reference = workloads.load_reference()
    against = json.loads(args.against.read_text()) if args.against else None

    hashes, bad, differ = {}, 0, 0
    for name in args.workloads:
        wl, expect = workloads.WORKLOADS[name], reference[name]
        hashes[name], same_hash = {}, 0
        for seed in wl.pool:
            p = workloads.run_pass(wl, seed)
            if p.error is not None:
                print(f"{name} seed {seed}: {p.error}", file=sys.stderr)
                bad += 1
                continue
            checks = workloads.check_passes(wl, [p], expect)
            if not checks["ok"]:
                print(f"{name} seed {seed}: {checks}", file=sys.stderr)
                bad += 1
            digest = workloads.output_sha256(p)
            hashes[name][str(seed)] = digest
            entry = expect[str(seed)]
            same_hash += digest == entry.get("trials_csv_sha256", entry.get("report_sha256"))
        print(f"{name}: {len(wl.pool)} passes, {same_hash} with the recorded output hash",
              flush=True)
        if against is not None:
            theirs = against.get(name, {})
            same = sum(theirs.get(seed) == h for seed, h in hashes[name].items())
            differ += len(wl.pool) - same
            print(f"{name}: {same}/{len(wl.pool)} passes with the same output hash "
                  f"as {args.against}", flush=True)
    if args.hashes is not None:
        args.hashes.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    print(f"passes not matching reference: {bad}")
    return 1 if bad or differ else 0


if __name__ == "__main__":
    sys.exit(main())
