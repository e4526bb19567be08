"""Record the per-trial outcomes of every pooled pass into reference.json.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run from the root of a source checkout.  The file pins, for each master
seed in a workload's pool, every record's success flag, detected block
count and iteration count plus the hash of the pass's trials.csv; for
theorem-verify, the hash of its report.json and the number of supports its
exact constants enumerate (the cost the seed walk stratifies by).  Record
it again only when a change to the program's outputs is intended and
explained.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(names) -> int:
    path = workloads.REFERENCE_PATH
    reference = workloads.load_reference() if path.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        entries = {}
        for seed in wl.pool:
            tracer = Tracer()
            workloads.install(tracer)
            try:
                p = workloads.run_pass(wl, seed, tracer)
            finally:
                tracer.restore()
            if p.error is not None:
                print(p.error, file=sys.stderr)
                return 1
            supports = sum(s.attrs["supports"] for s in tracer.spans
                           if s.name == "riplab.hirip_constant_exact")
            entries[str(seed)] = workloads.reference_entry(p, supports)
            print(f"{name} seed {seed}: {p.wall_s:.2f} s", flush=True)
        reference[name] = entries
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        for i, (name, entries) in enumerate(sorted(reference.items())):
            fh.write(f"{json.dumps(name)}: {{\n")
            rows = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
                    for k, v in entries.items()]
            fh.write(",\n".join(rows))
            fh.write("\n}" + ("," if i + 1 < len(reference) else "") + "\n")
        fh.write("}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
