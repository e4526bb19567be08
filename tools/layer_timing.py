"""Min-of-repeats timeit figures for the HiHTP layer units on the paper's
operators, printed as one JSON document.

    python3 tools/layer_timing.py [--repeat 7]

Imports hisparse from the `src` of the checkout holding this file, with
BLAS pinned to one thread.  Three instances, each one paper-scale trial:

- detection-uniform and detection-mixed: the block-detection sweep's
  operator at M = 10 (20 blocks of 200 DFT columns, 50 rows each; in the
  mixed mode the first 10 blocks are cut to their first 10 columns),
  budget (6, 5), 0 dB;
- recovery-25-20: the recovery grid's cell (s, sigma) = (25, 20), M = 40,
  50 blocks of 100 columns, 50 rows each, 10 dB.

For each, in microseconds per call: the trial set-up (one call of the
instance's builder, which draws A and the rows, builds the operator,
plants, measures and noises the signal as the harness's _measure does,
with the block structures built once outside it); H.adjoint_apply(y);
hi_threshold of the first gradient H^* y; column_indices of the support
it returns; the refit on that support (|S| = 30 for detection, 500 for
recovery); and one whole hihtp solve divided by its iterations (each
instance stops on a repeated support, so every counted iteration runs).

One exact-constants unit as well: hirip_constant_exact on theorem-verify's
costliest enumeration shape (6 blocks of 6 columns sharing one block
matrix, budget (3, 2): 67,500 supports), in microseconds per call and
supports per second.

Pool scaling: the desk recovery grid (preset master seed, 500 trials) run
by run_recovery_grid at threads 1 and 2, each the best wall time of
`repeat` runs, as trials per second, the parent's own CPU seconds in that
run (dispatch and collection; the workers' time is not in it) and the
efficiency serial_s / (T * pooled_s).  Workers fork from this process and
keep its one-thread BLAS.

Every other figure is the minimum over `repeat` timeit runs of a loop
count from Timer.autorange (at least 0.2 s per run), so it reads the
unloaded cost on a shared host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import timeit
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from hisparse import solvers  # noqa: E402
from hisparse.blocks import BlockStructure, HiSparsity, hi_threshold  # noqa: E402
from hisparse.ensembles import (  # noqa: E402
    dft_rows,
    gaussian_matrix,
    spawn_seedseq,
    spawn_seedseqs,
)
from hisparse.harness.config import desk_recovery_grid  # noqa: E402
from hisparse.harness.experiments import run_recovery_grid  # noqa: E402
from hisparse.harness.signals import add_noise, generate_signal  # noqa: E402
from hisparse.operators import HierarchicalOperator, dft_operator  # noqa: E402
from hisparse.riplab import hierarchical_support_count, hirip_constant_exact  # noqa: E402


def _instance(seed, M, N, m, n, s, sigma, snr_db, windows=None):
    """The zero-argument builder of (H, y, k): a planted (s, sigma)-sparse
    signal, measured on the windows (the whole blocks when None) and noised."""
    full = BlockStructure((n,) * N)
    structure = full if windows is None else BlockStructure(windows)
    k = HiSparsity.uniform(s, sigma, N)

    def build():
        A = gaussian_matrix(M, N, spawn_seedseq(seed, 0))
        rows = np.array([dft_rows(m, n, ss) for ss in spawn_seedseqs(seed, 1, count=N)])
        H = dft_operator(A, rows, full).window(structure)
        y = add_noise(H.apply(generate_signal(structure, k, spawn_seedseq(seed, 2))),
                      snr_db, spawn_seedseq(seed, 3))
        return H, y, k

    return build


def instances() -> dict:
    """The named paper-scale instances, each a zero-argument builder."""
    return {
        "detection-uniform": _instance(2, 10, 20, 50, 200, 6, 5, 0.0),
        "detection-mixed": _instance(2, 10, 20, 50, 200, 6, 5, 0.0, (10,) * 10 + (200,) * 10),
        "recovery-25-20": _instance(2, 40, 50, 50, 100, 25, 20, 10.0),
    }


def hirip_instance():
    """(H, k) of theorem-verify's costliest enumeration shape: an 8 x 6 mixing
    matrix and one 8 x 6 block matrix shared by all 6 blocks, both complex
    Gaussian with unit columns, and the budget (3, 2)."""
    A = gaussian_matrix(8, 6, spawn_seedseq(2, 0))
    B = gaussian_matrix(8, 6, spawn_seedseq(2, 1))
    return HierarchicalOperator(A, (B,) * 6), HiSparsity.uniform(3, 2, 6)


def _best_us(fn, repeat: int, number: int | None) -> float:
    timer = timeit.Timer(fn)
    number = number or timer.autorange()[0]
    return min(timer.repeat(repeat, number)) / number * 1e6


def time_units(build, repeat: int = 7, number: int | None = None) -> dict:
    """The layer figures of the instance build() returns, in microseconds
    per call (number None: autorange's loop count)."""
    H, y, k = build()
    hy = H.adjoint_apply(y)
    support = hi_threshold(hy, k)[1]
    res = solvers.hihtp(H, y, k)
    if res.stop_reason == solvers.STOP_MAX_ITERS:
        # a skipped cycle tail counts iterations that never ran
        raise RuntimeError("the instance's solve must not stop at max_iters")
    return {
        "support_size": support.num_entries,
        "hihtp_iterations": res.iterations,
        "trial_setup_us": _best_us(build, repeat, number),
        "adjoint_apply_us": _best_us(lambda: H.adjoint_apply(y), repeat, number),
        "hi_threshold_us": _best_us(lambda: hi_threshold(hy, k), repeat, number),
        "column_indices_us": _best_us(lambda: support.column_indices(H.structure),
                                      repeat, number),
        "refit_us": _best_us(lambda: solvers._restricted_lstsq(H, y, support, hy.coeffs),
                             repeat, number),
        "hihtp_per_iteration_us": _best_us(lambda: solvers.hihtp(H, y, k), repeat, number)
        / res.iterations,
    }


def time_hirip(H, k, repeat: int = 7, number: int | None = None) -> dict:
    """hirip_constant_exact(H, k) in microseconds per call and supports
    enumerated per second (number None: autorange's loop count)."""
    supports = hierarchical_support_count(H.structure, k)
    us = _best_us(lambda: hirip_constant_exact(H, k), repeat, number)
    return {"supports": supports, "hirip_constant_exact_us": us,
            "supports_per_s": supports / us * 1e6}


def time_pool(cfg, threads=(1, 2), repeat: int = 7) -> dict:
    """run_recovery_grid(cfg) at each thread count (the first must be 1):
    the best of `repeat` runs as wall seconds, trials per second and the
    parent's CPU seconds, plus the efficiency serial_s / (T * wall_s)."""
    out = {}
    for t in threads:
        runs = []
        for _ in range(repeat):
            wall, cpu = time.perf_counter(), time.process_time()
            trials = len(run_recovery_grid(cfg, threads=t)[0])
            runs.append((time.perf_counter() - wall, time.process_time() - cpu))
        wall, cpu = min(runs)
        out[str(t)] = {"trials": trials, "wall_s": wall, "trials_per_s": trials / wall,
                       "parent_cpu_s": cpu,
                       "efficiency": out["1"]["wall_s"] / (t * wall) if out else 1.0}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--repeat", type=int, default=7)
    args = p.parse_args(argv)
    doc = {
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "repeat": args.repeat,
        "units": {name: time_units(build, repeat=args.repeat)
                  for name, build in instances().items()},
        "hirip_constant_exact": time_hirip(*hirip_instance(), repeat=args.repeat),
        "pool_scaling": time_pool(desk_recovery_grid(), repeat=args.repeat),
    }
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
