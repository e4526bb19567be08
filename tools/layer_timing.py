"""Min-of-repeats timeit figures for the HiHTP layer units on the paper's
operators, printed as one JSON document.

    python3 tools/layer_timing.py [--repeat 7]

Imports hisparse from the `src` of the checkout holding this file, with
BLAS pinned to one thread.  Three instances, each trial 0 of a paper-scale
preset run at master seed 2:

- detection-uniform and detection-mixed: the block-detection sweep
  (paper_block_detection) at M = 10 and 0 dB: 20 blocks of 200 DFT
  columns, 50 rows each, budget (6, 5), the signal planted in the
  short-delay prior; the mixed mode solves on the prior's windows (the
  first 10 blocks cut to their first 10 columns);
- recovery-25-20: the recovery grid's (paper_recovery_grid) cell
  (s, sigma) = (25, 20), M = 40, 50 blocks of 100 columns, 50 rows each,
  10 dB.

For each, in microseconds per call: the trial set-up (one call of the
instance's builder, which is the harness's own experiments._measure for
the trial's stream ids: it draws A and the rows, builds the operator and
its window, plants, measures and noises the signal; the block structures
and the budget are built once outside it); H.adjoint_apply(y);
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

import dataclasses  # noqa: E402

import numpy as np  # noqa: E402

from hisparse import solvers  # noqa: E402
from hisparse.blocks import BlockStructure, HiSparsity, hi_threshold  # noqa: E402
from hisparse.ensembles import gaussian_matrix, spawn_seedseq  # noqa: E402
from hisparse.harness import experiments  # noqa: E402
from hisparse.harness.config import (  # noqa: E402
    desk_recovery_grid,
    paper_block_detection,
    paper_recovery_grid,
)
from hisparse.harness.experiments import run_recovery_grid  # noqa: E402
from hisparse.operators import HierarchicalOperator  # noqa: E402
from hisparse.riplab import hierarchical_support_count, hirip_constant_exact  # noqa: E402

# every instance is trial 0 of its preset run at this master seed
MASTER_SEED = 2


def _instance(cfg, ids, M, snr_db, prior=None, windowed=False):
    """The zero-argument builder of (H, y, k) for trial stream ids of cfg:
    experiments._measure's operator on the full blocks, or on the prior's
    windows (the full blocks when None) when windowed, and its noisy
    measurements."""
    full = BlockStructure(cfg.block_sizes())
    prior = full if prior is None else prior
    k = HiSparsity.uniform(cfg.s_values[0], cfg.sigma_values[0], cfg.N)

    def build():
        (H, H_windowed), y, _ = experiments._measure(cfg, ids, M, k, snr_db, full, prior)
        return H_windowed if windowed else H, y, k

    return build


def instances() -> dict:
    """The named paper-scale instances, each a zero-argument builder."""
    det = dataclasses.replace(paper_block_detection(), master_seed=MASTER_SEED)
    rec = dataclasses.replace(paper_recovery_grid(), master_seed=MASTER_SEED,
                              s_values=(25,), sigma_values=(20,))
    det_ids = (experiments._SC_DETECTION, 10, experiments._snr_key(0.0), 0)
    rec_ids = (experiments._SC_RECOVERY, 25, 20, experiments._snr_key(10.0), 0)
    prior = experiments._detection_prior(det)
    return {
        "detection-uniform": _instance(det, det_ids, 10, 0.0, prior),
        "detection-mixed": _instance(det, det_ids, 10, 0.0, prior, windowed=True),
        "recovery-25-20": _instance(rec, rec_ids, 40, 10.0),
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
