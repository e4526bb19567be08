"""The benchmark's workloads, how one pass of each runs, and its checks.

A pass is one call of a public harness runner with one master seed.  Every
workload is a closed loop: a single caller runs passes back to back.  The
master seeds come from a fixed pool per workload whose outputs
make_reference.py recorded in reference.json, so every trial a run makes is
checked against the recording.  BENCHMARK.json carries why each workload
was chosen; LAYER_MAP below is the expected layer-to-metric map.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hisparse.harness.experiments as experiments
import hisparse.riplab as riplab
import hisparse.solvers as solvers
from hisparse.harness.config import (
    ExperimentConfig,
    desk_recovery_grid,
    desk_theorem_verify,
    paper_block_detection,
)
from hisparse.operators import HierarchicalOperator

from tracer import Tracer

REFERENCE_PATH = Path(__file__).with_name("reference.json")

DETECTION = "detection"
THEOREM_VERIFY = "theorem-verify"
GRID_POOL = "grid-pool"


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], ExperimentConfig]  # master seed -> config
    threads: int
    trials_per_pass: int
    solves_per_trial: int  # 0: the pass itself is the timed unit
    pool: tuple[int, ...]  # master seeds whose outputs reference.json records
    trace_passes: int
    strata: tuple[float, ...] = ()  # cost-rank cut points, see master_seeds
    # 0: peak_rss_mb is the peak of the measuring process; k: the peak of a
    # fresh interpreter running the pool's k costliest passes (costliest_seeds)
    rss_passes: int = 0

    @property
    def runner(self):
        scenario = self.config(0).scenario
        return {
            "recovery-grid": experiments.run_recovery_grid,
            "block-detection": experiments.run_block_detection,
            "theorem-verify": experiments.run_theorem_verify,
        }[scenario]


def _detection(seed: int) -> ExperimentConfig:
    return dataclasses.replace(paper_block_detection(), trials=1, master_seed=seed)


def _theorem(seed: int) -> ExperimentConfig:
    return dataclasses.replace(desk_theorem_verify(instances=1), master_seed=seed)


def _grid_pool(seed: int) -> ExperimentConfig:
    return dataclasses.replace(desk_recovery_grid(), master_seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            DETECTION,
            _detection, threads=1, trials_per_pass=16, solves_per_trial=2,
            pool=tuple(range(1000, 1064)), trace_passes=3,
            # a solve that hits max_iters above -10 dB costs 10x the usual
            strata=(0.25, 0.5, 0.75),
        ),
        Workload(
            THEOREM_VERIFY,
            _theorem, threads=1, trials_per_pass=1, solves_per_trial=0,
            pool=tuple(range(4000, 6048)), trace_passes=150,
            # a few instances enumerate 100x the median support count; no cut
            # at 0.5, so the median pass time falls inside a stratum
            strata=(0.25, 0.75, 0.9, 0.95, 0.99),
            # the run's own peak grows with the passes that fit in it (each
            # pass draws new instance shapes, and the heap keeps their
            # memory), so a faster riplab would read as more memory
            rss_passes=4,
        ),
        Workload(
            GRID_POOL,
            _grid_pool, threads=2, trials_per_pass=500, solves_per_trial=1,
            pool=tuple(range(3000, 3016)), trace_passes=2,
        ),
    )
}

# Which end-to-end metric each layer should move, and on which workloads;
# every other workload predicts no change.
LAYER_MAP = (
    ("operators.apply", "step_ms_p50", (DETECTION, GRID_POOL)),
    ("operators.adjoint_apply", "step_ms_p50", (DETECTION, GRID_POOL)),
    ("blocks.hi_threshold", "step_ms_p50", (DETECTION, GRID_POOL)),
    ("solvers", "step_ms_p50", (DETECTION, GRID_POOL)),
    ("ensembles.draw", "trials_per_s", (GRID_POOL, DETECTION)),
    ("harness.signals", "trials_per_s", (GRID_POOL, DETECTION)),
    ("harness.pool_solve_share", "trials_per_s", (GRID_POOL,)),
    ("riplab", "trials_per_s", (THEOREM_VERIFY,)),
)


def expected_moves(workload: str) -> dict:
    moves = {layer: metric for layer, metric, wls in LAYER_MAP if workload in wls}
    unchanged = [layer for layer, _, wls in LAYER_MAP if workload not in wls]
    return {"moves": moves, "no_change": unchanged}


def _cost(entry: dict) -> int:
    """Recorded work of one pass: solver iterations, or enumerated supports."""
    if "supports" in entry:
        return entry["supports"]
    return sum(iterations for _, _, iterations in entry["trials"])


def costliest_seeds(wl: Workload, reference: dict, k: int) -> list[int]:
    return sorted(wl.pool, key=lambda s: (-_cost(reference[str(s)]), s))[:k]


def master_seeds(wl: Workload, seed: int, reference: dict):
    """Endless master-seed stream of a run, drawn from the reference pool.

    The pool is split by recorded cost (rank quantiles of solver iterations
    or enumerated supports; one stratum when the workload names no cut
    points).  The stream interleaves the strata in proportion to their size,
    each in a seeded order and cycled, so every run carries the same mix of
    cheap and costly passes while the passes themselves change with the
    seed."""
    rng = np.random.default_rng(seed)
    ranked = sorted(wl.pool, key=lambda s: (_cost(reference[str(s)]), s))
    cuts = [round(q * len(ranked)) for q in (0.0, *wl.strata, 1.0)]
    strata = [rng.permutation(ranked[a:b]) for a, b in zip(cuts, cuts[1:])]
    shares = [len(st) / len(ranked) for st in strata]
    taken = [0] * len(strata)
    for i in itertools.count(1):
        k = max(range(len(strata)), key=lambda k: shares[k] * i - taken[k])
        yield int(strata[k][taken[k] % len(strata[k])])
        taken[k] += 1


# ------------------------------------------------------------------ passes


def warm_up() -> None:
    """One tiny solve and one theorem instance, so lazy library set-up is
    done before anything is timed."""
    small = dataclasses.replace(desk_recovery_grid(), s_values=(2,), sigma_values=(2,),
                                trials=1)
    experiments.run_recovery_grid(small)
    experiments.run_theorem_verify(_theorem(0))


@dataclass
class Pass:
    master_seed: int
    wall_s: float
    records: list | None = None
    summary: list | None = None
    report: dict | None = None
    error: str | None = None


def run_pass(wl: Workload, master_seed: int, tracer: Tracer | None = None) -> Pass:
    cfg = wl.config(master_seed)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = wl.runner(cfg, threads=wl.threads)
        else:
            out = tracer.span("harness.pass", wl.runner, cfg, threads=wl.threads)
    except Exception:  # a failed pass is counted and reported, the run goes on
        return Pass(master_seed, time.perf_counter() - t0, error=traceback.format_exc())
    wall = time.perf_counter() - t0
    if isinstance(out, dict):
        return Pass(master_seed, wall, report=out)
    records, summary, _ = out
    if tracer is not None:
        tracer.absorb(records)
    return Pass(master_seed, wall, records=records, summary=summary)


def outcomes(records) -> list[list[int]]:
    """Per record: success, detected active blocks, iterations."""
    return [
        [int(r.success), round(r.detection_rate * r.s), r.iterations] for r in records
    ]


FAMILIES = ("product_bound", "column_necessity", "mixing_necessity", "trace_inequality")


def output_sha256(p: Pass) -> str:
    """Hash of the file the CLI would write for this pass: trials.csv, or
    report.json for theorem-verify.  The file is written to memory only."""
    if p.report is not None:
        data = (json.dumps(p.report, indent=2, sort_keys=True) + "\n").encode()
    else:
        fd = os.memfd_create("trials.csv")
        with open(fd, "rb") as fh:
            experiments.write_trials_csv(p.records, os.dup(fd))
            fh.seek(0)
            data = fh.read()
    return hashlib.sha256(data).hexdigest()[:16]


def worst_slacks(report: dict) -> dict:
    return {f: report[f]["worst_slack"] for f in FAMILIES}


def _same_slack(expect, got) -> bool:
    if expect is None or got is None:
        return expect is got
    return math.isclose(expect, got, rel_tol=1e-9, abs_tol=1e-12)


def reference_entry(p: Pass, supports: int) -> dict:
    if p.report is not None:
        return {"supports": supports, "worst_slack": worst_slacks(p.report),
                "report_sha256": output_sha256(p)}
    return {"trials": outcomes(p.records), "trials_csv_sha256": output_sha256(p)}


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_passes(wl: Workload, passes: list[Pass], reference: dict) -> dict:
    """Output checks against the workload's reference entries.

    A pass mismatches its reference when any record's success, detected
    block count or iteration count differs, or, in theorem-verify, when a
    bound family's worst slack does not match the recorded one.  failed
    counts trials that raised, returned a non-finite MSE, or belong
    to a pass whose summary does not match its records.  Byte identity of
    the written output is reported, not gated."""
    failed = 0
    mismatched = 0
    identical = True
    violations = 0
    not_passed = 0
    for p in passes:
        expect = reference.get(str(p.master_seed), {})
        if p.error is not None:
            failed += wl.trials_per_pass
            continue
        if p.report is not None:
            violations += sum(p.report[f]["violations"] for f in FAMILIES)
            not_passed += not p.report["passed"]
            slacks = expect.get("worst_slack", {})
            if not all(_same_slack(slacks.get(f, math.nan), got)
                       for f, got in worst_slacks(p.report).items()):
                mismatched += 1
            identical &= expect.get("report_sha256") == output_sha256(p)
            continue
        if experiments.summarize(p.records) != p.summary:
            failed += wl.trials_per_pass
            continue
        per_trial = [
            p.records[i : i + wl.solves_per_trial]
            for i in range(0, len(p.records), wl.solves_per_trial)
        ]
        failed += sum(any(not math.isfinite(r.mse) for r in t) for t in per_trial)
        if expect.get("trials") != outcomes(p.records):
            mismatched += 1
            identical = False
        else:
            identical &= expect["trials_csv_sha256"] == output_sha256(p)
    is_report = wl.solves_per_trial == 0
    return {
        "failed": failed,
        "passes_not_matching_reference": mismatched,
        "trials_csv_identical": None if is_report else identical,
        "report_json_identical": identical if is_report else None,
        "bound_violations": violations,
        "reports_not_passed": not_passed,
        "ok": failed == 0 and mismatched == 0 and violations == 0 and not_passed == 0,
    }


# ----------------------------------------------------------------- tracing


def _hihtp_attrs(res):
    return {"iterations": res.iterations, "stop": res.stop_reason}


def _supports(est):
    return {"supports": est.supports_examined}


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points the package calls through."""
    tracer.wrap(HierarchicalOperator, "apply", "operators.apply")
    tracer.wrap(HierarchicalOperator, "adjoint_apply", "operators.adjoint_apply")
    tracer.wrap(solvers, "hi_threshold", "blocks.hi_threshold")
    tracer.wrap(experiments, "hihtp", "solvers.hihtp", attrs_of=_hihtp_attrs)
    for name in ("gaussian_matrix", "subsampled_dft", "restrict_columns"):
        tracer.wrap(experiments, name, "ensembles.draw")
    for name in ("generate_signal", "add_noise"):
        tracer.wrap(experiments, name, "harness.signals")
    # the checks call the constants through riplab's own namespace
    for owner in (experiments, riplab):
        tracer.wrap(owner, "hirip_constant_exact", "riplab.hirip_constant_exact",
                    attrs_of=_supports)
        tracer.wrap(owner, "rip_constant_exact", "riplab.rip_constant_exact",
                    attrs_of=_supports)
    for name in ("column_necessity_check", "prop1_check", "lemma1_check"):
        tracer.wrap(experiments, name, "riplab.checks")
    tracer.wrap_trial(experiments, "_recovery_trial")
    tracer.wrap_trial(experiments, "_detection_trial")
