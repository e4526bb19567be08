"""Monte Carlo runners: noisy recovery grid, active-block detection with
mixed block lengths, and random-instance verification of the isometry
bounds.

Every trial derives its randomness from
SeedSequence(master_seed, scenario, cell..., trial, role), so records do
not depend on execution order and a run is reproducible byte-for-byte.
"""

from __future__ import annotations

import csv
import functools
import itertools
import logging
import math
import time
import typing
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from ..blocks import BlockStructure, BlockVector, HiSparsity, HiSupport
from ..ensembles import (
    as_rng,
    complex_gaussian,
    dft_rows,
    gaussian_matrix,
    restrict_columns,  # not called here: perfbench/workloads.py traces it by this name
    spawn_seedseq,
    spawn_seedseqs,
    stream_fingerprint,
    subsampled_dft,
)
from ..errors import BudgetError
from ..operators import HierarchicalOperator, dft_operator
from ..riplab import (
    column_necessity_check,
    hirip_bound,
    hirip_constant_exact,
    lemma1_check,
    prop1_check,
    rip_constant_exact,
)
from ..solvers import hihtp
from .config import (
    SCENARIO_DETECTION,
    SCENARIO_RECOVERY,
    SCENARIO_THEOREM,
    ExperimentConfig,
)
from .signals import (
    add_noise,
    detection_rate,
    generate_signal,
    mse,
    noise_floor,
)

log = logging.getLogger(__name__)

MODE_UNIFORM = "uniform"
MODE_MIXED = "mixed"

# scenario codes and stream roles for seed derivation
_SC_RECOVERY, _SC_DETECTION, _SC_THEOREM = 1, 2, 3
_ROLE_A, _ROLE_B, _ROLE_SIGNAL, _ROLE_NOISE = 0, 1, 2, 3
_SNR_INF_KEY = 1 << 40


@dataclass
class TrialRecord:
    """One Monte Carlo outcome.  The fields, in order, are the trials.csv
    columns; write_trials_csv and read_trials_csv format and parse each by
    its declared type."""

    scenario: str
    s: int
    sigma: int
    M: int
    N: int
    m: int
    snr_db: float
    mode: str
    trial: int
    seed: int
    mse: float
    success: bool
    detection_rate: float
    iterations: int
    wall_millis: float


_FIELD_TYPES = typing.get_type_hints(TrialRecord)
CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))
_FORMAT = {float: lambda v: repr(float(v)), bool: int, int: str, str: str}
_PARSE = {float: float, bool: lambda text: bool(int(text)), int: int, str: str}


def _snr_key(snr_db: float) -> int:
    if math.isinf(snr_db):
        return _SNR_INF_KEY
    return int(round(snr_db * 1_000_000))


def write_trials_csv(records, path, measured_timing: bool = False) -> None:
    """Write records in the TrialRecord column schema.

    wall_millis is written as 0 unless measured_timing is set: wall time is
    the one nondeterministic field, and by default two identical runs must
    produce byte-identical files.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(CSV_COLUMNS)
        for r in records:
            row = {c: _FORMAT[_FIELD_TYPES[c]](getattr(r, c)) for c in CSV_COLUMNS}
            row["wall_millis"] = round(r.wall_millis) if measured_timing else 0
            w.writerow(row.values())


def read_trials_csv(path) -> list[TrialRecord]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return [
            TrialRecord(**{c: _PARSE[_FIELD_TYPES[c]](row[c]) for c in CSV_COLUMNS})
            for row in csv.DictReader(fh)
        ]


def summarize(records) -> list[dict]:
    """Per-cell aggregates, recomputable from the raw records.

    Cells are keyed by (s, sigma, M, snr_db, mode) in first-appearance
    order; each row carries the trial count, success rate, mean MSE and
    mean detection rate.
    """
    groups: dict[tuple, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault((r.s, r.sigma, r.M, r.snr_db, r.mode), []).append(r)
    rows = []
    for (s, sigma, M, snr_db, mode), rs in groups.items():
        rows.append(
            {
                "s": s,
                "sigma": sigma,
                "M": M,
                "snr_db": snr_db if not math.isinf(snr_db) else "inf",
                "mode": mode,
                "trials": len(rs),
                "success_rate": sum(r.success for r in rs) / len(rs),
                "mean_mse": sum(r.mse for r in rs) / len(rs),
                "mean_detection_rate": sum(r.detection_rate for r in rs) / len(rs),
            }
        )
    return rows


# Strided chunks per pool worker.  More chunks let a worker that finishes
# early take more of the work; fewer keep dispatch and result pickling a
# small share of the parent's CPU.  At 8, the desk grid's 500 trials go
# out as 16 tasks on 2 workers.
_CHUNKS_PER_WORKER = 8


def _run_chunk(worker, chunk: list) -> list:
    return [worker(a) for a in chunk]


def _run_pool(worker, args_list: list, threads: int) -> list:
    """Apply worker to every task; return the results in input order.

    Runs serially in this process when threads <= 1 (or there is at most
    one task).  Otherwise at most min(threads, tasks) forked workers take
    k = min(_CHUNKS_PER_WORKER * workers, tasks) strided chunks, one pool
    task each: chunk i is args_list[i::k].  Striding deals every chunk the
    same mix of the costly cells that a grid lists next to each other, so
    none piles onto one worker, while the parent dispatches k tasks rather
    than one per trial.  Every trial seeds itself from its own stream, so
    the results do not depend on threads.
    """
    workers = min(threads, len(args_list))
    if workers <= 1:
        return [worker(a) for a in args_list]
    k = min(_CHUNKS_PER_WORKER * workers, len(args_list))
    chunks = [args_list[i::k] for i in range(k)]
    results = [None] * len(args_list)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for i, out in enumerate(pool.map(functools.partial(_run_chunk, worker), chunks)):
            results[i::k] = out
    return results


# ------------------------------------------------------------ trial pipeline


def _measure(cfg: ExperimentConfig, ids: tuple, M: int, k: HiSparsity, snr_db: float,
             full: BlockStructure, prior: BlockStructure):
    """Draw A and the rows of the B_i, plant a k-sparse signal, measure it
    and add noise at snr_db; each draw comes from its own stream under `ids`.

    `full` is the structure of cfg.block_sizes().  The signal is drawn in
    `prior`, the structure of the window each block is known to hold its
    energy in (its first prior.block_sizes[i] coordinates), and zero-padded
    to the full blocks.  The runners build both structures once per run.

    Returns the operators on the full blocks and on the prior's windows
    (the same rows, cut to the windows; one object when they coincide), the
    noisy measurements and what every solve of the trial is scored
    against: (signal, noise floor, active blocks).
    """
    seed = cfg.master_seed
    A = gaussian_matrix(M, cfg.N, spawn_seedseq(seed, *ids, _ROLE_A))
    row_seeds = spawn_seedseqs(seed, *ids, _ROLE_B, count=cfg.N)
    rows = np.array([dft_rows(cfg.m, n, ss) for n, ss in zip(full.block_sizes, row_seeds)])
    H = dft_operator(A, rows, full)
    x_true = _embed_into(
        generate_signal(prior, k, spawn_seedseq(seed, *ids, _ROLE_SIGNAL)), full
    )
    y_clean = H.apply(x_true)
    y = add_noise(y_clean, snr_db, spawn_seedseq(seed, *ids, _ROLE_NOISE))
    truth = (
        x_true,
        noise_floor(y_clean, snr_db, x_true),
        HiSupport.of_nonzeros(x_true).active_blocks,
    )
    return (H, H.window(prior)), y, truth


def _check_scenario(cfg: ExperimentConfig, scenario: str) -> None:
    """The runners' gate: ValueError for a config of another scenario, then cfg.check()."""
    if cfg.scenario != scenario:
        raise ValueError(f"config is not a {scenario} config")
    cfg.check()


def _embed_into(est: BlockVector, structure: BlockStructure) -> BlockVector:
    """Zero-pad each block of est to the length of the same block of
    `structure`, which is at least as long."""
    src = est.structure
    shift = structure.starts - src.starts
    out = BlockVector.zeros(structure)
    out.coeffs[np.arange(src.total_dim) + shift[src.owner]] = est.coeffs
    return out


def _trial(cfg: ExperimentConfig, ids: tuple, full: BlockStructure, prior: BlockStructure,
           k: HiSparsity, M: int, snr_db: float, trial: int, modes: tuple) -> list[TrialRecord]:
    """One Monte Carlo trial: measure once (see _measure), then solve the
    same measurements with one timed hihtp per mode -- MODE_UNIFORM on the
    full blocks, MODE_MIXED on the prior's windows -- and score each
    estimate, zero-padded to the full blocks, against the planted signal.
    Returns one record per mode."""
    ops, y, (x_true, floor, true_active) = _measure(cfg, ids, M, k, snr_db, full, prior)
    seed = stream_fingerprint(cfg.master_seed, *ids)
    records = []
    for mode, H in zip(modes, ops):
        t0 = time.perf_counter()
        res = hihtp(H, y, k, cfg.solver)
        wall = (time.perf_counter() - t0) * 1e3
        err = mse(x_true, _embed_into(res.estimate, full))
        records.append(TrialRecord(
            scenario=cfg.scenario, s=k.s, sigma=k.sigma[0], M=M, N=cfg.N, m=cfg.m,
            snr_db=snr_db, mode=mode, trial=trial, seed=seed, mse=err, success=err <= floor,
            detection_rate=detection_rate(true_active, res.support.active_blocks, k.s),
            iterations=res.iterations, wall_millis=wall,
        ))
    return records


# ---------------------------------------------------------------- recovery


def _recovery_trial(args) -> list[TrialRecord]:
    cfg, full, k, snr_db, trial = args
    ids = (_SC_RECOVERY, k.s, k.sigma[0], _snr_key(snr_db), trial)
    return _trial(cfg, ids, full, full, k, cfg.M[0], snr_db, trial, (MODE_UNIFORM,))


def run_recovery_grid(cfg: ExperimentConfig, threads: int = 1):
    """Sweep the (s, sigma, snr) grid; returns (records, summary, skipped).

    Per trial: Gaussian mixing matrix, per-block subsampled-DFT inner
    matrices, a planted hierarchically sparse signal, noise at the cell
    SNR, one hihtp solve.  Success means the signal-domain MSE is at or
    below the per-entry measurement noise variance.  A cell whose budget
    HiSparsity refuses is skipped, with its message as the reason.
    """
    _check_scenario(cfg, SCENARIO_RECOVERY)
    full = BlockStructure(cfg.block_sizes())
    skipped, args = [], []
    for s in cfg.s_values:
        for sigma in cfg.sigma_values:
            try:
                k = HiSparsity.uniform(s, sigma, cfg.N)
                k.validate_for(full)
            except ValueError as exc:
                skipped.append({"s": s, "sigma": sigma, "reason": str(exc)})
                continue
            for snr in cfg.snr_db:
                for trial in range(cfg.trials):
                    args.append((cfg, full, k, snr, trial))
    for cell in skipped:
        log.warning("skipping infeasible cell %s", cell)
    records = list(itertools.chain.from_iterable(_run_pool(_recovery_trial, args, threads)))
    return records, summarize(records), skipped


# --------------------------------------------------------------- detection


def _detection_trial(args) -> list[TrialRecord]:
    cfg, full, prior, k, M, snr_db, trial = args
    ids = (_SC_DETECTION, M, _snr_key(snr_db), trial)
    return _trial(cfg, ids, full, prior, k, M, snr_db, trial, (MODE_UNIFORM, MODE_MIXED))


def run_block_detection(cfg: ExperimentConfig, threads: int = 1):
    """Active-block detection sweep over (M, snr); returns
    (records, summary, skipped).

    The block structure, the short-delay prior (cfg.windows()) and
    the budget, which cfg.check() has fitted to every window of the prior,
    are built once.  Each trial plants one signal inside the prior,
    measures it once, and solves twice: with uniform block lengths and with
    every block cut to its window.  Both runs share A, the B_i and the
    noise, so the two modes are directly comparable.
    """
    _check_scenario(cfg, SCENARIO_DETECTION)
    full, prior = BlockStructure(cfg.block_sizes()), BlockStructure(cfg.windows())
    k = HiSparsity.uniform(cfg.s_values[0], cfg.sigma_values[0], cfg.N)
    args = [
        (cfg, full, prior, k, M, snr, trial)
        for M in cfg.M
        for snr in cfg.snr_db
        for trial in range(cfg.trials)
    ]
    records = list(itertools.chain.from_iterable(_run_pool(_detection_trial, args, threads)))
    return records, summarize(records), []


# ---------------------------------------------------------- theorem verify


def _sample_block_matrix(rng, m, n):
    """Half subsampled DFT (when tall enough), half Gaussian."""
    if rng.integers(0, 2) == 1 and m <= n:
        return subsampled_dft(m, n, rng)
    return gaussian_matrix(m, n, rng)


def _random_instance(rng, N, M, m, n, s, sigma):
    """Random operator and budget, each dimension drawn up to its cap:
    N blocks, an M x N Gaussian mixing matrix, m x n_i block matrices,
    s active blocks and sigma_i <= sigma coordinates in block i."""
    N = int(rng.integers(2, N + 1))
    M = int(rng.integers(2, M + 1))
    m = int(rng.integers(2, m + 1))
    sizes = tuple(int(rng.integers(2, n + 1)) for _ in range(N))
    s = int(rng.integers(1, min(s, N) + 1))
    sig = tuple(int(rng.integers(1, min(sigma, sz) + 1)) for sz in sizes)
    H = HierarchicalOperator(
        gaussian_matrix(M, N, rng),
        tuple(_sample_block_matrix(rng, m, sz) for sz in sizes),
    )
    return H, HiSparsity(s, sig)


def _product_bound(cfg: ExperimentConfig, rng, tol: float):
    """Exact hierarchical constant of a random operator against the product
    bound on its constituents; None when an enumeration exceeds its budget."""
    H, k = _random_instance(rng, cfg.N, max(cfg.M), cfg.m, max(cfg.block_sizes()),
                            max(cfg.s_values), max(cfg.sigma_values))
    try:
        hi = hirip_constant_exact(H, k)
        da = rip_constant_exact(H.A, k.s).delta
        dbs = [rip_constant_exact(B, sig).delta for B, sig in zip(H.Bs, k.sigma)]
    except BudgetError as exc:
        log.warning("product-bound instance skipped: %s", exc)
        return None
    slack = hirip_bound(da, dbs) - hi.delta
    return slack, slack >= -tol


def _column_necessity(cfg: ExperimentConfig, rng, tol: float):
    """Every column-weighted block matrix inherits the hierarchical constant."""
    rep = column_necessity_check(*_random_instance(rng, 6, 8, 8, 5, 2, 2), tol=tol)
    return rep["min_slack"], rep["passed"]


def _mixing_necessity(cfg: ExperimentConfig, rng, tol: float):
    """Shared-block necessity bound for the mixing matrix; None when the
    premise fails and the bound is vacuous."""
    N = int(rng.integers(2, 7))
    M = int(rng.integers(2, 9))
    m = int(rng.integers(2, 9))
    n = int(rng.integers(2, 7))
    s = int(rng.integers(1, min(3, N) + 1))
    sig = int(rng.integers(1, min(2, n) + 1))
    B = _sample_block_matrix(rng, m, n)
    H = HierarchicalOperator(gaussian_matrix(M, N, rng), (B,) * N)
    k = HiSparsity.uniform(s, sig, N)
    pos = np.sort(rng.choice(n, size=sig, replace=False))
    g = np.zeros(n, dtype=np.complex128)
    g[pos] = complex_gaussian(rng, sig)
    g /= np.linalg.norm(g)
    active = tuple(int(b) for b in np.sort(rng.choice(N, size=s, replace=False)))
    rep = prop1_check(H, k, active, {b: g for b in active}, tol=tol)
    if rep["status"] != "checked":
        return None
    return rep["bound"] - rep["delta_a"], rep["passed"]


def _trace_inequality(cfg: ExperimentConfig, rng, tol: float):
    """Trace inequality for a PSD matrix with a random square pattern."""
    N = int(rng.integers(2, 9))
    M = int(rng.integers(2, 11))
    s = int(rng.integers(1, min(4, N) + 1))
    A = gaussian_matrix(M, N, rng)
    pattern = np.sort(rng.choice(N, size=s, replace=False))
    rank = int(rng.integers(1, s + 1))
    Y = complex_gaussian(rng, (s, rank))
    X = np.zeros((N, N), dtype=np.complex128)
    X[np.ix_(pattern, pattern)] = Y @ Y.conj().T
    rep = lemma1_check(A, X, tol=tol)
    return rep["delta"] * rep["nuclear_norm"] - rep["deviation"], rep["passed"]


@dataclass(frozen=True)
class BoundFamily:
    """One row of the theorem-verify table.

    check(cfg, rng, tol) samples one instance from rng and returns
    (slack, passed), or None when the instance yields no slack; those are
    counted under none_key.  Instance j of a family draws from
    SeedSequence(master_seed, theorem scenario, stream, j).  Only the
    product bound sizes its instances from cfg; the other families draw
    fixed desk-scale shapes.
    """

    key: str
    check: Callable
    stream: int
    cap: int | None  # at most this many instances; None: cfg.trials
    tol: float
    none_key: str | None


BOUND_FAMILIES = (
    BoundFamily("product_bound", _product_bound, 10, None, 1e-10, "skipped"),
    BoundFamily("column_necessity", _column_necessity, 11, 100, 1e-10, None),
    BoundFamily("mixing_necessity", _mixing_necessity, 12, 50, 1e-9, "vacuous"),
    BoundFamily("trace_inequality", _trace_inequality, 13, 100, 1e-9, None),
)


def _bound_instance(args):
    cfg, row, j = args
    fam = BOUND_FAMILIES[row]
    rng = as_rng(spawn_seedseq(cfg.master_seed, _SC_THEOREM, fam.stream, j))
    return fam.check(cfg, rng, fam.tol)


def run_theorem_verify(cfg: ExperimentConfig, threads: int = 1) -> dict:
    """Verify the isometry bounds on random desk-scale instances.

    One pass over BOUND_FAMILIES: the product bound on the hierarchical
    constant, the column-necessity inequality, the shared-block necessity
    bound for the mixing matrix (plus the fixed orthogonal-subspace
    construction where the premise is deliberately vacuous), and the trace
    inequality for pattern-sparse Hermitian matrices.  Instances run on the
    trial pool; the report does not depend on `threads`.  Returns the
    JSON-ready report.
    """
    _check_scenario(cfg, SCENARIO_THEOREM)
    counts = [cfg.trials if f.cap is None else min(f.cap, cfg.trials) for f in BOUND_FAMILIES]
    tasks = [(cfg, row, j) for row, n in enumerate(counts) for j in range(n)]
    outcomes = iter(_run_pool(_bound_instance, tasks, threads))
    report = {"scenario": SCENARIO_THEOREM, "master_seed": cfg.master_seed}
    for fam, n in zip(BOUND_FAMILIES, counts):
        done = [o for o in itertools.islice(outcomes, n) if o is not None]
        report[fam.key] = {
            "instances": n,
            "violations": sum(not passed for _, passed in done),
            "worst_slack": min((slack for slack, _ in done), default=math.inf),
            "tolerance": fam.tol,
        }
        if fam.none_key is not None:
            report[fam.key][fam.none_key] = n - len(done)

    mixing = report["mixing_necessity"]
    mixing["checked"] = mixing["instances"] - mixing["vacuous"]
    if not mixing["checked"]:
        mixing["worst_slack"] = None
    ortho = mixing["orthogonal_subspace_case"] = _orthogonal_subspace_case(mixing["tolerance"])
    report["passed"] = (
        all(report[f.key]["violations"] == 0 for f in BOUND_FAMILIES)
        and ortho["status"] == "premise violated, bound vacuous"
        and ortho["delta_hirip"] <= 1e-10
    )
    return report


def _orthogonal_subspace_case(tol: float) -> dict:
    """Blocks mapping into pairwise orthogonal coordinate slices with a
    single all-ones mixing row: the hierarchical constant is zero although
    the 1 x N mixing matrix has no isometry property at all, and the
    necessity bound's premise fails (the block images cannot collide)."""
    N, n = 3, 2
    m = N * n
    Bs = []
    for i in range(N):
        B = np.zeros((m, n), dtype=np.complex128)
        B[i * n : (i + 1) * n, :] = np.eye(n)
        Bs.append(B)
    H = HierarchicalOperator(np.ones((1, N)), tuple(Bs))
    k = HiSparsity.uniform(2, 1, N)
    g = np.zeros(n, dtype=np.complex128)
    g[0] = 1.0
    return prop1_check(H, k, (0, 1), {0: g, 1: g}, tol=tol)
