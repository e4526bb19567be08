"""hisparse benchmark: one workload, end-to-end metrics or a traced breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory.  BLAS is pinned to one thread in this process and in the
pool workers it forks.  Workloads and their reference outputs are defined
in workloads.py and reference.json.

--trace 0 runs the workload's passes back to back, untraced, for S seconds
and reports the end-to-end metrics.  Pass times are host-adjusted (see
host_probe): shared cores run the same code up to 1.8x slower for seconds
to tens of seconds at a time, so each pass's time is divided by the host's
slowness, measured next to it with a fixed probe.  The unadjusted figures
are printed as info.

    setup_s       median wall time of a fresh interpreter importing the
                  package and building the workload's configuration, over
                  SETUP_REPEATS interpreters started between passes
    trials_per_s  Monte Carlo trials per second (a detection trial solves
                  both modes; a theorem-verify trial is one instance of
                  each of the four bound families)
    step_ms_p50   median time of one step: a pursuit iteration, or a
                  theorem-verify trial
    peak_rss_mb   peak resident set of this process or any child; on
                  theorem-verify, of a fresh interpreter running the pool's
                  costliest passes (workloads.Workload.rss_passes)

--trace 1 runs a fixed number of passes untraced and then the same passes
traced, and reports the per-layer metrics (tracer.py, workloads.install).

Every trial's outputs are checked against reference.json; the exit code is
1 when a check fails.  A JSON document with the environment, the checks
and informational figures (p90s, success and detection rates, failed
fraction, bound violations, byte identity of the written outputs) comes
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
# the unit of host slowness: host_probe takes 3.4-5.6 ms on the 2-core x86
# VM this benchmark was tuned on, depending on what shares its cores
PROBE_NOMINAL_S = 4e-3
PROBE_EVERY_S = 0.5
END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile: always one of the measured values (0.0 when
    every pass failed)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _environment(wl, load_before: float, load_after: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "pool_workers": wl.threads,
        "git_commit": _git_commit(),
        "load_1min_before": load_before,
        "load_1min_after": load_after,
        "contended": load_before > nproc,
    }


def _fresh_python(code: str) -> str:
    """Run code in a fresh interpreter that imports from src/ and perfbench/;
    return its standard output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True).stdout


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter loops and a small symmetric
    eigensolve, the two kinds of work the workloads do (median of three)."""
    import numpy as np

    a = np.random.default_rng(0).standard_normal((60, 60))
    gram = a @ a.T
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(12):
            acc = 0
            for i in range(2000):
                acc += i * i
            np.linalg.eigvalsh(gram)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _setup_sample(workload: str) -> float:
    """Wall time of a fresh interpreter importing the package and building
    the workload's configuration.

    Not host-adjusted: start-up time follows the host's slowness (up to
    1.7x within seconds) but not host_probe, so the samples are spread over
    the run instead, and their median is reported."""
    code = f"import workloads; workloads.WORKLOADS[{workload!r}].config(0)"
    t0 = time.perf_counter()
    _fresh_python(code)
    return time.perf_counter() - t0


def _peak_rss_mb(wl, reference: dict) -> float:
    if not wl.rss_passes:
        kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        return kb / 1024.0
    import workloads

    seeds = workloads.costliest_seeds(wl, reference, wl.rss_passes)
    # VmHWM, not ru_maxrss: Linux carries the parent's peak across exec
    # into the child's ru_maxrss
    code = (
        "import workloads; "
        f"wl = workloads.WORKLOADS[{wl.name!r}]; "
        f"[workloads.run_pass(wl, s) for s in {seeds!r}]; "
        "print(*[l.split()[1] for l in open('/proc/self/status') "
        "if l.startswith('VmHWM:')])"
    )
    return int(_fresh_python(code).split()[-1]) / 1024.0


def _trials(wl, passes) -> int:
    return len(passes) * wl.trials_per_pass


def _completed_trials(wl, passes) -> int:
    return _trials(wl, [p for p in passes if p.error is None])


def _timed_passes(wl, seeds, seconds: float):
    """Run passes back to back for `seconds`; return them with each pass's
    host slowness and the run's set-up time.

    A pass's slowness is the mean of the two probes around its stretch of
    passes, in units of PROBE_NOMINAL_S.  Probes run between passes, at
    most every PROBE_EVERY_S; set-up samples run between passes, evenly
    over the run.  Neither is part of any pass's time."""
    import workloads

    passes, slowness, setups = [], [], []
    last = host_probe()
    t0 = t_probe = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        passes.append(workloads.run_pass(wl, next(seeds)))
        elapsed = time.perf_counter() - t0
        if (len(setups) < SETUP_REPEATS
                and len(setups) * seconds <= SETUP_REPEATS * elapsed):
            setups.append(_setup_sample(wl.name))
        if time.perf_counter() - t_probe >= PROBE_EVERY_S:
            probe = host_probe()
            factor = (last + probe) / (2 * PROBE_NOMINAL_S)
            slowness += [factor] * (len(passes) - len(slowness))
            last, t_probe = probe, time.perf_counter()
    if len(slowness) < len(passes):
        factor = (last + host_probe()) / (2 * PROBE_NOMINAL_S)
        slowness += [factor] * (len(passes) - len(slowness))
    setups += [_setup_sample(wl.name) for _ in range(SETUP_REPEATS - len(setups))]
    return passes, slowness, statistics.median(setups)


def _step_samples_ms(wl, passes, slowness) -> list[float]:
    """Wall time of one step, divided by its pass's host slowness: a pursuit
    iteration (each solve's wall_millis over its iterations) or, in
    theorem-verify, one whole pass.

    Iteration counts are pinned by the reference check, so per-iteration
    time moves with solve time on the same inputs, without the spread that
    different iteration counts give across seeds."""
    if wl.solves_per_trial == 0:
        return [p.wall_s * 1e3 / f for p, f in zip(passes, slowness) if p.error is None]
    return [r.wall_millis / r.iterations / f
            for p, f in zip(passes, slowness) if p.records for r in p.records]


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def measure(wl, seed: int, seconds: float, reference: dict) -> dict:
    import workloads

    workloads.warm_up()
    seeds = workloads.master_seeds(wl, seed, reference)
    passes, slowness, setup_s = _timed_passes(wl, seeds, seconds)
    wall = sum(p.wall_s for p in passes)
    steps = _step_samples_ms(wl, passes, slowness)
    values = {
        "setup_s": setup_s,
        "trials_per_s": _completed_trials(wl, passes)
        / sum(p.wall_s / f for p, f in zip(passes, slowness)),
        "step_ms_p50": _percentile(steps, 50),
        "peak_rss_mb": _peak_rss_mb(wl, reference),
    }
    records = [r for p in passes if p.records for r in p.records]
    solves = [r.wall_millis for r in records] if wl.solves_per_trial else steps
    info = {
        "host_slowness_min_median_max": [
            min(slowness), statistics.median(slowness), max(slowness)],
        "trials_per_s_unadjusted": _completed_trials(wl, passes) / wall,
        "step_ms_p50_unadjusted": _percentile(
            _step_samples_ms(wl, passes, [1.0] * len(passes)), 50),
        "step_samples": len(steps),
        "step_ms_p90": _percentile(steps, 90),
        "solve_samples": len(solves),
        "solve_ms_p50": _percentile(solves, 50),
        "solve_ms_p90": _percentile(solves, 90),
        "success_rate": _mean(r.success for r in records),
        "detection_rate_uniform": _mean(
            r.detection_rate for r in records if r.mode == "uniform"),
        "detection_rate_mixed": _mean(
            r.detection_rate for r in records if r.mode == "mixed"),
    }
    return {
        "passes": passes,
        "wall_s": wall,
        "info": info,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }


def _layer_metrics(wl, stats: dict, untraced, traced) -> dict:
    def stat(name, key, default=0.0):
        return stats[name][key] if name in stats else default

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    for layer in ("operators.apply", "operators.adjoint_apply", "blocks.hi_threshold"):
        put(f"{layer}.calls", stat(layer, "calls", 0), "count")
        put(f"{layer}.ms_p50", stat(layer, "ms_p50"), "ms")
        put(f"{layer}.self_s", stat(layer, "self_s"), "s")

    solves = stats.get("solvers.hihtp", {}).get("spans", [])
    iterations = sum(s.attrs["iterations"] for s in solves)
    hihtp_self = stat("solvers.hihtp", "self_s")
    traced_wall = sum(p.wall_s for p in traced)
    put("solvers.hihtp.calls", len(solves), "count")
    put("solvers.hihtp.self_s", hihtp_self, "s")
    put("solvers.hihtp.self_frac", hihtp_self / (wl.threads * traced_wall), "ratio")
    put("solvers.hihtp.self_ms_per_iter",
        hihtp_self * 1e3 / iterations if iterations else 0.0, "ms")
    put("solvers.iterations", iterations, "count")
    for key, stop in (("max_iters_frac", "max-iters"), ("ls_failure_frac", "ls-failure")):
        hits = sum(s.attrs["stop"] == stop for s in solves)
        put(f"solvers.{key}", hits / len(solves) if solves else 0.0, "ratio")

    put("ensembles.draw.calls", stat("ensembles.draw", "calls", 0), "count")
    put("ensembles.draw.self_s", stat("ensembles.draw", "self_s"), "s")
    put("harness.signals.self_s", stat("harness.signals", "self_s"), "s")
    solve_s = sum(r.wall_millis for p in untraced if p.records for r in p.records) / 1e3
    untraced_wall = sum(p.wall_s for p in untraced)
    put("harness.pool_solve_share", solve_s / (wl.threads * untraced_wall), "ratio")

    hirip = stats.get("riplab.hirip_constant_exact", {}).get("spans", [])
    supports = sum(s.attrs["supports"] for s in hirip)
    hirip_self = stat("riplab.hirip_constant_exact", "self_s")
    put("riplab.hirip_constant_exact.calls", len(hirip), "count")
    put("riplab.hirip_constant_exact.self_s", hirip_self, "s")
    put("riplab.rip_constant_exact.self_s", stat("riplab.rip_constant_exact", "self_s"), "s")
    put("riplab.supports_examined", supports, "count")
    put("riplab.supports_per_s", supports / hirip_self if hirip_self else 0.0, "1/s")
    put("riplab.checks.self_s", stat("riplab.checks", "self_s"), "s")

    put("trace.wall_s", traced_wall, "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "ratio")
    return out


def trace(wl, seed: int, reference: dict) -> dict:
    import workloads
    from tracer import Tracer, layer_stats

    workloads.warm_up()
    seeds = workloads.master_seeds(wl, seed, reference)
    chosen = [next(seeds) for _ in range(wl.trace_passes)]
    untraced = [workloads.run_pass(wl, s) for s in chosen]
    tracer = Tracer()
    workloads.install(tracer)
    try:
        traced = [workloads.run_pass(wl, s, tracer) for s in chosen]
    finally:
        restored = tracer.restore()
    same_outputs = all(_outputs(u) == _outputs(t) for u, t in zip(untraced, traced))
    metrics = _layer_metrics(wl, layer_stats(tracer), untraced, traced)
    supports = sum(reference[str(s)].get("supports", 0) for s in chosen)
    return {
        "passes": untraced + traced,
        "wall_s": sum(p.wall_s for p in traced),
        "info": {"spans": len(tracer.spans), "reference_supports": supports},
        "trace_checks": {
            "wrappers_restored": restored,
            "traced_outputs_identical": same_outputs,
            "supports_match_reference":
                metrics["riplab.supports_examined"]["value"] == supports,
        },
        "metrics": metrics,
    }


def _outputs(p):
    from workloads import outcomes

    return outcomes(p.records) if p.records is not None else p.report


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "hisparse" / "__init__.py").is_file():
        print(f"no hisparse sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    reference = workloads.load_reference()[wl.name]
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}[wl.name]

    load_before = os.getloadavg()[0]
    if args.trace:
        run = trace(wl, args.seed, reference)
    else:
        run = measure(wl, args.seed, args.seconds, reference)
    load_after = os.getloadavg()[0]

    passes = run["passes"]
    checks = workloads.check_passes(wl, passes, reference)
    checks.update(run.get("trace_checks", {}))
    correct = checks["ok"] and all(run.get("trace_checks", {}).values())
    attempted = _trials(wl, passes)
    checks["failed_frac"] = checks["failed"] / attempted
    errors = [p.error for p in passes if p.error]
    result = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "why": why,
        "expected": workloads.expected_moves(wl.name),
        "env": _environment(wl, load_before, load_after),
        "passes": len(passes),
        "master_seeds": [p.master_seed for p in passes],
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "wall_s": run["wall_s"],
        "info": run["info"],
        "checks": checks,
        "errors": errors[:3],
        "metrics": run["metrics"],
    }
    print(json.dumps(result, indent=2))
    for name, m in run["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": checks["failed"],
        "metrics": run["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
