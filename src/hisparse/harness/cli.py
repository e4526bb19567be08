"""Command line entry point.

    hisparse recovery-grid    [--config cfg.json | --paper-scale] [--seed N]
                              [--out DIR] [--threads T]
    hisparse block-detection  (same flags)
    hisparse theorem-verify   (same flags except --paper-scale)

recovery-grid and block-detection write trials.csv and summary.json into
the output directory; theorem-verify writes report.json.  The exit code is
nonzero iff an invariant self-check fails (aggregates that do not match
their records, or a bound violation in theorem-verify).
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import (
    SCENARIO_DETECTION,
    SCENARIO_RECOVERY,
    SCENARIO_THEOREM,
    ExperimentConfig,
    _dump_json,
    preset,
)
from .experiments import (
    BOUND_FAMILIES,
    run_block_detection,
    run_recovery_grid,
    run_theorem_verify,
    summarize,
    write_trials_csv,
)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hisparse",
        description="Monte Carlo experiments for hierarchically sparse recovery",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in (SCENARIO_RECOVERY, SCENARIO_DETECTION, SCENARIO_THEOREM):
        p = sub.add_parser(name)
        source = p.add_mutually_exclusive_group()
        source.add_argument("--config", type=Path, default=None,
                            help="JSON config mirroring ExperimentConfig")
        p.set_defaults(paper_scale=False)  # theorem-verify has only the desk preset
        if name != SCENARIO_THEOREM:
            source.add_argument("--paper-scale", action="store_true",
                                help="use the full-size experiment dimensions")
        p.add_argument("--seed", type=int, default=None,
                       help="override the master seed")
        p.add_argument("--out", type=Path, default=None,
                       help="output directory (created if missing); defaults "
                            "to the config's output_path or the cwd")
        p.add_argument("--threads", type=_positive_int, default=1,
                       help="worker processes for the trial pool")
    return parser


def _load_config(args) -> ExperimentConfig:
    if args.config is not None:
        try:
            cfg = ExperimentConfig.from_json(args.config)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot load config {args.config}: {exc}")
        if cfg.scenario != args.scenario:
            raise SystemExit(
                f"config file is for scenario {cfg.scenario!r}, "
                f"subcommand is {args.scenario!r}"
            )
    else:
        cfg = preset(args.scenario, paper_scale=args.paper_scale)
    if args.seed is not None:
        cfg.master_seed = args.seed
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = _build_parser().parse_args(argv)
    cfg = _load_config(args)
    out = args.out
    if out is None:
        out = Path(cfg.output_path) if cfg.output_path else Path(".")
    out.mkdir(parents=True, exist_ok=True)

    if args.scenario == SCENARIO_THEOREM:
        report = run_theorem_verify(cfg, threads=args.threads)
        _dump_json(report, out / "report.json")
        print(f"report.json written to {out}")
        for family in BOUND_FAMILIES:
            info = report[family.key]
            print(f"  {family.key}: {info['violations']} violations "
                  f"in {info['instances']} instances")
        print(f"passed: {report['passed']}")
        return 0 if report["passed"] else 1

    runner = run_recovery_grid if args.scenario == SCENARIO_RECOVERY else run_block_detection
    records, summary, skipped = runner(cfg, threads=args.threads)
    write_trials_csv(records, out / "trials.csv", measured_timing=cfg.measured_timing)
    _dump_json(
        {"scenario": cfg.scenario, "config": cfg.to_dict(), "cells": summary,
         "skipped_cells": skipped},
        out / "summary.json",
    )
    print(f"{len(records)} trials written to {out / 'trials.csv'}")
    for row in summary:
        print(
            f"  s={row['s']} sigma={row['sigma']} M={row['M']} "
            f"snr={row['snr_db']} mode={row['mode']}: "
            f"success {row['success_rate']:.2f}, "
            f"detection {row['mean_detection_rate']:.2f}"
        )
    # invariant self-check: the written aggregates must match the records
    if summarize(records) != summary:
        print("invariant violation: summary does not match records", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
