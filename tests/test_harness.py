import dataclasses
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hisparse import riplab
from hisparse.blocks import BlockStructure, BlockVector, HiSparsity, is_hi_sparse
from hisparse.harness import experiments
from hisparse.harness.cli import main as cli_main
from hisparse.harness.config import (
    ExperimentConfig,
    desk_block_detection,
    desk_recovery_grid,
    desk_theorem_verify,
    preset,
)
from hisparse.harness.experiments import (
    CSV_COLUMNS,
    read_trials_csv,
    run_block_detection,
    run_recovery_grid,
    run_theorem_verify,
    summarize,
    write_trials_csv,
)
from hisparse.harness.signals import (
    add_noise,
    detection_rate,
    generate_signal,
    mse,
    noise_floor,
)
from hisparse.ensembles import complex_gaussian
from hisparse.errors import BudgetError, DimensionError


def tiny_grid_config(**overrides):
    base = dict(
        scenario="recovery-grid",
        M=(6,),
        N=6,
        m=8,
        block_lengths=10,
        s_values=(1, 2),
        sigma_values=(1, 2),
        snr_db=(10.0,),
        trials=3,
        master_seed=99,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_detection_config(**overrides):
    base = dict(
        scenario="block-detection",
        M=(4,),
        N=6,
        m=10,
        block_lengths=16,
        s_values=(2,),
        sigma_values=(2,),
        snr_db=(10.0,),
        trials=3,
        master_seed=99,
        front_width=4,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateSignal:
    def test_single_nonzero(self):
        st = BlockStructure.uniform(5, 7)
        x = generate_signal(st, HiSparsity.uniform(1, 1, 5), 1)
        assert np.count_nonzero(x.coeffs) == 1

    def test_always_hi_sparse(self):
        st = BlockStructure.uniform(6, 9)
        k = HiSparsity.uniform(3, 2, 6)
        for seed in range(100):
            assert is_hi_sparse(generate_signal(st, k, seed), k)

    def test_front_loaded_window(self):
        # _measure plants the detection signal inside the prior: the first
        # N // 2 blocks hold it in their first front_width coordinates only,
        # and the other blocks reach past them
        cfg = tiny_detection_config()
        full = BlockStructure(cfg.block_sizes())
        prior = BlockStructure(cfg.windows())
        k = HiSparsity.uniform(2, 2, cfg.N)
        reached = False
        for trial in range(40):
            _, _, (x, _, _) = experiments._measure(cfg, (2, 4, 0, trial), 4, k, 10.0, full,
                                                    prior)
            for i in range(cfg.N):
                nz = np.flatnonzero(x.block(i))
                if i < cfg.N // 2:
                    assert nz.size == 0 or nz.max() < cfg.front_width
                else:
                    reached |= nz.size > 0 and nz.max() >= cfg.front_width
        assert reached

    def test_front_loaded_only_designated(self):
        # a prior whose block 0 is a window of 5 taps and whose block 1 is
        # the whole block: after the embed, block 0 holds the draw in its
        # first 5 coordinates, and block 1 reaches past them
        st = BlockStructure.uniform(2, 30)
        prior = BlockStructure((5, 30))
        k = HiSparsity.uniform(2, 4, 2)
        saw_outside = False
        for seed in range(50):
            x = experiments._embed_into(generate_signal(prior, k, seed), st)
            nz0 = np.flatnonzero(x.block(0))
            assert nz0.max() < 5
            if np.flatnonzero(x.block(1)).max() >= 5:
                saw_outside = True
        assert saw_outside

    def test_window_too_small(self):
        st = BlockStructure.uniform(2, 3)
        with pytest.raises(ValueError):
            generate_signal(st, HiSparsity.uniform(2, 4, 2), 0)

    def test_window_too_small_fails_for_every_seed(self):
        # one active block of ten, and only block 7's window is narrower
        # than its budget: the draw rarely activates it, so the check must
        # not wait for the draw
        st = BlockStructure((30,) * 7 + (3,) + (30,) * 2)
        k = HiSparsity(1, (2,) * 7 + (4,) + (2,) * 2)
        for seed in range(100):
            with pytest.raises(ValueError, match="sigma_7=4"):
                generate_signal(st, k, seed)

    def test_deterministic(self):
        st = BlockStructure.uniform(4, 8)
        k = HiSparsity.uniform(2, 2, 4)
        a = generate_signal(st, k, 5)
        b = generate_signal(st, k, 5)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    @pytest.mark.parametrize("placement", ["uniform", "front-loaded"])
    def test_zero_budget_active_blocks(self, placement):
        # The detection signal is drawn in the prior's windows and
        # zero-padded.  It equals, byte for byte, the loop that draws each
        # active block's positions from its first front_width coordinates
        # when it is one of the first N // 2 blocks (front-loaded) or from
        # all of them (uniform); an active block with sigma_i = 0 stays
        # zero and takes nothing from the stream.
        N, front_width = 5, 4
        st = BlockStructure((6, 9, 4, 7, 5))
        k = HiSparsity(3, (0, 2, 0, 3, 1))
        prior = st
        if placement == "front-loaded":
            cfg = tiny_detection_config(N=N, block_lengths=st.block_sizes,
                                        front_width=front_width)
            prior = BlockStructure(cfg.windows())
            assert prior.block_sizes == (4, 4, 4, 7, 5)
        zero_active = 0
        for seed in range(60):
            rng = np.random.default_rng(seed)
            want = BlockVector.zeros(st)
            for i in np.sort(rng.choice(N, size=3, replace=False)):
                sig = k.sigma[i]
                zero_active += sig == 0
                domain = st.block_sizes[i]
                if placement == "front-loaded" and i < N // 2:
                    domain = min(domain, front_width)
                pos = np.sort(rng.choice(domain, size=sig, replace=False))
                want.block(i)[pos] = complex_gaussian(rng, sig)
            got = experiments._embed_into(generate_signal(prior, k, seed), st)
            assert got.coeffs.tobytes() == want.coeffs.tobytes()
        assert zero_active > 0


class TestNoise:
    def test_infinite_snr_is_identity(self):
        y = np.array([1.0, 2j, -3.0])
        out = add_noise(y, math.inf, 0)
        np.testing.assert_array_equal(out, y)
        assert out is not y

    def test_deterministic(self):
        y = np.ones(64, dtype=complex)
        np.testing.assert_array_equal(add_noise(y, 5.0, 3), add_noise(y, 5.0, 3))

    def test_empirical_snr_within_half_db(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        for target in (0.0, 10.0, -5.0):
            ratios = []
            for seed in range(1000):
                eta = add_noise(y, target, seed) - y
                ratios.append(np.linalg.norm(y) ** 2 / np.linalg.norm(eta) ** 2)
            measured_db = 10 * np.log10(np.mean(ratios))
            assert abs(measured_db - target) <= 0.5

    def test_nan_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise(np.ones(4, dtype=complex), math.nan, 0)

    def test_minus_infinite_snr_rejected(self):
        with pytest.raises(ValueError, match="snr_db"):
            add_noise(np.ones(4, dtype=complex), -math.inf, 0)

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError):
            add_noise(np.zeros(4), 10.0, 0)

    def test_noise_floor_matches_variance(self):
        y = np.ones(100, dtype=complex)
        st = BlockStructure.uniform(2, 2)
        x = BlockVector(st, np.ones(4))
        floor = noise_floor(y, 10.0, x)
        assert abs(floor - 100.0 / (100 * 10.0)) <= 1e-15
        assert noise_floor(y, math.inf, x) == pytest.approx(1e-12)

    @pytest.mark.parametrize("snr_db", [math.nan, -math.inf])
    def test_noise_floor_rejects_bad_snr(self, snr_db):
        x = BlockVector(BlockStructure.uniform(2, 2), np.ones(4))
        with pytest.raises(ValueError, match="snr_db"):
            noise_floor(np.ones(4, dtype=complex), snr_db, x)


class TestMse:
    def test_zero_for_equal(self):
        st = BlockStructure.uniform(2, 3)
        x = BlockVector(st, np.arange(6, dtype=complex))
        assert mse(x, x) == 0.0

    def test_direct_value(self):
        st = BlockStructure((2,))
        x = BlockVector(st, np.array([1.0, 0.0]))
        zero = BlockVector.zeros(st)
        assert mse(x, zero) == pytest.approx(0.5)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        st = BlockStructure.uniform(3, 4)
        x = BlockVector(st, rng.standard_normal(12) + 1j * rng.standard_normal(12))
        xh = BlockVector(st, rng.standard_normal(12) + 1j * rng.standard_normal(12))
        c = 0.7 - 0.2j
        shifted = mse(
            BlockVector(st, x.coeffs + c), BlockVector(st, xh.coeffs + c)
        )
        assert shifted == pytest.approx(mse(x, xh), rel=1e-12)

    def test_structure_mismatch(self):
        with pytest.raises(DimensionError):
            mse(
                BlockVector(BlockStructure((2, 2)), np.zeros(4)),
                BlockVector(BlockStructure((4,)), np.zeros(4)),
            )

    def test_oracle_detection_rate(self):
        assert detection_rate({1, 2, 3}, (1, 2, 3), 3) == 1.0
        assert detection_rate({1, 2, 3}, (1, 5, 6), 3) == pytest.approx(1 / 3)


def _no_trials(*args):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("field, value", [
    ("snr_db", (math.nan,)),
    ("snr_db", (10.0, -math.inf)),
    ("front_width", 0),
    ("front_width", -3),
    # an empty sweep axis would run no trial and report success, and a
    # scalar one (set after construction) failed with a bare TypeError
    pytest.param("M", (), id="M-empty"),
    pytest.param("s_values", (), id="s_values-empty"),
    pytest.param("sigma_values", (), id="sigma_values-empty"),
    pytest.param("snr_db", (), id="snr_db-empty"),
    pytest.param("snr_db", 10.0, id="snr_db-scalar"),
    pytest.param("s_values", 2, id="s_values-scalar"),
    # a fractional count would be truncated, and a bool read as 0 or 1
    pytest.param("s_values", (2.7,), id="s_values-fractional"),
    pytest.param("sigma_values", (1, 1.5), id="sigma_values-fractional"),
    pytest.param("M", (4.0,), id="M-float"),
    pytest.param("block_lengths", 10.5, id="block_lengths-fractional"),
    pytest.param("trials", 2.5, id="trials-fractional"),
    pytest.param("N", True, id="N-bool"),
    # an explicit length per block, but not N of them
    pytest.param("block_lengths", (8, 8), id="block_lengths-count"),
    # a fractional or bool seed ran every trial as seed 1
    pytest.param("master_seed", 1.5, id="master_seed-fractional"),
    pytest.param("master_seed", True, id="master_seed-bool"),
    # a string or null SNR failed inside math.isnan, and True ran at 1 dB
    pytest.param("snr_db", ("10",), id="snr_db-string"),
    pytest.param("snr_db", (None,), id="snr_db-null"),
    pytest.param("snr_db", (True,), id="snr_db-bool"),
    # a truthy string wrote wall times into trials.csv
    pytest.param("measured_timing", "false", id="measured_timing-string"),
    # a number failed in Path() after the config loaded
    pytest.param("output_path", 5, id="output_path-number"),
    # a JSON null in a whole field raised TypeError iterating or sizing None
    pytest.param("master_seed", None, id="master_seed-null"),
    pytest.param("M", None, id="M-null"),
    # a zero block budget failed inside the first trial, in a pool worker
    # at threads 2, and a negative in-block one was never meant to run
    pytest.param("s_values", (0,), id="s_values-zero"),
    pytest.param("sigma_values", (-1,), id="sigma_values-negative"),
])
def test_unrunnable_values_refused_up_front(monkeypatch, threads, field, value):
    # refused with a message naming the field, on construction and, for a
    # field set afterwards, by the runner before any trial (pool or not)
    monkeypatch.setattr(experiments, "_run_pool", _no_trials)
    for make, run in ((tiny_grid_config, run_recovery_grid),
                      (tiny_detection_config, run_block_detection)):
        with pytest.raises(ValueError, match=field):
            make(**{field: value})
        cfg = make()
        setattr(cfg, field, value)
        with pytest.raises(ValueError, match=field):
            run(cfg, threads=threads)


@pytest.mark.parametrize("field, value", [
    ("s_values", (0,)),
    ("sigma_values", (0,)),
    ("m", 1),
    ("N", 1),
    ("M", (1,)),
    ("block_lengths", 1),
])
def test_theorem_verify_caps_refused_up_front(monkeypatch, field, value):
    # theorem-verify draws each instance's sizes and budgets from ranges
    # capped by these fields; a cap that empties a range failed inside the
    # instance sampler with numpy's "low >= high"
    monkeypatch.setattr(experiments, "_run_pool", _no_trials)
    with pytest.raises(ValueError, match=field):
        dataclasses.replace(desk_theorem_verify(4), **{field: value})
    cfg = desk_theorem_verify(4)
    setattr(cfg, field, value)
    with pytest.raises(ValueError, match=field):
        run_theorem_verify(cfg, threads=2)
    # only the largest entry of a sweep is a cap
    dataclasses.replace(desk_theorem_verify(4), M=(1, 3), s_values=(0, 2), sigma_values=(0, 1))


@pytest.mark.parametrize("threads", [1, 2])
def test_m_above_shortest_block_refused_before_any_trial(monkeypatch, threads):
    # every trial draws m distinct DFT rows per block; a config on blocks
    # shorter than m constructs (it may only describe a prior) but is
    # refused by the runner with a message naming m, not by dft_rows
    # inside the first trial
    monkeypatch.setattr(experiments, "_run_pool", _no_trials)
    for run, cfg in (
        (run_recovery_grid, tiny_grid_config(m=40, block_lengths=32)),
        (run_block_detection, tiny_detection_config(m=50, block_lengths=40)),
        (run_block_detection, tiny_detection_config(block_lengths=(16, 12, 16, 9, 16, 20))),
    ):
        with pytest.raises(ValueError, match=rf"\bm = {cfg.m} exceeds"):
            run(cfg, threads=threads)
    # m equal to the shortest block runs
    monkeypatch.setattr(experiments, "_run_pool", lambda worker, args, threads: [])
    assert run_recovery_grid(tiny_grid_config(m=10), threads=threads)[0] == []
    assert run_block_detection(tiny_detection_config(block_lengths=(16, 10, 16, 10, 16, 20)),
                               threads=threads)[0] == []


@pytest.mark.parametrize("make", [
    pytest.param(lambda: ExperimentConfig(scenario="grid"), id="config"),
    pytest.param(lambda: preset("grid"), id="preset"),
])
def test_unknown_scenario_refused(make):
    with pytest.raises(ValueError, match="unknown scenario 'grid'"):
        make()


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("run, make, overrides, message", [
    (run_recovery_grid, tiny_grid_config, {"M": (4, 8)},
     "the recovery grid uses a single antenna count"),
    (run_block_detection, tiny_detection_config, {"s_values": (1, 2)},
     r"block detection uses a single \(s, sigma\) cell"),
    (run_block_detection, tiny_detection_config, {"sigma_values": (1, 2)},
     r"block detection uses a single \(s, sigma\) cell"),
])
def test_run_rules_refused_before_any_trial(monkeypatch, threads, run, make, overrides,
                                            message):
    # a config that describes more than its runner runs constructs, and
    # check(), which the runner calls first, refuses it
    monkeypatch.setattr(experiments, "_run_pool", _no_trials)
    cfg = make(**overrides)
    with pytest.raises(ValueError, match=message):
        run(cfg, threads=threads)


def test_numpy_integer_counts_become_ints(tmp_path):
    cfg = tiny_grid_config(M=np.int64(6), s_values=np.array([1, 2]), block_lengths=np.int64(10))
    assert cfg.M == (6,) and cfg.s_values == (1, 2) and cfg.block_lengths == 10
    assert all(type(v) is int for v in cfg.M + cfg.s_values + (cfg.block_lengths,))
    cfg.to_json(tmp_path / "cfg.json")
    assert ExperimentConfig.from_json(tmp_path / "cfg.json") == cfg
    # set after construction, a numpy length is still one length per block
    cfg.block_lengths = np.int64(10)
    assert cfg.block_sizes() == (10,) * cfg.N
    cfg.check()
    # and numpy values set after construction are written as numbers
    cfg.master_seed, cfg.trials = np.int64(5), np.int64(2)
    cfg.check()
    cfg.to_json(tmp_path / "cfg.json")
    assert ExperimentConfig.from_json(tmp_path / "cfg.json") == cfg
    cfg.master_seed = 5.5  # refused, not written as 5
    with pytest.raises(ValueError, match="master_seed"):
        cfg.to_json(tmp_path / "cfg.json")


class TestRecoveryGrid:
    def test_records_and_aggregates(self):
        cfg = tiny_grid_config()
        records, summary, skipped = run_recovery_grid(cfg)
        assert len(records) == 4 * cfg.trials
        assert skipped == []
        assert summarize(records) == summary
        for row in summary:
            assert 0.0 <= row["success_rate"] <= 1.0

    def test_noiseless_easiest_cell_always_succeeds(self):
        cfg = tiny_grid_config(
            s_values=(1,), sigma_values=(1,), snr_db=(math.inf,), trials=10
        )
        records, summary, _ = run_recovery_grid(cfg)
        assert summary[0]["success_rate"] == 1.0

    def test_infeasible_cells_skipped(self):
        cfg = tiny_grid_config(s_values=(1, 7), sigma_values=(1, 11))
        records, summary, skipped = run_recovery_grid(cfg)
        reasons = {(c["s"], c["sigma"]): c["reason"] for c in skipped}
        assert (7, 1) in reasons and (7, 11) in reasons and (1, 11) in reasons
        assert len(records) == 1 * cfg.trials

    def test_zero_sigma_needs_infinite_snr(self, monkeypatch):
        # sigma = 0 plants a zero signal, which no finite SNR can scale:
        # refused before any trial runs
        monkeypatch.setattr(experiments, "_run_pool", _no_trials)
        with pytest.raises(ValueError, match="sigma = 0"):
            run_recovery_grid(tiny_grid_config(sigma_values=(1, 0), snr_db=(math.inf, 10.0)))
        monkeypatch.undo()
        records, _, _ = run_recovery_grid(tiny_grid_config(sigma_values=(0,), snr_db=(math.inf,)))
        assert len(records) == 2 * 3 and all(r.success for r in records)

    def test_csv_round_trip_and_schema(self, tmp_path):
        path = tmp_path / "trials.csv"
        for run, cfg in ((run_recovery_grid, tiny_grid_config(snr_db=(10.0, math.inf))),
                         (run_block_detection, tiny_detection_config())):
            records = run(cfg)[0]
            write_trials_csv(records, path)
            header = path.read_text().splitlines()[0]
            assert header == ",".join(CSV_COLUMNS)
            back = read_trials_csv(path)
            assert back == [dataclasses.replace(r, wall_millis=0.0) for r in records]
            assert summarize(back) == summarize(records)
            write_trials_csv(records, path, measured_timing=True)
            assert read_trials_csv(path) == [
                dataclasses.replace(r, wall_millis=float(round(r.wall_millis)))
                for r in records
            ]

    def test_readme_lists_the_csv_columns(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        assert ",".join(CSV_COLUMNS) in readme.splitlines()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_grid_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(run_recovery_grid(cfg)[0], p1)
        write_trials_csv(run_recovery_grid(cfg)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_pool_preserves_records(self, tmp_path):
        cfg = tiny_grid_config(trials=2)
        serial, _, _ = run_recovery_grid(cfg, threads=1)
        parallel, _, _ = run_recovery_grid(cfg, threads=2)
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_trials_csv(serial, p1)
        write_trials_csv(parallel, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestBlockDetection:
    def test_embed_into_zero_pads_each_block(self):
        est = BlockVector(BlockStructure((2, 3, 1)), np.arange(1, 7) * (1 - 2j))
        out = experiments._embed_into(est, BlockStructure((4, 3, 5)))
        want = np.array([1, 2, 0, 0, 3, 4, 5, 6, 0, 0, 0, 0]) * (1 - 2j)
        np.testing.assert_array_equal(out.coeffs, want)

    def test_two_records_per_trial_sharing_seed(self):
        cfg = tiny_detection_config()
        records, summary, skipped = run_block_detection(cfg)
        assert len(records) == 2 * cfg.trials * len(cfg.M) * len(cfg.snr_db)
        assert skipped == []
        by_trial = {}
        for r in records:
            by_trial.setdefault((r.M, r.snr_db, r.trial), []).append(r)
        for pair in by_trial.values():
            assert {r.mode for r in pair} == {"uniform", "mixed"}
            assert len({r.seed for r in pair}) == 1
        assert summarize(records) == summary

    def test_detection_rates_in_range(self):
        cfg = tiny_detection_config()
        records, _, _ = run_block_detection(cfg)
        for r in records:
            assert 0.0 <= r.detection_rate <= 1.0

    def test_desk_preset_mixed_not_worse(self):
        cfg = desk_block_detection()
        cfg.trials = 6
        records, summary, _ = run_block_detection(cfg)
        rates = {}
        for row in summary:
            rates[(row["M"], row["snr_db"], row["mode"])] = row["mean_detection_rate"]
        for M in cfg.M:
            for snr in cfg.snr_db:
                assert rates[(M, snr, "uniform")] <= rates[(M, snr, "mixed")] + 0.25

    def test_sigma_must_fit_front_window(self, monkeypatch):
        # refused before any trial runs, whichever blocks a draw activates
        monkeypatch.setattr(experiments, "_run_pool", _no_trials)
        with pytest.raises(ValueError, match="sigma_0=2"):
            run_block_detection(tiny_detection_config(front_width=1))
        # ten blocks of 30, windows of 3 on the first five, one active block
        cfg = tiny_detection_config(N=10, block_lengths=30, s_values=(1,),
                                    sigma_values=(4,), front_width=3)
        with pytest.raises(ValueError, match="sigma_0=4"):
            run_block_detection(cfg)

    def test_zero_sigma_needs_infinite_snr(self, monkeypatch):
        monkeypatch.setattr(experiments, "_run_pool", _no_trials)
        with pytest.raises(ValueError, match="sigma = 0"):
            run_block_detection(tiny_detection_config(sigma_values=(0,)))
        monkeypatch.undo()
        cfg = tiny_detection_config(sigma_values=(0,), snr_db=(math.inf,))
        records, _, _ = run_block_detection(cfg)
        assert len(records) == 2 * cfg.trials

    def test_front_window_must_fit_short_blocks(self):
        # 20 columns cannot be cut from a 16-long block: refused up front,
        # not with an IndexError inside a trial
        cfg = desk_block_detection()
        cfg.block_lengths, cfg.front_width = 16, 20
        with pytest.raises(ValueError, match="front_width"):
            run_block_detection(cfg)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = tiny_detection_config()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trials_csv(run_block_detection(cfg)[0], p1)
        write_trials_csv(run_block_detection(cfg)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_thread_pool_preserves_records(self, tmp_path):
        cfg = tiny_detection_config()
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_trials_csv(run_block_detection(cfg, threads=1)[0], p1)
        write_trials_csv(run_block_detection(cfg, threads=2)[0], p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestTheoremVerify:
    def test_small_run_passes_and_round_trips(self, tmp_path):
        cfg = desk_theorem_verify(instances=20)
        report = run_theorem_verify(cfg)
        assert report["passed"]
        assert report["product_bound"]["violations"] == 0
        assert report["product_bound"]["worst_slack"] >= -1e-10
        case = report["mixing_necessity"]["orthogonal_subspace_case"]
        assert case["status"] == "premise violated, bound vacuous"
        assert case["delta_hirip"] <= 1e-10
        path = tmp_path / "report.json"
        with open(path, "w") as fh:
            json.dump(report, fh)
        with open(path) as fh:
            assert json.load(fh) == json.loads(json.dumps(report))

    def test_wrong_scenario_rejected(self):
        for run, cfg, scenario in (
            (run_theorem_verify, tiny_grid_config(), "theorem-verify"),
            (run_recovery_grid, tiny_detection_config(), "recovery-grid"),
            (run_block_detection, tiny_grid_config(), "block-detection"),
        ):
            with pytest.raises(ValueError, match=f"^config is not a {scenario} config$"):
                run(cfg)

    def test_support_counts_do_not_depend_on_run_order(self, monkeypatch):
        # the traced benchmark checks each pass's enumerated support count
        # against a recording, so a pass must count the same supports
        # whatever ran before it in the process: a result cached across
        # runs would drop its supports from every run after the first
        runs = []
        for module in (riplab, experiments):
            def counting(H, k, real=module.hirip_constant_exact):
                est = real(H, k)
                runs[-1].append(est.supports_examined)
                return est

            monkeypatch.setattr(module, "hirip_constant_exact", counting)
        counts = {}
        for order in ((1, 2), (2, 1)):
            for seed in order:
                cfg = desk_theorem_verify(instances=1)
                cfg.master_seed = seed
                runs.append([])
                assert run_theorem_verify(cfg)["passed"]
                counts.setdefault(seed, []).append(sum(runs[-1]))
        assert counts[1][0] == counts[1][1] and counts[2][0] == counts[2][1]
        # one instance each of the product bound, column necessity and
        # mixing necessity, plus the fixed orthogonal-subspace case
        assert all(len(calls) == 4 for calls in runs)

    def test_thread_pool_preserves_report(self):
        cfg = desk_theorem_verify(instances=6)
        assert run_theorem_verify(cfg, threads=2) == run_theorem_verify(cfg, threads=1)

    def test_product_bound_skip_path(self, monkeypatch):
        def over_budget(*args, **kwargs):
            raise BudgetError("over budget")

        monkeypatch.setattr(experiments, "hirip_constant_exact", over_budget)
        info = run_theorem_verify(desk_theorem_verify(instances=3))["product_bound"]
        assert info["skipped"] == info["instances"] == 3
        assert info["violations"] == 0
        assert info["worst_slack"] == math.inf


class InlinePool:
    """Stands in for ProcessPoolExecutor: starts no process, records
    max_workers and every task handed to map, and runs the tasks inline."""

    created: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.tasks = []
        InlinePool.created.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable):
        tasks = list(iterable)
        self.tasks.extend(tasks)
        return iter([fn(t) for t in tasks])


def _fail_on_three(t):
    if t == 3:
        raise ArithmeticError("trial 3 failed")
    return t


class TestRunPool:
    @pytest.fixture
    def inline_pool(self, monkeypatch):
        monkeypatch.setattr(InlinePool, "created", [])
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        return InlinePool.created

    @pytest.mark.parametrize("threads", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 7, 20, 501])
    def test_strided_chunks_in_input_order(self, inline_pool, n, threads):
        out = experiments._run_pool(lambda t: -t, list(range(n)), threads=threads)
        assert out == [-t for t in range(n)]
        if n == 1:
            assert inline_pool == []
            return
        (pool,) = inline_pool
        workers = min(threads, n)
        assert pool.max_workers == workers
        # one pool task per strided chunk, never one per trial at scale
        k = min(experiments._CHUNKS_PER_WORKER * workers, n)
        assert pool.tasks == [list(range(i, n, k)) for i in range(k)]

    def test_costly_tail_spread_over_chunks(self, inline_pool):
        # a grid lists its costly cells last; every chunk gets a fair share
        n, costly = 500, range(400, 500)
        experiments._run_pool(abs, list(range(n)), threads=2)
        (pool,) = inline_pool
        shares = [sum(t in costly for t in chunk) for chunk in pool.tasks]
        assert len(shares) == 2 * experiments._CHUNKS_PER_WORKER
        assert sum(shares) == len(costly) and max(shares) - min(shares) <= 1

    def test_inline_pool_matches_real_pool(self, monkeypatch):
        tasks = list(range(-20, 17))
        real = experiments._run_pool(operator.neg, tasks, threads=2)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlinePool)
        assert experiments._run_pool(operator.neg, tasks, threads=2) == real
        assert real == [-t for t in tasks]

    def test_trial_exception_propagates_from_real_pool(self):
        with pytest.raises(ArithmeticError, match="trial 3 failed"):
            experiments._run_pool(_fail_on_three, list(range(10)), threads=2)

    def test_workers_capped_at_task_count(self, inline_pool, tmp_path):
        cfg = tiny_grid_config(trials=2)
        pooled = run_recovery_grid(cfg, threads=64)[0]
        assert len(pooled) == 8
        (pool,) = inline_pool
        assert pool.max_workers == 8
        p1, p2 = tmp_path / "s.csv", tmp_path / "p.csv"
        write_trials_csv(run_recovery_grid(cfg, threads=1)[0], p1)
        write_trials_csv(pooled, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_serial_path_starts_no_pool(self, inline_pool):
        assert experiments._run_pool(abs, [-1, -2], threads=1) == [1, 2]
        assert experiments._run_pool(abs, [-3], threads=4) == [3]
        assert inline_pool == []


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        for cfg in (tiny_grid_config(snr_db=(10.0, math.inf)),
                    tiny_detection_config(block_lengths=(16, 12, 16, 9, 16, 20))):
            cfg.to_json(path)
            back = ExperimentConfig.from_json(path)
            assert back == cfg

    @pytest.mark.parametrize("short_blocks", [(7, -1, 9), (0, 6), (-1,), (2, 1, 2)])
    def test_short_blocks_outside_blocks_or_repeated_rejected(self, short_blocks):
        # the short blocks are always the first N // 2 and the config has no
        # short_blocks field: a config file that still names them, with
        # indices outside the blocks or repeated, is refused as an unknown
        # key rather than silently ignored
        with pytest.raises(ValueError, match="short_blocks"):
            ExperimentConfig.from_dict({**tiny_detection_config().to_dict(),
                                        "short_blocks": list(short_blocks)})

    @pytest.mark.parametrize("field,value", [("residual_tol", math.nan),
                                             ("residual_tol", math.inf),
                                             ("max_iters", 2.5)])
    def test_degenerate_solver_values_in_json_rejected(self, tmp_path, field, value):
        # json writes and reads NaN and Infinity by default, so a config file
        # can carry them into SolverConfig
        path = tmp_path / "cfg.json"
        d = tiny_grid_config().to_dict()
        d["solver"][field] = value
        path.write_text(json.dumps(d))
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("solver", [5, None, [1], "max_iters"])
    def test_non_object_solver_rejected(self, solver):
        # a number used to fail inside set() with TypeError
        with pytest.raises(ValueError, match="solver"):
            ExperimentConfig.from_dict({**tiny_grid_config().to_dict(), "solver": solver})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict({"scenario": "recovery-grid", "bogus": 1})
        with pytest.raises(ValueError, match="short_blocks"):
            ExperimentConfig.from_dict({**tiny_detection_config().to_dict(),
                                        "short_blocks": [0, 1]})

    def test_removed_solver_keys_rejected(self):
        d = tiny_grid_config().to_dict()
        d["solver"].update(ls_tol=1e-10, ls_max_iters=1000, ls_direct_threshold=600,
                           support_stall_stop=True)
        with pytest.raises(ValueError) as err:
            ExperimentConfig.from_dict(d)
        for key in ("ls_tol", "ls_max_iters", "ls_direct_threshold", "support_stall_stop"):
            assert key in str(err.value)

    def test_presets_valid(self):
        for scenario in ("recovery-grid", "block-detection", "theorem-verify"):
            for paper in (False, True):
                if scenario == "theorem-verify" and paper:
                    with pytest.raises(ValueError, match="paper-scale"):
                        preset(scenario, paper_scale=paper)
                    continue
                cfg = preset(scenario, paper_scale=paper)
                assert cfg.scenario == scenario

    def test_short_blocks_default_first_half(self):
        cfg = tiny_detection_config()
        assert cfg.windows() == (4, 4, 4, 16, 16, 16)

    def test_explicit_block_lengths(self):
        cfg = tiny_grid_config(block_lengths=(10, 10, 10, 10, 10, 12))
        assert cfg.block_sizes() == (10, 10, 10, 10, 10, 12)
        with pytest.raises(ValueError):
            tiny_grid_config(block_lengths=(10, 10)).block_sizes()


class TestCli:
    def test_recovery_grid_writes_outputs(self, tmp_path):
        cfg = tiny_grid_config()
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        out = tmp_path / "out"
        code = cli_main(
            ["recovery-grid", "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        assert (out / "trials.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == "recovery-grid"
        assert len(summary["cells"]) == 4

    def test_cli_runs_are_byte_identical(self, tmp_path):
        cfg = tiny_detection_config()
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli_main(
                ["block-detection", "--config", str(cfg_path), "--out", str(out)]
            ) == 0
            outs.append((out / "trials.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_theorem_verify_cli(self, tmp_path):
        cfg = desk_theorem_verify(instances=10)
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        out = tmp_path / "tv"
        code = cli_main(
            ["theorem-verify", "--config", str(cfg_path), "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]

    def test_seed_override_changes_trials(self, tmp_path):
        cfg = tiny_grid_config()
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        seen = []
        for seed in ("1", "2"):
            out = tmp_path / f"seed{seed}"
            cli_main(
                ["recovery-grid", "--config", str(cfg_path), "--out", str(out),
                 "--seed", seed]
            )
            seen.append((out / "trials.csv").read_bytes())
        assert seen[0] != seen[1]

    @pytest.mark.parametrize("scenario, make, overrides", [
        ("recovery-grid", tiny_grid_config, {"M": (4, 8)}),
        # m above the shortest block, 16
        ("block-detection", tiny_detection_config, {"m": 20}),
    ])
    def test_unrunnable_config_refused_on_load(self, tmp_path, scenario, make, overrides):
        # check() runs on load: the CLI exits with the refusal, without a
        # traceback, before it makes the output directory
        cfg = make(**overrides)
        with pytest.raises(ValueError) as err:
            cfg.check()
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "out"
        cfg.to_json(cfg_path)
        src = str(Path(__file__).parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        run = subprocess.run(
            [sys.executable, "-m", "hisparse.harness.cli", scenario, "--config", str(cfg_path),
             "--out", str(out)], capture_output=True, text=True, env=env, check=False)
        assert run.returncode == 1
        assert run.stderr == f"cannot load config {cfg_path}: {err.value}\n"
        assert not out.exists()

    def test_scenario_mismatch_rejected(self, tmp_path):
        cfg = tiny_grid_config()
        cfg_path = tmp_path / "cfg.json"
        cfg.to_json(cfg_path)
        with pytest.raises(SystemExit):
            cli_main(["block-detection", "--config", str(cfg_path), "--out", str(tmp_path)])

    def test_bad_config_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit):
            cli_main(["recovery-grid", "--config", str(bad), "--out", str(tmp_path)])

    def test_non_number_snr_in_config_rejected(self, tmp_path):
        # refused by check() with ValueError, which the CLI reports, rather
        # than a TypeError traceback from inside it
        cfg_path = tmp_path / "cfg.json"
        d = tiny_grid_config().to_dict()
        d["snr_db"] = ["10"]
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit, match="snr_db"):
            cli_main(["recovery-grid", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert not (tmp_path / "trials.csv").exists()

    def test_null_seed_in_config_rejected(self, tmp_path):
        # JSON null used to end in a TypeError traceback from check()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**tiny_grid_config().to_dict(), "master_seed": None}))
        with pytest.raises(SystemExit, match="master_seed"):
            cli_main(["recovery-grid", "--config", str(cfg_path), "--out", str(tmp_path)])
        assert not (tmp_path / "trials.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as err:
            cli_main(["recovery-grid", "--threads", threads, "--out", str(tmp_path)])
        assert err.value.code == 2  # argparse usage error
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "trials.csv").exists()

    def test_config_and_paper_scale_rejected_together(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        tiny_grid_config().to_json(cfg_path)
        with pytest.raises(SystemExit) as err:
            cli_main(["recovery-grid", "--config", str(cfg_path), "--paper-scale",
                      "--out", str(tmp_path)])
        assert err.value.code == 2  # argparse usage error
        assert "--paper-scale" in capsys.readouterr().err
        assert not (tmp_path / "trials.csv").exists()

    def test_theorem_verify_has_no_paper_scale(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli_main(["theorem-verify", "--paper-scale", "--out", str(tmp_path)])
        assert err.value.code == 2  # argparse usage error
        assert "--paper-scale" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
