"""Acceptance suite: one test per release criterion.

Each test prints one PASS/FAIL line (run with -s to see them on success;
failures always show them).  The block-detection reproduction criterion is
known not to hold under this package's documented noise convention; the
test states the criterion faithfully and is expected to fail until the
noise calibration question is resolved.  See notes in the README.
"""

import itertools
import math

import numpy as np
import pytest

from hisparse.blocks import BlockStructure, BlockVector, HiSparsity, hi_threshold
from hisparse.ensembles import gaussian_matrix, spawn_seedseq, subsampled_dft
from hisparse.harness.config import (
    desk_recovery_grid,
    desk_theorem_verify,
    paper_block_detection,
)
from hisparse.harness.experiments import (
    run_block_detection,
    run_recovery_grid,
    run_theorem_verify,
    write_trials_csv,
)
from hisparse.harness.signals import generate_signal
from hisparse.operators import HierarchicalOperator
from hisparse.solvers import hihtp, htp_flat

from oracles import best_hi_approx_residual, dense_by_entries, random_operator

MASTER_SEED = 20240601


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


@pytest.fixture(scope="module")
def theorem_report():
    cfg = desk_theorem_verify(instances=200)
    cfg.master_seed = MASTER_SEED
    return run_theorem_verify(cfg)


@pytest.fixture(scope="module")
def detection_run():
    cfg = paper_block_detection()
    cfg.master_seed = MASTER_SEED
    records, summary, _ = run_block_detection(cfg)
    return cfg, records, summary


def test_product_bound_verification(theorem_report):
    info = theorem_report["product_bound"]
    ok = (
        info["instances"] >= 200
        and info["skipped"] == 0
        and info["violations"] == 0
        and info["worst_slack"] >= -1e-10
    )
    assert _report(
        "hierarchical product bound",
        ok,
        f"{info['instances']} instances, {info['violations']} violations, "
        f"worst slack {info['worst_slack']:.3e} (tolerance -1e-10)",
    )


def test_column_necessity(theorem_report):
    info = theorem_report["column_necessity"]
    ok = (
        info["instances"] >= 100
        and info["violations"] == 0
        and info["worst_slack"] >= -1e-10
    )
    assert _report(
        "column necessity",
        ok,
        f"{info['instances']} instances, worst slack {info['worst_slack']:.3e}",
    )


def test_prop1_shared_blocks_and_orthogonal_case(theorem_report):
    info = theorem_report["mixing_necessity"]
    case = info["orthogonal_subspace_case"]
    ok = (
        info["instances"] >= 50
        and info["violations"] == 0
        and case["status"] == "premise violated, bound vacuous"
        and case["delta_hirip"] <= 1e-10
        and case["delta_a"] >= 1.0 - 1e-12
    )
    assert _report(
        "mixing-matrix necessity bound",
        ok,
        f"{info['checked']} checked / {info['vacuous']} vacuous of "
        f"{info['instances']}, 0 violations required (got {info['violations']}); "
        f"orthogonal-subspace case vacuous with hierarchical constant "
        f"{case['delta_hirip']:.1e} despite mixing delta {case['delta_a']:.2f}",
    )


def test_lemma1_trace_inequality(theorem_report):
    info = theorem_report["trace_inequality"]
    ok = info["instances"] >= 100 and info["violations"] == 0
    assert _report(
        "trace inequality on PSD patterns",
        ok,
        f"{info['instances']} instances, worst slack {info['worst_slack']:.3e} "
        f"(tolerance 1e-9)",
    )


def test_thresholding_matches_exhaustive_best_approximation():
    rng = np.random.default_rng(MASTER_SEED)
    worst = 0.0
    for _ in range(500):
        while True:
            n_blocks = int(rng.integers(2, 6))
            sizes = tuple(int(v) for v in rng.integers(2, 7, size=n_blocks))
            if sum(sizes) <= 24:
                break
        st = BlockStructure(sizes)
        sigma = tuple(int(rng.integers(0, min(2, n) + 1)) for n in sizes)
        if all(v == 0 for v in sigma):
            sigma = (1,) + sigma[1:]
        k = HiSparsity(int(rng.integers(1, n_blocks + 1)), sigma)
        x = BlockVector(
            st,
            rng.standard_normal(st.total_dim) + 1j * rng.standard_normal(st.total_dim),
        )
        out, _ = hi_threshold(x, k)
        got = float(np.linalg.norm(x.coeffs - out.coeffs))
        want = best_hi_approx_residual(x, k)
        worst = max(worst, abs(got - want))
    ok = worst <= 1e-12
    assert _report(
        "hierarchical thresholding vs exhaustive enumeration",
        ok,
        f"500 instances (total_dim <= 24), worst residual gap {worst:.3e} "
        f"(tolerance 1e-12)",
    )


def test_adjoint_and_dense_assembly_identities():
    rng = np.random.default_rng(MASTER_SEED + 1)
    worst_adj = 0.0
    worst_dense = 0.0
    for _ in range(100):
        M = int(rng.integers(1, 6))
        N = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        sizes = tuple(int(v) for v in rng.integers(1, 6, size=N))
        A, Bs = random_operator(rng, M, N, m, sizes)
        H = HierarchicalOperator(A, Bs)
        D = dense_by_entries(A, Bs)
        x = BlockVector(
            H.structure,
            rng.standard_normal(H.total_dim) + 1j * rng.standard_normal(H.total_dim),
        )
        y = rng.standard_normal(H.out_dim) + 1j * rng.standard_normal(H.out_dim)
        lhs = np.vdot(y, H.apply(x))
        rhs = np.vdot(H.adjoint_apply(y).coeffs, x.coeffs)
        scale = np.linalg.norm(x.coeffs) * np.linalg.norm(y)
        worst_adj = max(worst_adj, abs(lhs - rhs) / scale)
        want = D @ x.coeffs
        rel = np.linalg.norm(H.apply(x) - want) / max(np.linalg.norm(want), 1e-300)
        worst_dense = max(worst_dense, rel)
    ok = worst_adj <= 1e-10 and worst_dense <= 1e-12
    assert _report(
        "adjoint and dense-assembly identities",
        ok,
        f"100 operators, worst adjoint mismatch {worst_adj:.3e} (tol 1e-10), "
        f"worst dense mismatch {worst_dense:.3e} (tol 1e-12)",
    )


def test_noiseless_recovery_and_flat_baseline():
    st = BlockStructure.uniform(16, 32)
    k = HiSparsity.uniform(2, 3, 16)
    hier = flat = 0
    for trial in range(100):
        A = gaussian_matrix(12, 16, spawn_seedseq(MASTER_SEED, trial, 0))
        Bs = tuple(
            subsampled_dft(16, 32, spawn_seedseq(MASTER_SEED, trial, 1, i))
            for i in range(16)
        )
        H = HierarchicalOperator(A, Bs)
        x = generate_signal(st, k, spawn_seedseq(MASTER_SEED, trial, 2))
        y = H.apply(x)
        nx = np.linalg.norm(x.coeffs)
        rh = hihtp(H, y, k)
        rf = htp_flat(H, y, 6)  # s * max(sigma)
        hier += np.linalg.norm(rh.estimate.coeffs - x.coeffs) <= 1e-6 * nx
        flat += np.linalg.norm(rf.estimate.coeffs - x.coeffs) <= 1e-6 * nx
    ok = hier >= 95 and flat <= hier
    assert _report(
        "noiseless desk-scale recovery",
        ok,
        f"hierarchical {hier}/100 (need >= 95), flat baseline {flat}/100 "
        f"(must not exceed hierarchical)",
    )


def test_recovery_grid_qualitative_shape():
    cfg = desk_recovery_grid()
    cfg.master_seed = MASTER_SEED
    _, summary, _ = run_recovery_grid(cfg)
    n = cfg.trials
    rate = {(row["s"], row["sigma"]): row["success_rate"] for row in summary}
    s_vals, g_vals = sorted(cfg.s_values), sorted(cfg.sigma_values)
    easiest = rate[(s_vals[0], g_vals[0])]
    hardest = rate[(s_vals[-1], g_vals[-1])]

    def two_se(p1, p2):
        return 2.0 * math.sqrt((p1 * (1 - p1) + p2 * (1 - p2)) / n)

    violations = []
    for s in s_vals:
        for g1, g2 in zip(g_vals, g_vals[1:]):
            if rate[(s, g2)] > rate[(s, g1)] + two_se(rate[(s, g1)], rate[(s, g2)]):
                violations.append(((s, g1), (s, g2)))
    for g in g_vals:
        for s1, s2 in zip(s_vals, s_vals[1:]):
            if rate[(s2, g)] > rate[(s1, g)] + two_se(rate[(s1, g)], rate[(s2, g)]):
                violations.append(((s1, g), (s2, g)))
    ok = easiest >= 0.9 and hardest <= 0.1 and not violations
    assert _report(
        "recovery-grid qualitative shape",
        ok,
        f"easiest cell {easiest:.2f} (need ~1), hardest {hardest:.2f} (need ~0), "
        f"{len(violations)} monotonicity violations beyond 2 standard errors "
        f"{violations if violations else ''}",
    )


def test_block_detection_reproduction(detection_run):
    cfg, _, summary = detection_run
    rate = {
        (row["M"], row["snr_db"], row["mode"]): row["mean_detection_rate"]
        for row in summary
    }
    lines = ["detection rates (rows M, columns snr; uniform / mixed):"]
    for M in cfg.M:
        cells = [
            f"{snr:+6.0f}dB {rate[(M, snr, 'uniform')]:.3f}/{rate[(M, snr, 'mixed')]:.3f}"
            for snr in cfg.snr_db
        ]
        lines.append(f"  M={M:>2}: " + "  ".join(cells))
    print("\n".join(lines))

    mixed_perfect = all(rate[(10, snr, "mixed")] == 1.0 for snr in cfg.snr_db)
    uniform_not_above = all(
        rate[(M, snr, "uniform")] <= rate[(M, snr, "mixed")]
        for M in cfg.M
        for snr in cfg.snr_db
    )
    ok = mixed_perfect and uniform_not_above
    assert _report(
        "block-detection reproduction at published parameters",
        ok,
        f"mixed mode 100% at M=10 for every SNR down to {min(cfg.snr_db):+.0f} dB: "
        f"{mixed_perfect}; uniform never above mixed: {uniform_not_above} "
        f"(known calibration gap, see README)",
    )


def test_determinism_byte_identical_csv(tmp_path):
    from test_harness import tiny_detection_config, tiny_grid_config

    outputs = {}
    for name, cfg, runner in (
        ("recovery-grid", tiny_grid_config(trials=4), run_recovery_grid),
        ("block-detection", tiny_detection_config(trials=4), run_block_detection),
    ):
        blobs = []
        for rep in range(2):
            path = tmp_path / f"{name}-{rep}.csv"
            write_trials_csv(runner(cfg)[0], path)
            blobs.append(path.read_bytes())
        outputs[name] = blobs[0] == blobs[1]
    ok = all(outputs.values())
    assert _report(
        "byte-identical reruns",
        ok,
        f"identical trials.csv per scenario: {outputs}",
    )
