import dataclasses
import importlib.util
import json
import os
import sys
import textwrap
from pathlib import Path

import pytest

from hisparse import solvers
from hisparse.harness import experiments
from hisparse.harness.config import paper_block_detection, paper_recovery_grid

TOOLS = Path(__file__).parents[1] / "tools"
PERFBENCH = TOOLS.parent / "perfbench"

# stands in for perfbench/run.py: one report, then the exit status; the run
# for seed FAIL_SEED fails its output checks
STUB_RUN = textwrap.dedent("""
    import json, sys
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    ok = seed != FAIL_SEED
    print(json.dumps({"metrics": {"trials_per_s": {"value": 10.0 + seed}},
                      "checks": {"ok": ok}}))
    sys.exit(0 if ok else 1)
""")


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench_pairs():
    return _tool("bench_pairs")


def _checkout(root: Path, fail_seed: int) -> Path:
    (root / "perfbench").mkdir(parents=True)
    (root / "src").mkdir()
    (root / "src" / "package.py").write_text("VALUE = 1\n")
    (root / "perfbench" / "run.py").write_text(STUB_RUN.replace("FAIL_SEED", str(fail_seed)))
    (root / "BENCHMARK.json").write_text(json.dumps(
        {"end_to_end": [{"name": "trials_per_s", "better": "higher"}]}))
    return root


def _main(tmp_path, change_fails_on):
    out = tmp_path / "bench.json"
    code = _bench_pairs().main([
        "--parent", str(_checkout(tmp_path / "parent", -1)),
        "--change", str(_checkout(tmp_path / "change", change_fails_on)),
        "--workload", "w", "--seeds", "1-2", "--out", str(out), "--seconds", "1",
    ])
    return code, json.loads(out.read_text())


def test_bench_pairs_exits_zero_when_every_run_passes(tmp_path):
    code, doc = _main(tmp_path, change_fails_on=-1)
    assert code == 0
    assert [p["change"]["exit_status"] for p in doc["pairs"]] == [0, 0]
    # both checkouts were byte-compiled before the first pair
    for side in ("parent", "change"):
        for module in ("src/package", "perfbench/run"):
            folder, name = module.split("/")
            assert list((tmp_path / side / folder / "__pycache__").glob(f"{name}.*.pyc"))


def test_bench_pairs_writes_the_file_then_fails_on_a_failed_run(tmp_path, capsys):
    code, doc = _main(tmp_path, change_fails_on=2)
    assert code == 1
    assert doc["pairs"][1]["change"] == {
        "metrics": {"trials_per_s": 12.0}, "checks": {"ok": False}, "exit_status": 1,
    }
    assert "seed 2 change" in capsys.readouterr().err


def test_layer_timing_times_every_unit_of_an_instance():
    tool = _tool("layer_timing")
    assert list(tool.instances()) == ["detection-uniform", "detection-mixed", "recovery-25-20"]
    build = tool.instances()["detection-mixed"]
    H, y, k = build()
    H2, y2, _ = build()  # every build is the same instance
    assert H2.structure == H.structure and y2.tobytes() == y.tobytes()
    got = tool.time_units(build, repeat=1, number=1)
    assert got["support_size"] == 30 and got["hihtp_iterations"] >= 1
    units = ("trial_setup", "adjoint_apply", "hi_threshold", "refit", "hihtp_per_iteration")
    assert set(got) == {"support_size", "hihtp_iterations"} | {f"{u}_us" for u in units}
    assert all(got[f"{u}_us"] > 0 for u in units)


@pytest.mark.parametrize("name", ["detection-uniform", "detection-mixed", "recovery-25-20"])
def test_layer_timing_instances_are_the_harness_trials(monkeypatch, name):
    # each builder gives, bit for bit, the (H, y) that experiments._measure
    # gives the harness's own trial 0 of the instance's cell at master seed
    # 2, so the tool cannot drift from the trial it times; and its solve
    # stops on a repeated support, as the harness's did
    tool = _tool("layer_timing")
    measured = []
    measure = experiments._measure

    def recording(*args):
        measured.append(measure(*args))
        return measured[-1]

    monkeypatch.setattr(experiments, "_measure", recording)
    if name == "recovery-25-20":
        cfg = dataclasses.replace(paper_recovery_grid(), master_seed=2, s_values=(25,),
                                  sigma_values=(20,), trials=1)
        records = experiments.run_recovery_grid(cfg)[0]
    else:
        cfg = dataclasses.replace(paper_block_detection(), master_seed=2, M=(10,),
                                  snr_db=(0.0,), trials=1)
        records = experiments.run_block_detection(cfg)[0]
    monkeypatch.undo()
    [(ops, want_y, _)] = measured
    mode = int(name == "detection-mixed")
    want = ops[mode]
    H, y, k = tool.instances()[name]()
    assert y.tobytes() == want_y.tobytes()
    assert H.structure == want.structure and H.A.tobytes() == want.A.tobytes()
    assert [B.tobytes() for B in H.Bs] == [B.tobytes() for B in want.Bs]
    res = solvers.hihtp(H, y, k)
    assert res.stop_reason == solvers.STOP_SUPPORT_REPEAT
    assert res.iterations == records[mode].iterations


def test_layer_timing_times_hirip_constant_exact():
    tool = _tool("layer_timing")
    H, k = tool.hirip_instance()
    assert H.structure.block_sizes == (6,) * 6 and all(B is H.Bs[0] for B in H.Bs)
    got = tool.time_hirip(H, k, repeat=1, number=1)
    assert got["supports"] == 67_500
    assert got["hirip_constant_exact_us"] > 0
    assert got["supports_per_s"] == got["supports"] / got["hirip_constant_exact_us"] * 1e6


def test_layer_timing_times_pool_scaling():
    tool = _tool("layer_timing")
    cfg = tool.desk_recovery_grid()
    cfg.s_values, cfg.sigma_values, cfg.trials = (1, 2), (1,), 3
    got = tool.time_pool(cfg, threads=(1, 2), repeat=1)
    assert list(got) == ["1", "2"]
    for t, row in got.items():
        assert row["trials"] == 6 and row["wall_s"] > 0 and row["parent_cpu_s"] >= 0
        assert row["trials_per_s"] == 6 / row["wall_s"]
        assert row["efficiency"] == got["1"]["wall_s"] / (int(t) * row["wall_s"])


@pytest.mark.parametrize("name", ["bench_pairs", "check_reference", "layer_timing"])
def test_loading_a_tool_leaves_the_process_settings_alone(monkeypatch, name):
    # only a tool run as a script pins BLAS and puts its checkout on
    # sys.path: an importing process, this test session included, keeps both
    monkeypatch.syspath_prepend(str(PERFBENCH))
    path, environ = list(sys.path), dict(os.environ)
    _tool(name)
    assert sys.path == path and dict(os.environ) == environ


def test_check_reference_records_then_matches_its_own_hashes(tmp_path, monkeypatch, capsys):
    # every output-identity claim runs this tool: one detection pass
    # recorded with --hashes, then checked --against that file
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tool = _tool("check_reference")
    wl = tool.workloads.WORKLOADS["detection"]
    monkeypatch.setitem(tool.workloads.WORKLOADS, "detection",
                        dataclasses.replace(wl, pool=(1000,)))
    hashes = tmp_path / "hashes.json"
    assert tool.main(["detection", "--hashes", str(hashes)]) == 0
    assert list(json.loads(hashes.read_text())["detection"]) == ["1000"]
    assert tool.main(["detection", "--against", str(hashes)]) == 0
    out = capsys.readouterr().out
    assert f"detection: 1/1 passes with the same output hash as {hashes}" in out
    assert "passes not matching reference: 0" in out
