"""The harness end to end at toy sizes: oracle, exit codes, unpatching."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from syncbench import layers, run, workloads

ROOT = Path(__file__).resolve().parents[2]

TOY = {
    "ingest_large": {"rounds": 2, "files_per_round": 2,
                     "file_bytes": 64 * 1024},
    "fanout_small": {"files": 6, "file_bytes": 8 * 1024, "readers": 2},
    "edit_steady": {"devices": 2, "files": 4, "file_bytes": 8 * 1024,
                    "waves": 3, "edit_bytes": 16, "idle_sim_s": 30},
    "trial_fleet": {"n_users": 6, "uploads_per_user": 2, "days": 1},
}

EXACT_KEYS = ("ops", "failed_ops", "oracle_ok", "op_sim_s_p50",
              "op_sim_s_p95", "wire_bytes_per_user_byte",
              "stored_bytes_per_user_byte", "counts")


def child(workload, traced, tmp_path, seed=7):
    return run.run_child(workload, seed, TOY[workload], traced, tmp_path)


def seams():
    from repro.core import client, scheduler
    from repro.core.deltasync import DeltaLog
    from repro.core.lock import QuorumLock
    from repro.simkernel import Simulator

    return [vars(Simulator)["run"], vars(QuorumLock)["acquire"],
            vars(DeltaLog)["from_bytes"], vars(client)["serialize_image"],
            vars(scheduler.DownloadScheduler)["_worker"]]


@pytest.mark.parametrize("workload", sorted(TOY))
def test_traced_pass_leaves_no_wrapper_and_changes_no_exact_metric(
        workload, tmp_path):
    before = seams()
    first = child(workload, False, tmp_path)
    traced = child(workload, True, tmp_path)
    assert all(a is b for a, b in zip(before, seams()))
    second = child(workload, False, tmp_path)
    for key in EXACT_KEYS:
        assert first[key] == traced[key] == second[key], key
    assert first["oracle_ok"]
    trace = json.loads((tmp_path / f"trace_{workload}.json").read_text())
    assert trace["metadata"]["sizes"] == TOY[workload]
    assert trace["traceEvents"]
    metrics = layers.layer_metrics(
        traced["trace_counts"], traced["self_seconds"], traced["counts"],
        traced["wall_s"], first["wall_s"],
    )
    assert list(metrics) == [name for name, _, _ in layers.PER_LAYER]
    # counts both passes see agree with the tracer's own
    assert metrics["client.rounds"] == first["ops"]
    assert metrics["cloud.requests"] == first["counts"]["cloud.requests"]
    if workload != "trial_fleet":
        assert metrics["simkernel.steps"] == first["counts"]["simkernel.steps"]
        assert metrics["lock.acquires"] > 0 or workload == "fanout_small"
    assert metrics["simkernel.residual_s"] > 0


def test_set_up_rounds_are_not_traced(tmp_path):
    traced = child("fanout_small", True, tmp_path)
    # the writer's ingest is set-up: the traced phase never chunks a file
    # it uploads, and sees exactly the two readers' rounds.
    assert traced["trace_counts"].get("scheduler.up_batches", 0) == 0
    rows = {row["span"]: row for row in traced["table"]}
    assert rows["client"]["calls"] == TOY["fanout_small"]["readers"]


def test_oracle_catches_a_diverged_folder():
    fleet = workloads._Fleet(seed=1, n_devices=2)
    fleet.write(fleet.devices[0], "/a.bin", b"abc")
    fleet.sync(fleet.devices[0])
    assert fleet.diverged() == ["d1"]
    fleet.sync(fleet.devices[1])
    assert fleet.diverged() == []
    fleet.devices[1].fs.write_file("/a.bin", b"abd", mtime=0.0)
    assert fleet.diverged() == ["d1"]
    fleet.devices[1].fs.write_file("/a.bin", b"abc", mtime=0.0)
    fleet.devices[1].fs.write_file("/extra", b"", mtime=0.0)
    assert fleet.diverged() == ["d1"]


def good_child(**changes):
    result = {"ops": 4, "failed_ops": 0, "oracle_ok": True,
              "setup_s": 1.0, "wall_s": 2.0, "peak_rss_mb": 100.0,
              "op_sim_s_p50": 1.5, "op_sim_s_p95": 2.5,
              "wire_bytes_per_user_byte": 3.0,
              "stored_bytes_per_user_byte": 3.0, "counts": {"x": 1}}
    result.update(changes)
    return result


def last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_driver_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn", lambda *a: good_child())
    assert run.main(["--workload", "ingest_large", "--seed", "3",
                     "--seconds", "18", "--trace", "0"]) == 0
    result = last_json(capsys)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    repeats = round(18 / run.NOMINAL_PHASE_S["ingest_large"])
    assert result["correct"] and result["attempted"] == 4 * repeats
    assert result["failed"] == 0
    spec = run.spec()
    assert list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert result["metrics"]["ok_op_share"] == {"value": 1.0, "unit": "ratio"}


@pytest.mark.parametrize("broken", [
    {"oracle_ok": False},
    {"failed_ops": 1},
])
def test_oracle_failure_exits_non_zero(monkeypatch, capsys, broken):
    monkeypatch.setattr(run, "spawn", lambda *a: good_child(**broken))
    assert run.main(["--workload", "edit_steady", "--seconds", "6"]) == 1
    assert last_json(capsys)["correct"] is False


def test_failed_ops_are_legal_only_on_the_trial(monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn", lambda *a: good_child(failed_ops=1))
    assert run.main(["--workload", "trial_fleet", "--seconds", "6"]) == 0
    result = last_json(capsys)
    assert result["correct"] and result["failed"] == 1
    assert result["metrics"]["ok_op_share"]["value"] == 0.75


def test_inexact_repeats_are_not_a_correct_result(monkeypatch, capsys):
    sims = iter([1.5, 1.5000001])
    monkeypatch.setattr(
        run, "spawn", lambda *a: good_child(op_sim_s_p50=next(sims))
    )
    assert run.main(["--workload", "fanout_small", "--seconds", "13"]) == 1


def test_unknown_size_key_is_refused():
    with pytest.raises(SystemExit):
        run.main(["--workload", "fanout_small", "--size", "nope=1"])


def test_benchmark_json_matches_the_code_and_the_contract():
    spec = run.spec()
    assert sorted(spec) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert spec["paths"] == ["syncbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SIZES)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in spec["workloads"])
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.PER_LAYER
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names and len(set(names)) == len(names)
    assert all(0 <= m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_exits_non_zero_without_a_result_outside_the_repo(tmp_path):
    """A directory holding only BENCHMARK.json and ``paths``."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "syncbench", tmp_path / "syncbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "syncbench/run.py", "--workload", "ingest_large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=120,
    )
    assert done.returncode != 0
    assert not any(line.lstrip().startswith("{")
                   for line in done.stdout.splitlines())
