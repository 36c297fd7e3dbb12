"""The benchmark's own tests: reduced-size runs end to end, every metric named
in BENCHMARK.json printed with its unit, and wrong outputs counted as failed
operations."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)


def _bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace), "--small"],
        capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _assert_metrics(result: dict, listed: list[dict]) -> None:
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], float)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_reduced_run_end_to_end(workload):
    result = _result(_bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    _assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["golden", "offpath"])
def test_traced_run_prints_every_layer_metric(workload):
    result = _result(_bench(workload, 1))
    assert result["correct"]
    _assert_metrics(result, SPEC["per_layer"])


def test_benchmark_json_names_what_the_code_prints():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


def test_reference_digests_reproduce():
    for name in workloads.WORKLOADS:
        attempted, failed, _ = run.reference_check(workloads, name)
        assert attempted > 0 and failed == 0, name


def _flip(verdict):
    return dataclasses.replace(verdict, overall=not verdict.overall)


# On audit only legacy verdicts are flipped: a flipped updated verdict would
# send a non-cause on to active_processes, which raises instead.
@pytest.mark.parametrize("name, variant", [("audit", "legacy"),
                                           ("offpath", "updated"),
                                           ("onpath", "updated")])
def test_injected_wrong_verdict_counts_as_failed(monkeypatch, name, variant):
    real = workloads.is_actual_cause
    monkeypatch.setattr(workloads, "is_actual_cause", lambda q: _flip(real(q))
                        if q.variant.value == variant else real(q))
    wl = workloads.WORKLOADS[name](1, small=True)
    wl.setup()
    loop = run.run_passes(wl, 0.0)
    assert wl.check(loop.records) > 0
    assert run.reference_check(workloads, name)[1] > 0


def test_injected_wrong_golden_verdict_counts_as_failed(monkeypatch):
    real = workloads.run_query
    monkeypatch.setattr(workloads, "run_query", lambda loaded, doc: dataclasses
                        .replace(real(loaded, doc), verdict=False))
    wl = workloads.Golden(1)
    wl.setup()
    loop = run.run_passes(wl, 0.0)
    assert wl.check(loop.records) == sum(wl.expected)


@pytest.mark.parametrize("name", ["audit", "offpath"])
def test_changed_repeat_pass_counts_every_operation_as_failed(name):
    wl = workloads.WORKLOADS[name](1, small=True)
    wl.setup()
    loop = run.Loop()
    first, again = wl.run_pass(0, loop.timed), wl.run_pass(1, loop.timed)
    assert wl.check([first, again]) == 0
    changed = again[:-1] + [again[-1][:-1] + ("changed",)]
    assert wl.check([first, changed]) == len(changed)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("golden", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
