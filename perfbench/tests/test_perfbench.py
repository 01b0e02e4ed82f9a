"""The benchmark's own tests: metric coverage, checks, span accounting.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
Every workload runs with ``--seconds 1``: the minimum of three rounds
untraced, one untraced/traced pair traced.  The file takes about two
minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH_DIR))

from tracing import SELF_METRICS, SpanStore  # noqa: E402


def _run(workload: str, trace: int, *extra: str,
         cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace),
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


_CACHE: dict[tuple[str, int], tuple[subprocess.CompletedProcess, dict]] = {}


def quick_run(workload: str, trace: int) -> tuple[subprocess.CompletedProcess,
                                                   dict]:
    key = (workload, trace)
    if key not in _CACHE:
        proc = _run(workload, trace)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        _CACHE[key] = (proc, json.loads(proc.stdout.strip().splitlines()[-1]))
    return _CACHE[key]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_declared_metric(workload, trace, section):
    proc, result = quick_run(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float))
        assert math.isfinite(m["value"])
    if trace == 0:
        for name, unit in declared.items():
            assert result["metrics"][name]["value"] > 0, name
            assert f"metric {name} " in proc.stdout
            line = next(ln for ln in proc.stdout.splitlines()
                        if ln.startswith(f"metric {name} "))
            assert line.endswith(f" {unit}")
        assert f"sim_digest {workload} seed=3 " in proc.stdout
        assert "calibration python_ms=" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_traced_wall(workload):
    _, result = quick_run(workload, 1)
    metrics = result["metrics"]
    total = sum(metrics[name]["value"] for name in SELF_METRICS.values())
    assert total == pytest.approx(metrics["trace.wall_ms"]["value"],
                                  rel=1e-9)


def test_socket_never_enters_the_control_plane():
    _, result = quick_run("socket", 1)
    for name, m in result["metrics"].items():
        if name.startswith(("cluster.", "fleet.")):
            assert m["value"] == 0, name
    assert result["metrics"]["sim.chip.scalar_ticks"]["value"] > 0


def test_replay_runs_only_on_the_faulted_fleet():
    for workload in WORKLOADS:
        _, result = quick_run(workload, 1)
        replay = result["metrics"]["cluster.journal.replay_ms"]["value"]
        assert (replay > 0) == (workload == "faulted_fleet"), workload


def test_corrupted_recovery_tail_fails_the_run():
    proc = _run("faulted_fleet", 0, "--inject", "recovery-tail")
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "check FAILED: recovered tail grants match" in proc.stdout
    frac = next(ln for ln in proc.stdout.splitlines()
                if ln.startswith("metric failed_frac "))
    assert float(frac.split()[2]) > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("socket", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_span_store_self_time_excludes_children():
    store = SpanStore()

    def leaf():
        time.sleep(0.002)

    traced_leaf = store.wrap(leaf, "leaf")

    def middle():
        traced_leaf()
        traced_leaf()

    traced_middle = store.wrap(middle, "middle")
    with store.span("root"):
        traced_middle()
    red = store.reduce()
    assert red.calls == {"root": 1, "middle": 1, "leaf": 2}
    assert red.self_s["leaf"] >= 0.004
    assert red.self_s["middle"] < red.self_s["leaf"]
    assert sum(red.self_s.values()) == pytest.approx(red.wall_s, rel=1e-12)
