#!/usr/bin/env python
"""Simulator benchmark: ticks/sec and quick-report wall time.

Measures the numbers that bound every workflow in this repo:

* **ticks_per_sec** — simulated ticks per wall second on a
  representative stack (priority and shares policies, Table-2-style mix
  on the 10-core Skylake, daemon attached), averaged over both
  policies, on the default **array** engine.  This is the hot path
  :mod:`repro.sim.kernel` / :mod:`repro.sim.soa` optimise.
* **scalar_ticks_per_sec** — the same stacks on the scalar reference
  engine (:mod:`repro.sim.chip` stepping core by core).  The scalar
  engine is the semantic ground truth the array kernel must match
  bit-for-bit, so its speed still matters: every fault gate and every
  equivalence test runs it.
* **array_speedup** — ``ticks_per_sec / scalar_ticks_per_sec`` on the
  identical configs and seeds: the batching win in isolation, immune to
  machine-to-machine speed differences.
* **cluster_ticks_per_sec** — aggregate node-ticks per wall second of
  the canonical four-node cluster under the arbiter's epoch loop
  (:mod:`repro.cluster`), in-process stacked stepping (array engine).
  Guards the cluster path's per-epoch node rebuild/condense overhead.
* **fleet_ticks_per_sec** — nominal node-ticks per wall second of a
  128-node diurnal fleet (:mod:`repro.fleet`), idle-skipped ticks
  included: the diurnal schedule leaves most nodes idle, the stacked
  stepper skips them, and this metric guards exactly that sparsity win
  plus the hierarchical arbitration overhead.
* **fleet_arbitration_ms** — mean wall milliseconds per
  ``FleetArbiter.rebalance`` over a synthetic steady-state
  1,024-node fleet where every node reports every epoch and ~3 % of
  nodes move demand: arbitration alone, every rack water-filled.
* **trust_overhead_pct** — percent wall-clock overhead the telemetry
  validation layer (demand validator screen + trust bookkeeping) adds
  to a full 1,024-node arbitration epoch, measured by stepping the
  identical steady report stream through a real arbiter and one with
  ``validator = None`` (the break-glass mode that takes reports at
  face value) in lockstep.  ``--check`` fails when this exceeds
  :data:`TRUST_OVERHEAD_LIMIT_PCT`.
* **report_quick_s** — wall time of ``generate_report(quick=True)``
  with a cold cache and one worker: the end-to-end cost of the thing a
  user actually runs.

Each throughput metric carries an engine label in the ``engines`` map
of ``BENCH_sim.json`` so the committed trajectory records which engine
produced each number.

``python scripts/bench.py`` writes the committed baseline
``BENCH_sim.json``; ``--check`` re-measures the array-engine
ticks/sec metrics and exits nonzero when any regresses more than
30 % against that baseline, or when the trust overhead exceeds its
absolute limit (the chaos-smoke CI path runs this).  On a
gate failure the check re-measures the scalar engine too and prints
both engines' throughputs, so the log says whether the array kernel
itself regressed or the underlying simulator model got slower.
``--skip-report`` skips the slow report measurement and carries the
previous value forward.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.config import AppSpec, ExperimentConfig, Priority, build_stack

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_sim.json"

#: fail --check when ticks/sec drops more than this vs the baseline.
REGRESSION_TOLERANCE = 0.30

#: simulated seconds per policy for the ticks/sec measurement.
SIM_SECONDS = 20.0
TICK_S = 5e-3

#: simulated seconds for the cluster measurement (two arbiter epochs
#: at the default 10 s epoch).
CLUSTER_SIM_SECONDS = 20.0

#: fleet throughput grid: 2 rows x 4 racks x 16 nodes = 128 nodes.
FLEET_GRID = (2, 4, 16)

#: arbitration-latency grid: 4 rows x 8 racks x 32 nodes = 1,024 nodes.
FLEET_ARB_GRID = (4, 8, 32)

#: epochs timed for the arbitration-latency measurement (after warmup).
FLEET_ARB_EPOCHS = 8

#: racks whose nodes move demand per steady-state epoch (~3 % of the
#: fleet, localized the way real load shifts are: a spike rolls
#: through one rack while the rest of the fleet holds steady).
FLEET_ARB_CHURN_RACKS = 1

#: --check fails when telemetry validation costs more than this
#: percentage of a full 1,024-node arbitration epoch.
TRUST_OVERHEAD_LIMIT_PCT = 5.0

#: lockstep rounds for the trust overhead.  Each round times
#: :data:`TRUST_OVERHEAD_ROUND_EPOCHS` epochs on both arbiters back to
#: back (one validated-minus-unvalidated delta per epoch, both sides
#: under the same instantaneous machine load) and condenses to a
#: median-delta overhead; the *minimum* round is the reported cost.
#: Interference from neighbors is one-sided — it can only make the
#: validation layer look more expensive, never cheaper — so the
#: quietest round estimates the intrinsic cost, the same reasoning
#: behind ``timeit``'s min-over-repeats doctrine.
TRUST_OVERHEAD_ROUNDS = 8

#: lockstep epoch pairs timed per trust-overhead round.
TRUST_OVERHEAD_ROUND_EPOCHS = 24

#: which engine produced each committed throughput metric.
METRIC_ENGINES = {
    "ticks_per_sec": "array",
    "scalar_ticks_per_sec": "scalar",
    "array_speedup": "array/scalar",
    "cluster_ticks_per_sec": "array",
    "fleet_ticks_per_sec": "array",
    "fleet_arbitration_ms": "arbiter-only",
    "trust_overhead_pct": "arbiter-only",
}


def _bench_config(policy: str, engine: str) -> ExperimentConfig:
    """A representative stack: 4 HP + 4 LP apps under a 50 W limit."""
    specs = (
        (AppSpec("cactusBSSN", shares=75.0, priority=Priority.HIGH),) * 2
        + (AppSpec("leela", shares=100.0, priority=Priority.HIGH),) * 2
        + (AppSpec("cactusBSSN", shares=25.0, priority=Priority.LOW),) * 2
        + (AppSpec("leela", shares=50.0, priority=Priority.LOW),) * 2
    )
    return ExperimentConfig(
        platform="skylake",
        policy=policy,
        limit_w=50.0,
        apps=specs,
        tick_s=TICK_S,
        engine=engine,
    )


def measure_ticks_per_sec(
    sim_seconds: float = SIM_SECONDS,
    engine: str = "array",
) -> float:
    """Mean ticks/sec across a priority and a frequency-shares stack.

    Both engines run the identical configs (same seeds, same policies),
    so ``measure_ticks_per_sec(engine="array") /
    measure_ticks_per_sec(engine="scalar")`` is a like-for-like
    speedup.
    """
    rates = []
    for policy in ("priority", "frequency-shares"):
        stack = build_stack(_bench_config(policy, engine))
        # warm up allocations and caches outside the timed region
        stack.engine.run(1.0)
        n_ticks = int(round(sim_seconds / TICK_S))
        start = time.perf_counter()
        stack.engine.run_ticks(n_ticks)
        rates.append(n_ticks / (time.perf_counter() - start))
    return sum(rates) / len(rates)


def measure_cluster_ticks_per_sec(
    sim_seconds: float = CLUSTER_SIM_SECONDS,
    engine: str = "array",
) -> float:
    """Aggregate node-ticks/sec of the canonical 4-node cluster.

    In-process stepping (``jobs=1``) so the number measures per-node
    simulation plus arbiter/condense overhead, not fork fan-out.  With
    the array engine that path is the stacked stepper: every node's
    chip advances as one batch per epoch.
    """
    from repro.cluster import run_cluster
    from repro.experiments.cluster_exp import default_cluster_config

    config = dataclasses.replace(default_cluster_config(), engine=engine)
    node_ticks = len(config.nodes) * int(round(sim_seconds / config.tick_s))
    start = time.perf_counter()
    run_cluster(config, sim_seconds, jobs=1)
    return node_ticks / (time.perf_counter() - start)


def measure_fleet_ticks_per_sec(engine: str = "array") -> float:
    """Nominal node-ticks/sec of a 128-node idle-heavy diurnal fleet.

    One short diurnal period at 10–30 % activation: most of the fleet
    is idle every epoch and the stacked stepper must skip it.  The
    numerator counts every node's nominal ticks — idle-skipped ones
    included — because the skip *is* the throughput being guarded; the
    wall clock also pays the hierarchical refill every epoch.
    """
    from repro.cluster import run_cluster
    from repro.experiments.fleet_exp import fleet_config
    from repro.fleet import DiurnalSchedule

    schedule = DiurnalSchedule(
        period_epochs=8,
        base_active_fraction=0.1,
        peak_active_fraction=0.3,
        row_phase_epochs=2,
    )
    config = fleet_config(
        *FLEET_GRID, schedule=schedule, epoch_ticks=5, engine=engine
    )
    duration_s = schedule.period_epochs * config.epoch_s
    node_ticks = len(config.nodes) * int(round(duration_s / config.tick_s))
    start = time.perf_counter()
    run_cluster(config, duration_s, jobs=1)
    return node_ticks / (time.perf_counter() - start)


def _fleet_arb_reports(config, epoch: int, movers: range):
    """Steady demand with a rolling rack of movers."""
    from repro.cluster.node import NodeEpochReport

    reports = {}
    for index, spec in enumerate(config.nodes):
        power = 16.0 + 0.4 * (index % 40)
        if index in movers:
            power += 6.0
        reports[spec.name] = NodeEpochReport(
            name=spec.name,
            epoch=epoch,
            t_end_s=(epoch + 1) * 1.0,
            cap_w=45.0,
            mean_power_w=power,
            throttle_pressure=0.2,
            headroom_w=max(45.0 - power, 0.0),
            parked_cores=0,
            quarantined_cores=0,
            samples=10,
        )
    return reports


def measure_fleet_arbitration_ms() -> float:
    """Mean rebalance wall-ms at 1,024 nodes.

    A steady-state epoch stream (one rack's worth of demand movement
    rolling through the fleet per epoch) drives one FleetArbiter; the
    first epochs are warm-up.
    """
    from repro.experiments.fleet_exp import fleet_config
    from repro.fleet.arbiter import FleetArbiter

    config = fleet_config(
        *FLEET_ARB_GRID,
        schedule=None,
        budget_w=FLEET_ARB_GRID[0] * FLEET_ARB_GRID[1]
        * FLEET_ARB_GRID[2] * 24.0,  # contended: below mean demand-hi
    )
    names = [spec.name for spec in config.nodes]
    arbiter = FleetArbiter(config)
    arbiter.admit(names)
    elapsed = 0.0
    rack_size = FLEET_ARB_GRID[2]
    n_racks = len(names) // rack_size
    for epoch in range(2 + FLEET_ARB_EPOCHS):
        first = (epoch % n_racks) * rack_size
        movers = range(first, first + FLEET_ARB_CHURN_RACKS * rack_size)
        reports = _fleet_arb_reports(config, epoch, movers)
        start = time.perf_counter()
        arbiter.rebalance(epoch, reports)
        if epoch >= 2:  # first epochs seed validator anchors: warm-up
            elapsed += time.perf_counter() - start
    return 1e3 * elapsed / FLEET_ARB_EPOCHS


def measure_trust_overhead_pct() -> float:
    """Validated vs. unvalidated arbitration at 1,024 nodes, percent.

    The same steady report stream as the arbitration-latency
    measurement drives two FleetArbiters in lockstep: one real, one
    with ``validator = None`` — the arbiter's break-glass mode that
    takes reports at face value and skips all trust bookkeeping — so
    the difference is exactly what the telemetry-robustness layer
    costs per epoch.

    Every epoch is timed on both arbiters back to back (order
    alternating per epoch), yielding one per-epoch delta under the
    same instantaneous machine load.  Each of
    :data:`TRUST_OVERHEAD_ROUNDS` rounds condenses its epochs to a
    median-delta overhead, and the minimum round wins: neighbor
    interference on a shared machine is one-sided — the validator's
    extra memory traffic only ever gets *more* expensive under cache
    contention — so the quietest round is the intrinsic-cost
    estimate.  The collector is paused while timing (the validated
    side allocates more, so GC pauses would bias the delta, the same
    reason ``timeit`` disables GC).
    """
    import gc
    import statistics

    from repro.experiments.fleet_exp import fleet_config
    from repro.fleet.arbiter import FleetArbiter

    config = fleet_config(
        *FLEET_ARB_GRID,
        schedule=None,
        budget_w=FLEET_ARB_GRID[0] * FLEET_ARB_GRID[1]
        * FLEET_ARB_GRID[2] * 24.0,
    )
    names = [spec.name for spec in config.nodes]
    rack_size = FLEET_ARB_GRID[2]
    n_racks = len(names) // rack_size

    def make(validated: bool) -> FleetArbiter:
        arbiter = FleetArbiter(config)
        if not validated:
            arbiter.validator = None
        arbiter.admit(names)
        return arbiter

    plain = make(validated=False)
    checked = make(validated=True)

    def step(arbiter: FleetArbiter, epoch: int, reports) -> float:
        start = time.perf_counter()
        arbiter.rebalance(epoch, reports)
        return time.perf_counter() - start

    rounds: list[float] = []
    epoch = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for round_no in range(TRUST_OVERHEAD_ROUNDS):
            deltas: list[float] = []
            bases: list[float] = []
            warmup = 2 if round_no == 0 else 0
            for i in range(warmup + TRUST_OVERHEAD_ROUND_EPOCHS):
                first = (epoch % n_racks) * rack_size
                movers = range(
                    first, first + FLEET_ARB_CHURN_RACKS * rack_size
                )
                reports = _fleet_arb_reports(config, epoch, movers)
                if epoch % 2:
                    t_checked = step(checked, epoch, reports)
                    t_plain = step(plain, epoch, dict(reports))
                else:
                    t_plain = step(plain, epoch, reports)
                    t_checked = step(checked, epoch, dict(reports))
                if i >= warmup:  # first epochs seed anchors
                    deltas.append(t_checked - t_plain)
                    bases.append(t_plain)
                epoch += 1
            rounds.append(
                100.0 * statistics.median(deltas)
                / statistics.median(bases)
            )
            gc.collect()
    finally:
        if gc_was_enabled:
            gc.enable()
    return min(rounds)


def measure_report_quick_s() -> float:
    """Wall time of a quick report, cold cache, one worker."""
    from repro.experiments.full_report import generate_report

    os.environ["REPRO_NO_CACHE"] = "1"
    try:
        start = time.perf_counter()
        generate_report(quick=True, use_cache=False)
        return time.perf_counter() - start
    finally:
        os.environ.pop("REPRO_NO_CACHE", None)


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def check_regression(baseline_path: Path = BASELINE_PATH) -> int:
    """Exit code 0 when both ticks/sec metrics are within tolerance.

    On failure the offending metric is re-measured on the scalar
    engine and both engines' throughputs are printed — a collapsed
    array speedup means the batching kernel regressed, while both
    engines slowing together points at the simulator model itself.
    """
    try:
        baseline = json.loads(baseline_path.read_text())
        baselines = {
            "ticks/sec": float(baseline["ticks_per_sec"]),
            "cluster ticks/sec": float(baseline["cluster_ticks_per_sec"]),
            "fleet ticks/sec": float(baseline["fleet_ticks_per_sec"]),
        }
    except (OSError, KeyError, ValueError, TypeError) as exc:
        print(f"bench: no usable baseline at {baseline_path}: {exc}",
              file=sys.stderr)
        return 2
    scalar_measures = {
        "ticks/sec": measure_ticks_per_sec,
        "cluster ticks/sec": measure_cluster_ticks_per_sec,
        "fleet ticks/sec": measure_fleet_ticks_per_sec,
    }
    measured = {
        "ticks/sec": measure_ticks_per_sec(),
        "cluster ticks/sec": measure_cluster_ticks_per_sec(),
        "fleet ticks/sec": measure_fleet_ticks_per_sec(),
    }
    rc = 0
    for name, baseline_rate in baselines.items():
        rate = measured[name]
        floor = baseline_rate * (1.0 - REGRESSION_TOLERANCE)
        status = "ok" if rate >= floor else "FAIL"
        print(f"[{status}] {name} {rate:,.0f} vs baseline "
              f"{baseline_rate:,.0f} (floor {floor:,.0f}, "
              f"git {baseline.get('git', '?')})")
        if rate < floor:
            scalar_rate = scalar_measures[name](engine="scalar")
            speedup = rate / scalar_rate if scalar_rate > 0 else float("inf")
            print(f"       {name} by engine: array {rate:,.0f}, "
                  f"scalar {scalar_rate:,.0f} "
                  f"(array speedup {speedup:.1f}x)")
            rc = 1
    overhead = measure_trust_overhead_pct()
    status = "ok" if overhead <= TRUST_OVERHEAD_LIMIT_PCT else "FAIL"
    print(f"[{status}] trust overhead {overhead:.2f}% of a full "
          f"1,024-node arbitration epoch "
          f"(limit {TRUST_OVERHEAD_LIMIT_PCT:.1f}%)")
    if overhead > TRUST_OVERHEAD_LIMIT_PCT:
        rc = 1
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare ticks/sec against the committed "
                             "baseline; fail on >30%% regression")
    parser.add_argument("--skip-report", action="store_true",
                        help="skip the quick-report timing (reuse the "
                             "baseline's value)")
    parser.add_argument("--output", type=Path, default=BASELINE_PATH,
                        help="where to write the result JSON")
    args = parser.parse_args(argv)

    if args.check:
        return check_regression()

    array_rate = measure_ticks_per_sec(engine="array")
    scalar_rate = measure_ticks_per_sec(engine="scalar")
    result = {
        "ticks_per_sec": round(array_rate, 1),
        "scalar_ticks_per_sec": round(scalar_rate, 1),
        "array_speedup": round(array_rate / scalar_rate, 2),
        "cluster_ticks_per_sec": round(
            measure_cluster_ticks_per_sec(engine="array"), 1
        ),
        "fleet_ticks_per_sec": round(
            measure_fleet_ticks_per_sec(engine="array"), 1
        ),
        "fleet_arbitration_ms": round(measure_fleet_arbitration_ms(), 3),
        "trust_overhead_pct": round(measure_trust_overhead_pct(), 2),
        "report_quick_s": None,
        "engines": METRIC_ENGINES,
        "git": git_revision(),
    }
    print(f"ticks/sec: {result['ticks_per_sec']:,.0f} (array)")
    print(f"ticks/sec: {result['scalar_ticks_per_sec']:,.0f} (scalar)")
    print(f"array speedup: {result['array_speedup']:.1f}x")
    print(f"cluster ticks/sec: {result['cluster_ticks_per_sec']:,.0f} "
          f"(array, stacked)")
    print(f"fleet ticks/sec: {result['fleet_ticks_per_sec']:,.0f} "
          f"(array, 128 nodes, idle-skipped ticks included)")
    print(f"fleet arbitration: {result['fleet_arbitration_ms']:.2f} ms "
          f"per epoch at 1,024 nodes")
    print(f"trust overhead: {result['trust_overhead_pct']:.2f}% of a "
          f"full 1,024-node arbitration epoch "
          f"(limit {TRUST_OVERHEAD_LIMIT_PCT:.1f}%)")
    if args.skip_report:
        try:
            previous = json.loads(args.output.read_text())
            result["report_quick_s"] = previous.get("report_quick_s")
        except (OSError, ValueError):
            pass
    else:
        result["report_quick_s"] = round(measure_report_quick_s(), 1)
        print(f"quick report: {result['report_quick_s']:.0f} s")
    args.output.write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
