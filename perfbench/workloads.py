"""The benchmark's four workloads, each built from a seed.

A workload runs in *rounds*: one round builds a fresh system from the
seed, runs a fixed amount of simulated work, and checks the outputs.
Rounds of one seed are identical work, so the runner repeats them,
takes each epoch's minimum time over the rounds, and requires every
round to reproduce the same ``sim_digest``.

* ``socket`` — single-socket paper stacks stepped 1 s (one daemon
  interval) at a time.
* ``busy_fleet`` — 32 nodes, ~90 % active, 1 s epochs.
* ``sparse_fleet`` — 1,024 nodes on a diurnal swing of 0–2 active
  nodes per rack, 1 s epochs.
* ``faulted_fleet`` — 128 nodes at 20–50 % active under a lossy,
  partitioned transport, three liars, background garbage and an arbiter
  crash; recovered from a JSONL journal dump at a mid-run fence.

Only the seeded inputs reach the program; nothing goes through
``repro.experiments.cache``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import math
import operator
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Any, Callable, ContextManager

#: control epochs the fleet runs discard as warm-up (lazy stack builds).
WARMUP_EPOCHS = 1

#: a socket stack must hold its limit within this after settling (the
#: websearch stack's 1 s samples swing with request arrivals).
LIMIT_TOLERANCE = 0.05

#: daemon samples up to this simulated time are the settling window.
SETTLE_S = 3.0


#: Σcap ≤ budget slack, watts (float residue of the exact trim).
CAP_SLACK_W = 1e-6

Phase = Callable[[str], ContextManager[Any]]


def _no_phase(name: str) -> ContextManager[Any]:
    return contextlib.nullcontext()


def maxrss_kb() -> int:
    """Peak resident set of this process, KB (Linux ``ru_maxrss``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


@dataclass
class RoundResult:
    """What one round measured and checked."""

    #: simulated node-ticks actually stepped (idle-skipped excluded).
    node_ticks: int = 0
    #: host ms per control epoch, in run order (same length every round).
    epoch_ms: list[float] = field(default_factory=list)
    #: positions in ``epoch_ms`` that are warm-up epochs.
    warmup: list[int] = field(default_factory=list)
    #: (check name, passed) for every correctness check made.
    checks: list[tuple[str, bool]] = field(default_factory=list)
    digest: str = ""
    #: host s for dump → reload → recover (faulted_fleet only).
    recovery_s: float | None = None
    #: (epoch, peak RSS KB) at each epoch start of the primary run.
    rss_marks: list[tuple[int, int]] = field(default_factory=list)
    #: workload counters the per-layer map reports.
    counters: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))


class EpochClock:
    """One timestamp per ``rebalance`` call: the untraced run's only hook.

    Installed on the class, so a crash-redo arbiter rebuilt from the
    journal is timed too.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[float, int]] = []
        self._raw: Any = None

    def install(self) -> None:
        from repro.cluster.arbiter import ClusterArbiter

        raw = ClusterArbiter.__dict__["rebalance"]
        marks = self.marks

        def rebalance(arbiter: Any, *args: Any, **kwargs: Any) -> Any:
            marks.append((time.perf_counter(), maxrss_kb()))
            return raw(arbiter, *args, **kwargs)

        ClusterArbiter.rebalance = rebalance  # type: ignore[method-assign]
        self._raw = raw

    def uninstall(self) -> None:
        if self._raw is not None:
            from repro.cluster.arbiter import ClusterArbiter

            ClusterArbiter.rebalance = self._raw  # type: ignore[method-assign]
            self._raw = None

    def take(self) -> list[tuple[float, int]]:
        marks = list(self.marks)
        self.marks.clear()
        return marks


def _sha(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _finite(values: list[float]) -> bool:
    return all(math.isfinite(v) for v in values)


# -- socket ----------------------------------------------------------------------

#: simulated seconds each socket stack runs per round.
SOCKET_SIM_S = 10

#: (label, platform, policy, limit W).  Every policy family; ``rapl``
#: at a binding and at a loose limit.
SOCKET_STACKS: tuple[tuple[str, str, str, float], ...] = (
    ("skylake/priority", "skylake", "priority", 50.0),
    ("skylake/frequency-shares", "skylake", "frequency-shares", 50.0),
    ("skylake/performance-shares", "skylake", "performance-shares", 50.0),
    ("ryzen/power-shares", "ryzen", "power-shares", 40.0),
    ("skylake/rapl-binding", "skylake", "rapl", 50.0),
    ("skylake/rapl-loose", "skylake", "rapl", 84.0),
)

#: websearch + cpuburn co-location (paper Figs 5/12): 90/10 shares.
WEBSEARCH_LABEL = "skylake/websearch+cpuburn"
WEBSEARCH_LIMIT_W = 45.0
WEBSEARCH_TICK_S = 2e-3


@dataclass
class SocketStack:
    label: str
    engine: Any
    daemon: Any
    chip: Any
    limit_w: float
    ticks_per_s: int


def _table2_apps(rng: random.Random) -> tuple:
    """4 high- and 4 low-priority apps, seeded shares and placement."""
    from repro.config import AppSpec
    from repro.core.types import Priority

    apps = []
    for bench in ("cactusBSSN", "leela", "cactusBSSN", "leela"):
        apps.append(AppSpec(bench, shares=rng.uniform(60.0, 100.0),
                            priority=Priority.HIGH))
        apps.append(AppSpec(bench, shares=rng.uniform(10.0, 50.0),
                            priority=Priority.LOW))
    rng.shuffle(apps)
    return tuple(apps)


def _websearch_stack(seed: int) -> SocketStack:
    from repro.core.daemon import PowerDaemon
    from repro.core.frequency_shares import FrequencySharesPolicy
    from repro.core.types import ManagedApp
    from repro.hw.platform import get_platform
    from repro.sim.chip import Chip
    from repro.sim.core import BatchCoreLoad, ClusterCoreLoad
    from repro.sim.engine import SimEngine
    from repro.workloads.app import RunningApp
    from repro.workloads.cpuburn import cpuburn
    from repro.workloads.websearch import WebsearchCluster, WebsearchConfig

    platform = get_platform("skylake")
    chip = Chip(platform, tick_s=WEBSEARCH_TICK_S)
    engine = SimEngine(chip, engine="array")
    serving = list(range(platform.n_cores - 1))
    cluster = WebsearchCluster(serving, WebsearchConfig(seed=seed))
    chip.attach_cluster(cluster)
    managed = []
    for core_id in cluster.core_ids:
        chip.assign_load(core_id, ClusterCoreLoad(cluster, core_id))
        managed.append(ManagedApp(label=f"websearch@{core_id}",
                                  core_id=core_id, shares=90.0))
    burn_core = platform.n_cores - 1
    chip.assign_load(
        burn_core,
        BatchCoreLoad(RunningApp(cpuburn()), platform.reference_frequency_mhz),
    )
    managed.append(ManagedApp(label="cpuburn#0", core_id=burn_core,
                              shares=10.0))
    daemon = PowerDaemon(
        chip, FrequencySharesPolicy(platform, managed, WEBSEARCH_LIMIT_W)
    )
    daemon.attach(engine)
    return SocketStack(WEBSEARCH_LABEL, engine, daemon, chip,
                       WEBSEARCH_LIMIT_W, int(round(1.0 / WEBSEARCH_TICK_S)))


class SocketWorkload:
    name = "socket"
    #: host seconds one round takes on the reference machine (see README).
    round_s = 0.9

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> list[SocketStack]:
        from repro.config import ExperimentConfig, build_stack

        rng = random.Random(self.seed)
        stacks = []
        for label, platform, policy, limit in SOCKET_STACKS:
            config = ExperimentConfig(
                platform=platform,
                policy=policy,
                # seeded jitter keeps the binding stacks binding
                limit_w=limit + rng.uniform(-0.5, 0.5),
                apps=_table2_apps(rng),
                tick_s=5e-3,
                engine="array",
            )
            stack = build_stack(config)
            stacks.append(SocketStack(
                label, stack.engine, stack.daemon, stack.chip,
                config.limit_w, int(round(1.0 / config.tick_s)),
            ))
        stacks.append(_websearch_stack(self.seed))
        return stacks

    def run_round(self, clock: EpochClock | None,
                  phase: Phase = _no_phase) -> RoundResult:
        result = RoundResult()
        with phase("bench.setup"):
            stacks = self.setup()
        perf = time.perf_counter
        for stack in stacks:
            run_ticks = stack.engine.run_ticks
            for _ in range(SOCKET_SIM_S):
                start = perf()
                run_ticks(stack.ticks_per_s)
                result.epoch_ms.append(1e3 * (perf() - start))
            result.node_ticks += SOCKET_SIM_S * stack.ticks_per_s
        parts = []
        for stack in stacks:
            history = stack.daemon.history
            retired = [core.total_instructions for core in stack.chip.cores]
            values = [s.package_power_w for s in history] + retired
            for sample in history:
                values.extend(sample.app_frequency_mhz.values())
            result.check(f"{stack.label}: no NaN", _finite(values))
            settled = [s.package_power_w for s in history
                       if s.time_s > SETTLE_S]
            held = bool(settled) and (
                sum(settled) / len(settled)
                <= stack.limit_w * (1.0 + LIMIT_TOLERANCE)
            )
            result.check(f"{stack.label}: holds {stack.limit_w:.2f} W", held)
            parts.append(stack.label)
            for sample in history:
                parts.append(repr((
                    sample.package_power_w,
                    sorted(sample.targets_mhz.items()),
                    sorted(sample.app_frequency_mhz.items()),
                )))
            parts.append(repr(retired))
        result.digest = _sha(parts)
        return result


# -- fleets ----------------------------------------------------------------------


def _seeded_fleet(grid: tuple[int, int, int], schedule: Any, epoch_ticks: int,
                  seed: int, **extra: Any) -> Any:
    """A grid fleet with seeded node and app shares."""
    from repro.experiments.fleet_exp import fleet_config

    config = fleet_config(*grid, seed=seed, schedule=schedule,
                          epoch_ticks=epoch_ticks, engine="array", **extra)
    rng = random.Random(seed)
    nodes = tuple(
        dataclasses.replace(
            spec,
            shares=rng.uniform(0.5, 2.0),
            apps=tuple(
                dataclasses.replace(app, shares=rng.uniform(20.0, 80.0))
                for app in spec.apps
            ),
        )
        for spec in config.nodes
    )
    return dataclasses.replace(config, nodes=nodes)


def _epoch_samples(marks: list[tuple[float, int]], end: float) -> list[float]:
    """Host ms per epoch from the rebalance timestamps."""
    stamps = [t for t, _ in marks] + [end]
    return [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])]


def _stepped_node_ticks(run: Any) -> int:
    per_epoch = int(round(run.config.epoch_s / run.config.tick_s))
    return sum(
        len(reports.keys() - idle) * per_epoch
        for reports, idle in zip(run.reports, run.idle_sets)
    )


def _report_rows(reports: dict[str, Any]) -> list[tuple]:
    if not reports:
        return []
    fields = operator.attrgetter(
        *(f.name for f in dataclasses.fields(next(iter(reports.values()))))
    )
    return [fields(reports[name]) for name in sorted(reports)]


def _fleet_digest(run: Any, stepper: Any) -> str:
    parts = []
    for grant, reports in zip(run.grants, run.reports):
        parts.append(repr((grant.epoch, sorted(grant.caps_w.items()))))
        parts.append(repr(_report_rows(reports)))
    for node in stepper.nodes:
        if node.stack is not None:
            parts.append(repr((
                node.spec.name,
                [core.total_instructions for core in node.stack.chip.cores],
            )))
    return _sha(parts)


def _cap_checks(result: RoundResult, run: Any, label: str) -> None:
    budget = run.config.budget_w
    for grant in run.grants:
        result.check(
            f"{label} epoch {grant.epoch}: cap sum <= budget",
            grant.total_w <= budget + CAP_SLACK_W,
        )


def _control_counters(result: RoundResult, runs: list[Any]) -> None:
    """Transport, trust, fleet-reuse and journal counters of the runs."""
    sent = delivered = stale = quarantined = racks = reused = 0
    entries = 0
    for run in runs:
        stats = run.transport_stats
        sent += stats.sent
        delivered += stats.delivered
        stale += stats.stale
        entries += len(run.journal) if run.journal is not None else 0
        for grant in run.grants:
            quarantined += len(grant.quarantined)
            racks += grant.fleet_stats.get("racks", 0)
            reused += grant.fleet_stats.get("reused", 0)
    result.counters.update({
        "cluster.transport.sent": sent,
        "cluster.transport.delivered": delivered,
        "cluster.transport.stale": stale,
        "cluster.trust.quarantined": quarantined,
        "fleet.arbiter.racks": racks,
        "fleet.arbiter.reused": reused,
        "cluster.journal.entries": entries,
    })


class _FleetWorkload:
    """Shared fleet round: build, run, check Σcap, digest."""

    name = ""
    round_s = 1.0
    grid: tuple[int, int, int] = (1, 1, 1)
    epoch_ticks = 1
    epochs = 1

    def __init__(self, seed: int):
        self.seed = seed

    def schedule(self) -> Any:
        raise NotImplementedError

    def config(self) -> Any:
        return _seeded_fleet(self.grid, self.schedule(), self.epoch_ticks,
                             self.seed)

    def setup(self) -> tuple[Any, Any, Any]:
        from repro.cluster.runtime import ClusterSim

        config = self.config()
        sim = ClusterSim(config, jobs=1)
        # built here, before the first epoch, and kept for the digest
        stepper = sim._ensure_stepper()
        return config, sim, stepper

    def _timed_run(self, result: RoundResult, clock: EpochClock | None,
                   sim: Any, duration_s: float, start_epoch: int = 0,
                   primary: bool = False) -> Any:
        if clock is not None:
            clock.take()
        start = time.perf_counter()
        run = sim.run(duration_s, start_epoch=start_epoch)
        end = time.perf_counter()
        result.node_ticks += _stepped_node_ticks(run)
        if clock is not None:
            marks = clock.take()
            first = len(result.epoch_ms)
            result.warmup.extend(range(first, first + WARMUP_EPOCHS))
            result.epoch_ms.extend(_epoch_samples(marks, end))
            if primary:
                result.rss_marks = [
                    (start_epoch + i, rss) for i, (_, rss) in enumerate(marks)
                ]
        return run

    def run_round(self, clock: EpochClock | None,
                  phase: Phase = _no_phase) -> RoundResult:
        result = RoundResult()
        with phase("bench.setup"):
            config, sim, stepper = self.setup()
        run = self._timed_run(result, clock, sim, self.epochs * config.epoch_s,
                              primary=True)
        _cap_checks(result, run, self.name)
        _control_counters(result, [run])
        result.digest = _fleet_digest(run, stepper)
        return result


class BusyFleetWorkload(_FleetWorkload):
    name = "busy_fleet"
    round_s = 0.8
    grid = (2, 2, 8)
    epoch_ticks = 1
    epochs = 12

    def schedule(self) -> Any:
        from repro.fleet import DiurnalSchedule

        # 7 or 8 of every rack's 8 nodes active
        return DiurnalSchedule(period_epochs=6, base_active_fraction=0.85,
                               peak_active_fraction=0.95, row_phase_epochs=3)


class SparseFleetWorkload(_FleetWorkload):
    name = "sparse_fleet"
    round_s = 1.7
    grid = (4, 8, 32)
    epoch_ticks = 1
    epochs = 12

    def schedule(self) -> Any:
        from repro.fleet import DiurnalSchedule

        # one period per round: 0–2 of every rack's 32 nodes active;
        # rows swing out of phase, so a row's eight racks change
        # membership every few epochs
        return DiurnalSchedule(period_epochs=12, base_active_fraction=0.01,
                               peak_active_fraction=0.05, row_phase_epochs=3)


class FaultedFleetWorkload(_FleetWorkload):
    name = "faulted_fleet"
    round_s = 3.0
    grid = (2, 4, 16)
    epoch_ticks = 1
    epochs = 16
    #: the supervisor "dies" right after sealing this epoch.
    fence = 10

    def __init__(self, seed: int, inject: str | None = None):
        super().__init__(seed)
        self.inject = inject

    def schedule(self) -> Any:
        from repro.fleet import DiurnalSchedule

        return DiurnalSchedule(period_epochs=16, base_active_fraction=0.2,
                               peak_active_fraction=0.5, row_phase_epochs=3)

    def config(self) -> Any:
        from repro.faults import (
            LinkPartition,
            TelemetryFault,
            TelemetryScenario,
            TransportScenario,
        )
        from repro.fleet import grid_topology, leaf_racks

        topology, _ = grid_topology(*self.grid)
        racks = list(leaf_racks(topology))
        rng = random.Random(self.seed * 7919 + 1)
        rng.shuffle(racks)
        cut, *liar_racks = racks[:4]
        start = self.epochs // 4
        transport = TransportScenario(
            name="bench-lossy-partitioned",
            seed=self.seed,
            drop_rate=0.05,
            dup_rate=0.05,
            delay_rate=0.10,
            max_delay_epochs=2,
            reorder_rate=0.20,
            partitions=tuple(
                LinkPartition(start, start + 5, node) for node in cut.nodes
            ),
        )
        # liars sit among each rack's first three nodes: always active
        liars = [rack.nodes[rng.randrange(3)] for rack in liar_racks]
        telemetry = TelemetryScenario(
            name="bench-liars",
            seed=self.seed,
            faults=(
                TelemetryFault(liars[0], "inflate", start_epoch=2,
                               magnitude=3.0),
                TelemetryFault(liars[1], "stuck", start_epoch=3),
                TelemetryFault(liars[2], "flap", start_epoch=4,
                               magnitude=3.0),
            ),
            garbage_rate=0.02,
        )
        config = _seeded_fleet(self.grid, self.schedule(), self.epoch_ticks,
                               self.seed, transport=transport,
                               crash_faults="arbiter-crash")
        return dataclasses.replace(config, telemetry=telemetry)

    def run_round(self, clock: EpochClock | None,
                  phase: Phase = _no_phase) -> RoundResult:
        from repro.cluster import runtime
        from repro.cluster.journal import Journal

        result = RoundResult()
        with phase("bench.setup"):
            config, sim, stepper = self.setup()
        duration_s = self.epochs * config.epoch_s
        full = self._timed_run(result, clock, sim, duration_s, primary=True)
        # the journal as a supervisor dying right after sealing the
        # fence left it; everything later is lost
        prefix = Journal()
        for entry in full.journal.entries:
            prefix.append(entry.kind, entry.epoch, entry.data)
            if entry.kind == "fence" and entry.epoch == self.fence:
                break
        start = time.perf_counter()
        text = prefix.to_jsonl()
        reloaded = Journal.from_jsonl(text)
        recovered, next_epoch = runtime.recover_cluster_sim(
            config, reloaded, jobs=1
        )
        result.recovery_s = time.perf_counter() - start
        tail = self._timed_run(result, clock, recovered, duration_s,
                               start_epoch=next_epoch)
        tail_grants = [grant.caps_w for grant in tail.grants]
        if self.inject == "recovery-tail" and tail_grants:
            name = min(tail_grants[0])
            tail_grants[0] = {**tail_grants[0],
                              name: tail_grants[0][name] + 1.0}
        result.check("recovery resumes after the fence",
                     next_epoch == self.fence + 1)
        result.check("arbiter crash redone from the journal",
                     full.crash_recoveries == 1)
        result.check("recovered tail grants match",
                     tail_grants == [g.caps_w for g in
                                     full.grants[next_epoch:]])
        result.check("recovered tail reports match",
                     tail.reports == full.reports[next_epoch:])
        result.check("recovered tail lease states match",
                     tail.lease_states == full.lease_states[next_epoch:])
        _cap_checks(result, full, self.name)
        _cap_checks(result, tail, f"{self.name} tail")
        _control_counters(result, [full, tail])
        result.counters["cluster.journal.bytes"] = len(text.encode())
        result.digest = _fleet_digest(full, stepper)
        return result


def make_workload(name: str, seed: int, inject: str | None = None) -> Any:
    if name == "faulted_fleet":
        return FaultedFleetWorkload(seed, inject)
    workloads = {
        "socket": SocketWorkload,
        "busy_fleet": BusyFleetWorkload,
        "sparse_fleet": SparseFleetWorkload,
    }
    return workloads[name](seed)
