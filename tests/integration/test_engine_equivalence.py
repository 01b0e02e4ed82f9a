"""Integration tests: scalar and array engines are byte-identical.

The acceptance bar for the batched array engine, end to end on real
stacks: a full experiment run — daemon, policy, fault injection,
cluster arbitration, control-plane faults, crash recovery — must
serialize to the **same bytes** whichever engine stepped the
simulation, and (for clusters) however the nodes were scheduled:
serial scalar, in-process stacked array, or fork-parallel workers.

These tests compare JSON-serialized results/traces rather than floats
with tolerances: the array engine's contract is bit-exactness, so any
drift at all is a failure.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

pytest.importorskip("numpy")

from repro.config import AppSpec, ExperimentConfig, Priority
from repro.experiments.cache import result_to_jsonable
from repro.experiments.cluster_exp import default_cluster_config
from repro.experiments.runner import run_steady


def steady_bytes(engine: str, *, platform="skylake",
                 policy="frequency-shares", faults=None) -> bytes:
    config = ExperimentConfig(
        platform=platform,
        policy=policy,
        limit_w=50.0,
        apps=(
            AppSpec("cactusBSSN", shares=75.0, priority=Priority.HIGH),
            AppSpec("leela", shares=100.0, priority=Priority.HIGH),
            AppSpec("omnetpp", shares=25.0, priority=Priority.LOW),
            AppSpec("leela", shares=50.0, priority=Priority.LOW),
        ),
        faults=faults,
        fault_seed=7,
        engine=engine,
    )
    result = run_steady(config, duration_s=60.0, warmup_s=20.0)
    return json.dumps(result_to_jsonable(result), sort_keys=True).encode()


def cluster_trace_bytes(engine: str, *, jobs=None, transport=None,
                        crash_faults=None) -> bytes:
    from repro.cluster import run_cluster

    config = dataclasses.replace(
        default_cluster_config(
            n_nodes=3, transport=transport, crash_faults=crash_faults
        ),
        engine=engine,
    )
    run = run_cluster(config, 120.0, jobs=jobs)
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


class TestSingleSocket:
    @pytest.mark.parametrize(
        "platform,policy",
        [
            ("skylake", "frequency-shares"),
            ("skylake", "rapl"),
            ("ryzen", "power-shares"),
        ],
    )
    def test_steady_runs_match(self, platform, policy):
        assert steady_bytes(
            "scalar", platform=platform, policy=policy
        ) == steady_bytes("array", platform=platform, policy=policy)

    def test_steady_runs_match_under_faults(self):
        """Fault scenario: gates force the per-tick slow path, and both
        engines must draw the identical fault stream around it."""
        assert steady_bytes("scalar", faults="full-storm") == (
            steady_bytes("array", faults="full-storm")
        )

    def test_steady_runs_match_under_app_crashes(self):
        """App crashes flip ``finished`` from outside the chip — the one
        mutation no dirty flag marks; the dynamic running mask must
        carry it into the batch."""
        assert steady_bytes("scalar", faults="app-crash") == (
            steady_bytes("array", faults="app-crash")
        )


class TestCluster:
    def test_stacked_serial_and_parallel_match(self):
        scalar = cluster_trace_bytes("scalar")
        stacked = cluster_trace_bytes("array")
        forked = cluster_trace_bytes("array", jobs=2)
        assert scalar == stacked
        assert scalar == forked

    def test_engines_match_under_transport_faults(self):
        """Control-plane scenario: lost/duplicated grant envelopes and
        lease step-downs must land on identical epochs either way."""
        assert cluster_trace_bytes(
            "scalar", transport="flaky-links"
        ) == cluster_trace_bytes("array", transport="flaky-links")

    def test_engines_match_under_crash_faults(self):
        """Crash scenario: node restarts rebuild mid-run stacks (fresh
        chips, boot-safe latch) whose epochs the stacked stepper gangs
        by window length."""
        assert cluster_trace_bytes(
            "scalar", crash_faults="node-restart"
        ) == cluster_trace_bytes("array", crash_faults="node-restart")

    def test_engines_match_under_crash_and_transport(self):
        assert cluster_trace_bytes(
            "scalar", transport="lossy-links", crash_faults="arbiter-crash"
        ) == cluster_trace_bytes(
            "array", transport="lossy-links", crash_faults="arbiter-crash"
        )


def fleet_width_bytes(engine: str) -> bytes:
    """Grants, reports and per-core retired instructions of a 16-node
    busy fleet, serialized exactly (``float.hex`` via ``repr``)."""
    import random

    from repro.cluster.runtime import ClusterSim
    from repro.experiments.fleet_exp import fleet_config
    from repro.fleet import DiurnalSchedule

    schedule = DiurnalSchedule(
        period_epochs=6,
        base_active_fraction=0.85,
        peak_active_fraction=0.95,
        row_phase_epochs=3,
    )
    config = fleet_config(
        2, 2, 4, seed=5, schedule=schedule, epoch_ticks=1, engine=engine
    )
    # distinct shares per node and app, so no two chips step alike
    rng = random.Random(5)
    config = dataclasses.replace(
        config,
        nodes=tuple(
            dataclasses.replace(
                spec,
                shares=rng.uniform(0.5, 2.0),
                apps=tuple(
                    dataclasses.replace(app, shares=rng.uniform(20.0, 80.0))
                    for app in spec.apps
                ),
            )
            for spec in config.nodes
        ),
    )
    sim = ClusterSim(config, jobs=1)
    stepper = sim._ensure_stepper()
    run = sim.run(8 * config.epoch_s)
    parts = []
    for grant, reports in zip(run.grants, run.reports):
        parts.append(repr((grant.epoch, sorted(grant.caps_w.items()))))
        parts.append(repr(sorted(
            (name, dataclasses.astuple(report))
            for name, report in reports.items()
        )))
    stepped = 0
    for node in stepper.nodes:
        if node.stack is not None:
            stepped += 1
            parts.append(repr((
                node.spec.name,
                [c.total_instructions.hex() for c in node.stack.chip.cores],
            )))
    assert stepped >= 16
    return "\n".join(parts).encode()


class TestFleetWidth:
    def test_busy_fleet_engines_match(self):
        """A 16-node busy fleet gangs every active node into one wide
        ``(ticks x ~150 cores)`` batch per epoch — far wider than the
        3-node cluster runs above — and must still match the scalar
        engine byte for byte."""
        assert fleet_width_bytes("scalar") == fleet_width_bytes("array")
