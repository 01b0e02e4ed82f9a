"""The per-epoch control plane at fleet scale: linear, and unchanged.

Two guards for the hot-path trims in the supervisor loop:

* the transport derives "has partitions" from its frozen scenario once.
  A 256-node sparse fleet run with a partition window that opens only
  after the run ends takes the partition-checking branch on every
  envelope, yet must produce the same grants, reports, lease states
  and trace as the quiet run, and byte for byte the same journal as
  the same scenario under the original per-envelope send/deliver;
* lease observation tests membership against a set, never against the
  sorted ``members`` tuple — at 2,048 members a tuple scan per lease
  would be ~2M element compares per epoch.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster import ClusterArbiter, ClusterConfig, ClusterSim, NodeSpec
from repro.cluster.transport import UnreliableTransport
from repro.config import AppSpec
from repro.experiments.fleet_exp import fleet_config
from repro.faults import LinkPartition, TransportScenario
from repro.fleet import DiurnalSchedule
from tests.property.test_transport_oracle_props import OracleTransport

pytestmark = pytest.mark.partition

EPOCHS = 6

#: 2 rows x 4 racks x 32 nodes, 1-5 % active: the sparse-fleet shape.
SPARSE = DiurnalSchedule(
    period_epochs=EPOCHS,
    base_active_fraction=0.01,
    peak_active_fraction=0.05,
    row_phase_epochs=2,
)

#: zero rates, one partition of every link that opens after the run:
#: not quiet, so every envelope goes through the partition check.
LATE_PARTITION = TransportScenario(
    name="late-partition",
    partitions=(LinkPartition(EPOCHS + 10, EPOCHS + 11, None),),
)


def sparse_run(transport=None):
    config = fleet_config(
        2, 4, 32, seed=3, schedule=SPARSE, epoch_ticks=1, engine="array",
        transport=transport,
    )
    assert len(config.nodes) >= 256
    sim = ClusterSim(config, jobs=1)
    assert sim.transport._partitions is (transport is not None)
    return sim.run(EPOCHS * config.epoch_s)


def trace_bytes(run) -> bytes:
    return json.dumps(run.trace.to_jsonable(), sort_keys=True).encode()


def first_difference(a, b):
    """Index of the first differing item (``None`` if equal).

    A boolean verdict keeps pytest from diffing fleet-sized objects,
    which takes minutes when a run does diverge.
    """
    for index, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return index
    return None if len(a) == len(b) else min(len(a), len(b))


def journal_without_rng(run) -> list[dict]:
    """The journal's JSONL entries with the transport RNG state masked.

    A non-quiet transport rolls its fault RNG for every envelope even
    at zero rates; that state is the one journaled field a quiet run
    legitimately never moves.
    """
    entries = [json.loads(line) for line in run.journal.to_jsonl().splitlines()]
    for entry in entries:
        if entry["kind"] == "fence":
            entry["data"]["transport"]["rng"] = None
    return entries


@pytest.fixture(scope="module")
def quiet_run():
    return sparse_run()


@pytest.fixture(scope="module")
def late_partition_run():
    return sparse_run(LATE_PARTITION)


class TestPartitionFlagCannotChangeARun:
    def test_same_grants_reports_and_leases_as_quiet(
        self, quiet_run, late_partition_run
    ):
        assert late_partition_run.n_epochs == quiet_run.n_epochs == EPOCHS
        for field in ("grants", "reports", "lease_states"):
            epoch = first_difference(
                getattr(late_partition_run, field), getattr(quiet_run, field)
            )
            assert epoch is None, f"{field} differ at epoch {epoch}"
        assert late_partition_run.transport_stats.dropped == 0

    def test_same_trace_bytes_as_quiet(self, quiet_run, late_partition_run):
        same = trace_bytes(late_partition_run) == trace_bytes(quiet_run)
        assert same, "trace bytes differ"

    def test_same_journal_as_quiet_but_for_the_rng(
        self, quiet_run, late_partition_run
    ):
        line = first_difference(
            journal_without_rng(late_partition_run),
            journal_without_rng(quiet_run),
        )
        assert line is None, f"journal differs at entry {line}"

    def test_journal_bytes_equal_the_per_envelope_oracle(
        self, late_partition_run, monkeypatch
    ):
        monkeypatch.setattr(UnreliableTransport, "send", OracleTransport.send)
        monkeypatch.setattr(
            UnreliableTransport, "deliver", OracleTransport.deliver
        )
        oracle = sparse_run(LATE_PARTITION)
        line = first_difference(
            oracle.journal.to_jsonl().splitlines(),
            late_partition_run.journal.to_jsonl().splitlines(),
        )
        assert line is None, f"journal differs at line {line}"
        same = trace_bytes(oracle) == trace_bytes(late_partition_run)
        assert same, "trace bytes differ"


class CountingMembers(tuple):
    """A members tuple that counts membership tests against it."""

    contains_calls = 0

    def __contains__(self, item) -> bool:
        CountingMembers.contains_calls += 1
        return super().__contains__(item)


class TestLeaseObservationScaling:
    N_MEMBERS = 2048

    def test_no_tuple_membership_tests_at_2048_members(self, monkeypatch):
        apps = (AppSpec("cactusBSSN", shares=50.0),)
        nodes = tuple(
            NodeSpec(name=f"n{i:04d}", apps=apps, min_cap_w=10.0,
                     max_cap_w=60.0)
            for i in range(self.N_MEMBERS)
        )
        config = ClusterConfig(budget_w=30.0 * self.N_MEMBERS, nodes=nodes)
        sim = ClusterSim(config)
        sim._boundary_membership(0, 0.0, config.epoch_s)
        retired = [f"n{i:04d}" for i in range(0, self.N_MEMBERS, 7)]
        sim.arbiter.retire(retired)
        monkeypatch.setattr(
            ClusterArbiter,
            "members",
            property(lambda arbiter: CountingMembers(sorted(arbiter._members))),
        )
        CountingMembers.contains_calls = 0
        caps, safe = sim._observe_leases(0)
        assert CountingMembers.contains_calls == 0
        # leases of retired members are still deleted ...
        assert not set(retired) & set(sim._leases)
        # ... and every live member is observed, in sorted order
        live = tuple(sorted(set(spec.name for spec in nodes) - set(retired)))
        assert tuple(caps) == live
        assert tuple(sim._leases) == tuple(
            name for name in (spec.name for spec in nodes) if name in live
        )
        assert safe == frozenset()
