"""Property tests: envelope folding is delivery-order independent.

The sequence-guard contract the lease machinery leans on: however one
epoch's control-plane messages are permuted and duplicated in flight,
the receiver folds them to the same state —

* :func:`~repro.cluster.transport.fold_reports` yields the identical
  report set, so the arbiter computes **byte-identical grants** to
  in-order delivery, and
* a :class:`~repro.cluster.lease.NodeLease` lands on the identical
  (state, cap) regardless of how its grant batch was shuffled or
  multiplied.
"""

import json
import random

import pytest

from repro.cluster import ClusterConfig, NodeSpec
from repro.cluster.lease import NodeLease
from repro.cluster.node import NodeEpochReport
from repro.cluster.transport import (
    ARBITER,
    DEMAND,
    GRANT,
    Envelope,
    SequenceGuard,
    fold_reports,
)
from repro.config import AppSpec
from repro.fleet import FleetArbiter

APPS = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(6))

N_NODES = 4


def make_arbiter() -> FleetArbiter:
    nodes = tuple(
        NodeSpec(
            name=f"n{i}",
            apps=APPS,
            shares=float(1 + i % 2),
            min_cap_w=10.0,
            max_cap_w=60.0,
        )
        for i in range(N_NODES)
    )
    config = ClusterConfig(budget_w=150.0, nodes=nodes)
    arbiter = FleetArbiter(config)
    arbiter.admit([spec.name for spec in nodes])
    return arbiter


def random_report(rng: random.Random, name: str, epoch: int) -> NodeEpochReport:
    power = rng.uniform(5.0, 60.0)
    return NodeEpochReport(
        name=name,
        epoch=epoch,
        t_end_s=(epoch + 1) * 10.0,
        cap_w=rng.uniform(10.0, 60.0),
        mean_power_w=power,
        throttle_pressure=rng.random(),
        headroom_w=max(0.0, 60.0 - power),
        parked_cores=rng.randint(0, 2),
        quarantined_cores=rng.randint(0, 2),
        samples=rng.randint(1, 10),
    )


def epoch_batch(rng: random.Random, epoch: int) -> list[Envelope]:
    """One epoch's demand envelopes, possibly with delayed stragglers."""
    batch = []
    for i in range(N_NODES):
        name = f"n{i}"
        batch.append(Envelope(
            kind=DEMAND, src=name, dst=ARBITER, epoch=epoch, seq=epoch,
            payload=random_report(rng, name, epoch),
        ))
        if rng.random() < 0.4 and epoch > 0:
            # a straggler from the previous epoch rides along
            batch.append(Envelope(
                kind=DEMAND, src=name, dst=ARBITER, epoch=epoch - 1,
                seq=epoch - 1, payload=random_report(rng, name, epoch - 1),
            ))
    return batch


def scramble(
    rng: random.Random, batch: list[Envelope]
) -> list[Envelope]:
    """A random permutation with random duplication of a batch."""
    scrambled = list(batch)
    for env in batch:
        for _ in range(rng.randint(0, 2)):
            scrambled.append(env)
    rng.shuffle(scrambled)
    return scrambled


def grants_fingerprint(arbiter: FleetArbiter, folded: dict) -> str:
    grant = arbiter.rebalance(
        max((env_epoch for env_epoch in (r.epoch + 1 for r in folded.values())),
            default=0),
        folded,
    )
    return json.dumps(
        {
            "caps": {k: grant.caps_w[k] for k in sorted(grant.caps_w)},
            "degraded": list(grant.degraded),
            "reserved": {
                k: grant.reserved_w[k] for k in sorted(grant.reserved_w)
            },
        },
        sort_keys=True,
    )


@pytest.mark.parametrize("seed", range(25))
def test_fold_is_permutation_and_duplication_invariant(seed):
    rng = random.Random(seed)
    batch = epoch_batch(rng, epoch=3)
    baseline = fold_reports(list(batch), SequenceGuard())
    for _ in range(4):
        folded = fold_reports(scramble(rng, batch), SequenceGuard())
        assert folded == baseline


@pytest.mark.parametrize("seed", range(25))
def test_scrambled_delivery_yields_byte_identical_grants(seed):
    rng = random.Random(seed)
    batch = epoch_batch(rng, epoch=1)
    in_order = grants_fingerprint(
        make_arbiter(), fold_reports(list(batch), SequenceGuard())
    )
    for _ in range(4):
        scrambled = grants_fingerprint(
            make_arbiter(), fold_reports(scramble(rng, batch), SequenceGuard())
        )
        assert scrambled == in_order


@pytest.mark.parametrize("seed", range(25))
def test_multi_epoch_fold_keeps_newest_per_node(seed):
    # folding two epochs' worth through one guard in any order keeps
    # exactly the newest report per node
    rng = random.Random(seed)
    early = epoch_batch(rng, epoch=1)
    late = epoch_batch(rng, epoch=2)
    combined = scramble(rng, early + late)
    folded = fold_reports(combined, SequenceGuard())
    assert sorted(folded) == [f"n{i}" for i in range(N_NODES)]
    for payload in folded.values():
        # an epoch-2 envelope exists for every node, so the newest
        # accepted report is always the epoch-2 one
        assert payload.epoch == 2


@pytest.mark.parametrize("seed", range(25))
def test_lease_state_is_delivery_order_invariant(seed):
    rng = random.Random(seed)
    grants = [
        Envelope(kind=GRANT, src=ARBITER, dst="n0", epoch=e, seq=e,
                 payload=rng.uniform(10.0, 60.0))
        for e in range(rng.randint(1, 4))
    ]
    baseline = NodeLease("n0", floor_w=10.0, ttl_epochs=3)
    baseline.observe(list(grants), len(grants))
    for _ in range(4):
        lease = NodeLease("n0", floor_w=10.0, ttl_epochs=3)
        lease.observe(scramble(rng, grants), len(grants))
        assert lease.state is baseline.state
        assert lease.cap_w == baseline.cap_w
        assert lease.granted_epoch == baseline.granted_epoch
