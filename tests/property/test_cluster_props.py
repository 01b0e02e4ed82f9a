"""Property tests: the cluster cap-sum invariant under random demand.

Whatever demand signals the nodes report — including adversarial
combinations no simulation would produce — every arbitration must
satisfy the hierarchy invariants:

* granted caps sum to at most the facility budget, exactly;
* every member's cap stays within its configured [floor, max] range;
* crashed reporters are gone from the next grant.
"""

import random

import pytest

from repro.cluster import ClusterConfig, GroupSpec, NodeSpec
from repro.cluster.node import NodeEpochReport
from repro.config import AppSpec
from repro.fleet import FleetArbiter

APPS = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(6))


def random_config(rng: random.Random) -> ClusterConfig:
    n_nodes = rng.randint(1, 8)
    use_groups = rng.random() < 0.5 and n_nodes >= 2
    groups = ()
    group_names = [""]
    if use_groups:
        groups = tuple(
            GroupSpec(f"g{i}", shares=rng.uniform(0.5, 4.0))
            for i in range(rng.randint(1, 3))
        )
        group_names = [g.name for g in groups]
    nodes = []
    for i in range(n_nodes):
        lo = rng.uniform(5.0, 15.0)
        nodes.append(NodeSpec(
            name=f"n{i}",
            apps=APPS,
            shares=rng.uniform(0.5, 4.0),
            group=rng.choice(group_names),
            min_cap_w=lo,
            max_cap_w=lo + rng.uniform(10.0, 50.0),
        ))
    floor_sum = sum(n.min_cap_w for n in nodes)
    budget = floor_sum + rng.uniform(0.0, 120.0)
    return ClusterConfig(budget_w=budget, nodes=tuple(nodes),
                         groups=groups)


def random_report(rng, spec, epoch, cap):
    return NodeEpochReport(
        name=spec.name,
        epoch=epoch,
        t_end_s=(epoch + 1) * 10.0,
        cap_w=cap,
        mean_power_w=rng.uniform(0.0, spec.resolved_max_cap_w()),
        throttle_pressure=rng.uniform(0.0, 1.0),
        headroom_w=rng.uniform(0.0, cap),
        parked_cores=rng.randint(0, len(spec.apps)),
        quarantined_cores=rng.randint(0, len(spec.apps)),
        samples=rng.choice([0, 1, 10, 10, 10]),
        crashed=rng.random() < 0.05,
    )


@pytest.mark.parametrize("seed", range(20))
def test_invariants_hold_under_random_demand(seed):
    rng = random.Random(seed)
    config = random_config(rng)
    arbiter = FleetArbiter(config)
    arbiter.admit([spec.name for spec in config.nodes])
    grant = arbiter.rebalance(0, {})
    for epoch in range(1, 12):
        assert grant.total_w <= config.budget_w + 1e-9
        arbiter.check_invariant()
        for name, cap in grant.caps_w.items():
            spec = config.node(name)
            assert cap >= spec.min_cap_w - 1e-9
            assert cap <= spec.resolved_max_cap_w() + 1e-9
        reports = {
            name: random_report(rng, config.node(name), epoch - 1, cap)
            for name, cap in grant.caps_w.items()
        }
        grant = arbiter.rebalance(epoch, reports)
        for report in reports.values():
            if report.crashed:
                assert report.name not in grant.caps_w
    assert grant.total_w <= config.budget_w + 1e-9


@pytest.mark.parametrize("seed", range(8))
def test_saturated_cluster_spends_whole_budget(seed):
    """When every node demands more than its fair share, the arbiter
    should grant (essentially) the entire budget — no stranded watts."""
    rng = random.Random(1000 + seed)
    n_nodes = rng.randint(2, 6)
    nodes = tuple(
        NodeSpec(name=f"n{i}", apps=APPS,
                 shares=rng.uniform(0.5, 3.0),
                 min_cap_w=10.0, max_cap_w=60.0)
        for i in range(n_nodes)
    )
    budget = rng.uniform(n_nodes * 12.0, n_nodes * 40.0)
    config = ClusterConfig(budget_w=budget, nodes=nodes)
    arbiter = FleetArbiter(config)
    arbiter.admit([spec.name for spec in nodes])
    grant = arbiter.rebalance(0, {})
    reports = {
        name: NodeEpochReport(
            name=name, epoch=0, t_end_s=10.0, cap_w=cap,
            mean_power_w=cap, throttle_pressure=1.0, headroom_w=0.0,
            parked_cores=0, quarantined_cores=0, samples=10,
        )
        for name, cap in grant.caps_w.items()
    }
    grant = arbiter.rebalance(1, reports)
    assert grant.total_w == pytest.approx(budget, rel=1e-6)
    assert grant.total_w <= budget + 1e-9
