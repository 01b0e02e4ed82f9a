"""Unit tests for the hierarchical fleet arbiter.

The contract under test: the FleetArbiter is the one concrete
:class:`~repro.cluster.arbiter.ClusterArbiter` — flat ``groups``
configs arbitrate a derived two-level tree and get the same caps as
the equivalent explicit topology — whose grants honour the budget
invariant at every tree depth, whose claims shed floors per the
brownout ladder, and whose snapshots replay byte for byte.
"""

import math

import pytest

from repro.cluster import ClusterConfig, GroupSpec, NodeSpec
from repro.cluster.node import NodeEpochReport
from repro.config import AppSpec
from repro.fleet import DomainSpec, grid_topology
from repro.fleet.arbiter import (
    FLAT_ROOT,
    FleetArbiter,
    flat_topology,
    make_arbiter,
)

APPS = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(4))


def fleet_config(rows=2, racks=2, rack_nodes=2, budget_w=220.0, **kwargs):
    topology, names = grid_topology(rows, racks, rack_nodes)
    nodes = tuple(
        NodeSpec(name=n, apps=APPS, min_cap_w=10.0, max_cap_w=45.0)
        for n in names
    )
    return ClusterConfig(
        budget_w=budget_w, nodes=nodes, topology=topology, **kwargs
    )


def report(name, epoch, power, *, cap=45.0, throttle=0.0, samples=10,
           crashed=False):
    return NodeEpochReport(
        name=name,
        epoch=epoch,
        t_end_s=(epoch + 1) * 1.0,
        cap_w=cap,
        mean_power_w=power,
        throttle_pressure=throttle,
        headroom_w=max(cap - power, 0.0),
        parked_cores=0,
        quarantined_cores=0,
        samples=samples,
        crashed=crashed,
    )


def demand_wave(config, epoch, *, jitter=0.0):
    """Deterministic per-node demand, optionally watt-jittered."""
    reports = {}
    for index, spec in enumerate(config.nodes):
        base = 16.0 + 2.0 * (index % 5)
        wobble = jitter * math.sin(epoch * 1.7 + index)
        reports[spec.name] = report(spec.name, epoch, base + wobble)
    return reports


class TestDispatch:
    def test_make_arbiter_picks_fleet_for_topology(self):
        assert isinstance(make_arbiter(fleet_config()), FleetArbiter)

    def test_make_arbiter_picks_flat_without(self):
        config = ClusterConfig(
            budget_w=100.0,
            nodes=(NodeSpec("a", apps=APPS, min_cap_w=10.0),),
        )
        arbiter = make_arbiter(config)
        # no topology and no groups: the derived tree is one leaf
        assert isinstance(arbiter, FleetArbiter)
        assert arbiter.topology == DomainSpec(name=FLAT_ROOT, nodes=("a",))


def grouped_config(groups, members, budget_w=260.0):
    """A flat config: ``members`` maps each node name to its group."""
    nodes = tuple(
        NodeSpec(
            name=name,
            apps=APPS,
            shares=1.0 + index % 3,
            min_cap_w=10.0,
            max_cap_w=45.0,
            group=group,
        )
        for index, (name, group) in enumerate(members.items())
    )
    return ClusterConfig(budget_w=budget_w, nodes=nodes, groups=groups)


def mixed_reports(names, epoch):
    return {
        name: report(
            name, epoch, 12.0 + 7.0 * (i % 4), throttle=0.3 * (i % 3)
        )
        for i, name in enumerate(names)
    }


class TestFlatTree:
    GROUPS = (GroupSpec("prod", shares=3.0), GroupSpec("batch", 1.0),
              GroupSpec("spare", 2.0))
    MEMBERS = {"a": "prod", "b": "batch", "c": "prod", "d": "batch",
               "e": "prod"}

    def test_groups_derive_a_root_and_one_leaf_per_nonempty_group(self):
        config = grouped_config(self.GROUPS, self.MEMBERS)
        root = flat_topology(config)
        assert root == DomainSpec(name=FLAT_ROOT, children=(
            DomainSpec(name="prod", shares=3.0, nodes=("a", "c", "e")),
            DomainSpec(name="batch", shares=1.0, nodes=("b", "d")),
        ))

    def test_flat_groups_match_the_explicit_two_level_topology(self):
        flat = grouped_config(self.GROUPS, self.MEMBERS)
        explicit = ClusterConfig(
            budget_w=flat.budget_w,
            nodes=tuple(
                NodeSpec(name=s.name, apps=s.apps, shares=s.shares,
                         min_cap_w=s.min_cap_w, max_cap_w=s.max_cap_w)
                for s in flat.nodes
            ),
            topology=DomainSpec(name="facility", children=(
                DomainSpec(name="prod", shares=3.0, nodes=("a", "c", "e")),
                DomainSpec(name="batch", shares=1.0, nodes=("b", "d")),
            )),
        )
        names = list(self.MEMBERS)
        a, b = FleetArbiter(flat), FleetArbiter(explicit)
        a.admit(names)
        b.admit(names)
        for epoch in range(6):
            reports = mixed_reports(names, epoch) if epoch else {}
            ga, gb = a.rebalance(epoch, reports), b.rebalance(epoch, reports)
            assert ga.caps_w == gb.caps_w
            assert ga.shed == gb.shed
            for group in ("prod", "batch"):
                assert ga.group_pools_w[group] == gb.group_pools_w[group]

    def test_group_named_like_the_derived_root(self):
        groups = (GroupSpec(FLAT_ROOT, shares=1.0),
                  GroupSpec(FLAT_ROOT + "+", shares=3.0))
        members = {"a": FLAT_ROOT, "b": FLAT_ROOT + "+", "c": FLAT_ROOT}
        config = grouped_config(groups, members, budget_w=100.0)
        root = flat_topology(config)
        assert root.name not in {g.name for g in groups}
        arbiter = FleetArbiter(config)
        arbiter.admit(list(members))
        grant = arbiter.rebalance(0, {})
        # the root pool and both group pools are reported unambiguously
        assert grant.group_pools_w[root.name] == pytest.approx(100.0)
        assert grant.group_pools_w[FLAT_ROOT] == pytest.approx(55.0)
        assert grant.group_pools_w[FLAT_ROOT + "+"] == pytest.approx(45.0)
        assert grant.caps_w["b"] == pytest.approx(45.0)
        assert grant.total_w <= config.budget_w + 1e-9


class TestInvariants:
    def test_budget_and_bounds_hold_every_epoch(self):
        config = fleet_config()
        arbiter = FleetArbiter(config)
        arbiter.admit([s.name for s in config.nodes])
        grant = arbiter.rebalance(0, {})
        for epoch in range(1, 10):
            assert grant.total_w <= config.budget_w + 1e-9
            arbiter.check_invariant()
            arbiter.check_invariant(full=True)
            for name, cap in grant.caps_w.items():
                assert 10.0 - 1e-9 <= cap <= 45.0 + 1e-9
            grant = arbiter.rebalance(
                epoch, demand_wave(config, epoch, jitter=2.0)
            )

    def test_rack_ceiling_bounds_the_rack_grant(self):
        topology, names = grid_topology(1, 2, 2, rack_ceiling_w=55.0)
        nodes = tuple(
            NodeSpec(name=n, apps=APPS, min_cap_w=10.0, max_cap_w=45.0)
            for n in names
        )
        config = ClusterConfig(
            budget_w=500.0, nodes=nodes, topology=topology
        )
        arbiter = FleetArbiter(config)
        arbiter.admit(list(names))
        arbiter.rebalance(0, {})
        grant = arbiter.rebalance(
            1, {n: report(n, 1, 40.0, throttle=0.5) for n in names}
        )
        for rack in ("row0/rack0", "row0/rack1"):
            rack_sum = sum(
                cap for name, cap in grant.caps_w.items()
                if name.startswith(rack)
            )
            assert rack_sum <= 55.0 + 1e-9

    def test_contention_sheds_low_entitlement_members_to_floors(self):
        # budget barely above the floor sum plus heterogeneous shares:
        # the low-shares member of each rack must lose the bet
        topology, names = grid_topology(2, 2, 2)
        nodes = tuple(
            NodeSpec(
                name=n,
                apps=APPS,
                shares=3.0 if i % 2 == 0 else 1.0,
                min_cap_w=10.0,
                max_cap_w=45.0,
            )
            for i, n in enumerate(names)
        )
        config = ClusterConfig(
            budget_w=8 * 10.0 + 12.0, nodes=nodes, topology=topology
        )
        arbiter = FleetArbiter(config)
        names = [s.name for s in config.nodes]
        arbiter.admit(names)
        arbiter.rebalance(0, {})
        grant = arbiter.rebalance(
            1, {n: report(n, 1, 40.0, throttle=0.8) for n in names}
        )
        assert grant.total_w <= config.budget_w + 1e-9
        assert grant.shed  # contention surfaced, not silently floored
        for name in grant.shed:
            assert grant.caps_w[name] == pytest.approx(10.0, abs=1e-6)

    def test_crashed_reporter_leaves_the_tree(self):
        config = fleet_config()
        arbiter = FleetArbiter(config)
        names = [s.name for s in config.nodes]
        arbiter.admit(names)
        arbiter.rebalance(0, {})
        dead = names[0]
        reports = demand_wave(config, 1)
        reports[dead] = report(dead, 1, 20.0, crashed=True)
        grant = arbiter.rebalance(1, reports)
        assert dead not in grant.caps_w
        arbiter.check_invariant(full=True)


class TestBrownout:
    def test_idle_floor_sheds_on_a_topology_config(self):
        # BROWNOUT1 sheds the floor held for a node demanding less than
        # it: the claim must see the demand ceiling before any flooring
        config = fleet_config()
        arbiter = FleetArbiter(config)
        names = [s.name for s in config.nodes]
        arbiter.admit(names)
        arbiter.rebalance(0, {})
        reports = demand_wave(config, 1)
        idle = names[0]
        reports[idle] = report(idle, 1, 2.0)
        arbiter.brownout.restore({"level": 1, "over": 0, "under": 0})
        grant = arbiter.rebalance(1, reports)
        assert grant.brownout == 1
        # 2 W * 1.25 slack is under the 0.6 idle fraction of the 10 W
        # floor, so the claim collapses to that fraction
        assert grant.caps_w[idle] == pytest.approx(6.0)
        assert grant.total_w <= config.budget_w + 1e-9


class TestSnapshot:
    def test_restored_arbiter_replays_identically(self):
        config = fleet_config()
        names = [s.name for s in config.nodes]
        arbiter = FleetArbiter(config)
        arbiter.admit(names)
        for epoch in range(4):
            arbiter.rebalance(
                epoch, demand_wave(config, epoch, jitter=1.0)
            )
        state = arbiter.snapshot()

        clone = FleetArbiter(config)
        clone.restore(state)
        for epoch in range(4, 9):
            reports = demand_wave(config, epoch, jitter=1.0)
            a = arbiter.rebalance(epoch, reports)
            b = clone.rebalance(epoch, reports)
            assert a == b  # caps, pools, shed, stats

    def test_snapshot_round_trips_through_json(self):
        import json

        from repro.cluster.journal import (
            _arbiter_from_jsonable,
            _arbiter_to_jsonable,
        )

        config = fleet_config()
        names = [s.name for s in config.nodes]
        arbiter = FleetArbiter(config)
        arbiter.admit(names)
        for epoch in range(3):
            arbiter.rebalance(epoch, demand_wave(config, epoch))
        state = arbiter.snapshot()
        wire = json.loads(json.dumps(_arbiter_to_jsonable(state)))
        clone = FleetArbiter(config)
        clone.restore(_arbiter_from_jsonable(wire))
        reports = demand_wave(config, 3)
        assert arbiter.rebalance(3, reports) == clone.rebalance(3, reports)
