"""Tests for the cluster arbiter's epoch redistribution."""

import pytest

from repro.cluster import ClusterConfig, GroupSpec, NodeSpec
from repro.cluster.node import NodeEpochReport
from repro.config import AppSpec
from repro.errors import ConfigError
from repro.fleet import FleetArbiter

APPS = tuple(AppSpec("cactusBSSN", shares=50.0) for _ in range(6))


def node(name, **kwargs):
    kwargs.setdefault("min_cap_w", 10.0)
    kwargs.setdefault("max_cap_w", 60.0)
    return NodeSpec(name=name, apps=APPS, **kwargs)


def report(name, epoch=0, *, power, pressure=1.0, cap=30.0,
           quarantined=0, samples=10, crashed=False):
    return NodeEpochReport(
        name=name,
        epoch=epoch,
        t_end_s=(epoch + 1) * 10.0,
        cap_w=cap,
        mean_power_w=power,
        throttle_pressure=pressure,
        headroom_w=max(cap - power, 0.0),
        parked_cores=0,
        quarantined_cores=quarantined,
        samples=samples,
        crashed=crashed,
    )


def make_arbiter(*nodes, budget=75.0, groups=()):
    config = ClusterConfig(budget_w=budget, nodes=nodes, groups=groups)
    arbiter = FleetArbiter(config)
    arbiter.admit([spec.name for spec in nodes])
    return arbiter


class TestFirstEpoch:
    def test_demand_blind_split_follows_shares(self):
        arbiter = make_arbiter(
            node("a", shares=2.0), node("b", shares=1.0)
        )
        grant = arbiter.rebalance(0, {})
        assert grant.caps_w["a"] == pytest.approx(50.0)
        assert grant.caps_w["b"] == pytest.approx(25.0)

    def test_empty_membership_grants_nothing(self):
        config = ClusterConfig(budget_w=75.0, nodes=(node("a"),))
        arbiter = FleetArbiter(config)
        grant = arbiter.rebalance(0, {})
        assert grant.caps_w == {}
        assert grant.total_w == 0.0

    def test_admit_validates_names(self):
        config = ClusterConfig(budget_w=75.0, nodes=(node("a"),))
        arbiter = FleetArbiter(config)
        with pytest.raises(ConfigError):
            arbiter.admit(["ghost"])


class TestDemandDrivenRebalance:
    def test_unthrottled_node_releases_budget(self):
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        # a is idle (low draw, no pressure); b is pinned at its cap
        grant = arbiter.rebalance(1, {
            "a": report("a", power=12.0, pressure=0.0, cap=37.5),
            "b": report("b", power=37.4, pressure=0.9, cap=37.5),
        })
        # a's demand ceiling ~ 12*1.25 = 15 W; the freed watts go to b
        assert grant.caps_w["a"] == pytest.approx(15.0, abs=0.5)
        assert grant.caps_w["b"] > 50.0
        assert grant.total_w <= 75.0 + 1e-9

    def test_quarantined_cores_shrink_the_claim(self):
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        healthy = report("a", power=30.0, pressure=1.0, cap=37.5)
        sick = report("b", power=30.0, pressure=1.0, cap=37.5,
                      quarantined=4)
        grant = arbiter.rebalance(1, {"a": healthy, "b": sick})
        # b lost four of six cores: its demand ceiling scales by the
        # healthy third, and a picks up the released budget
        assert grant.caps_w["b"] == pytest.approx(25.0)
        assert grant.caps_w["a"] == pytest.approx(50.0)

    def test_floors_always_honoured(self):
        arbiter = make_arbiter(
            node("a", min_cap_w=20.0), node("b", min_cap_w=10.0)
        )
        arbiter.rebalance(0, {})
        grant = arbiter.rebalance(1, {
            # a reports nothing drawn: its ceiling collapses, but the
            # floor must hold it at 20 W
            "a": report("a", power=0.0, pressure=0.0, cap=37.5),
            "b": report("b", power=37.0, pressure=1.0, cap=37.5),
        })
        assert grant.caps_w["a"] == pytest.approx(20.0)

    def test_empty_report_holds_over_last_demand(self):
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        first = arbiter.rebalance(1, {
            "a": report("a", power=12.0, pressure=0.0, cap=37.5),
            "b": report("b", power=37.0, pressure=1.0, cap=37.5),
        })
        # a tick storm swallows a's epoch: samples=0 must not reset
        # a's demand to an unconstrained bid
        second = arbiter.rebalance(2, {
            "a": report("a", 1, power=0.0, pressure=0.0,
                        cap=first.caps_w["a"], samples=0),
            "b": report("b", 1, power=37.0, pressure=1.0,
                        cap=first.caps_w["b"]),
        })
        assert second.caps_w["a"] == pytest.approx(
            first.caps_w["a"], abs=1.0
        )


class TestCrashHandling:
    def test_crashed_reporter_retired_and_cap_reflows(self):
        arbiter = make_arbiter(node("a"), node("b"), node("c"),
                               budget=90.0)
        arbiter.rebalance(0, {})
        grant = arbiter.rebalance(1, {
            "a": report("a", power=29.0, pressure=1.0, cap=30.0),
            "b": report("b", power=29.0, pressure=1.0, cap=30.0),
            "c": report("c", power=20.0, pressure=1.0, cap=30.0,
                        crashed=True),
        })
        assert "c" not in grant.caps_w
        assert "c" not in arbiter.members
        assert grant.caps_w["a"] > 30.0
        assert grant.total_w <= 90.0 + 1e-9

    def test_all_crashed_leaves_empty_grant(self):
        arbiter = make_arbiter(node("a"))
        arbiter.rebalance(0, {})
        grant = arbiter.rebalance(1, {
            "a": report("a", power=20.0, crashed=True),
        })
        assert grant.caps_w == {}


class TestGroups:
    def test_group_shares_split_budget_between_pools(self):
        prod = (node("p0", group="prod"), node("p1", group="prod"))
        batch = (node("b0", group="batch"), node("b1", group="batch"))
        arbiter = make_arbiter(
            *prod, *batch, budget=120.0,
            groups=(GroupSpec("prod", shares=2.0),
                    GroupSpec("batch", shares=1.0)),
        )
        grant = arbiter.rebalance(0, {})
        assert grant.group_pools_w["prod"] == pytest.approx(80.0)
        assert grant.group_pools_w["batch"] == pytest.approx(40.0)
        assert grant.caps_w["p0"] == pytest.approx(40.0)
        assert grant.caps_w["b0"] == pytest.approx(20.0)


class TestInvariant:
    def test_caps_sum_exactly_at_most_budget(self):
        # a budget that doesn't divide evenly exercises the trim
        arbiter = make_arbiter(
            node("a"), node("b"), node("c"), budget=70.000000123
        )
        grant = arbiter.rebalance(0, {})
        assert grant.total_w <= 70.000000123
        arbiter.check_invariant()

    def test_check_invariant_raises_on_violation(self):
        arbiter = make_arbiter(node("a"))
        arbiter.rebalance(0, {})
        arbiter._caps["a"] = 1000.0
        arbiter._cap_sum = 1000.0
        with pytest.raises(ConfigError, match="invariant"):
            arbiter.check_invariant()

    def test_full_check_catches_out_of_band_cap_edits(self):
        # the O(1) check reads the maintained sum; full=True rescans
        # and flags accounting drift from caps edited behind its back
        arbiter = make_arbiter(node("a"))
        arbiter.rebalance(0, {})
        arbiter._caps["a"] = 1000.0
        arbiter.check_invariant()  # maintained sum unaware: passes
        with pytest.raises(ConfigError, match="drift"):
            arbiter.check_invariant(full=True)

    def test_check_invariant_is_constant_time(self):
        # regression guard for the fleet-scale cost bound: the default
        # check must not rescan the caps dict
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})

        class ExplodingDict(dict):
            def values(self):
                raise AssertionError("check_invariant rescanned caps")

        arbiter._caps = ExplodingDict(arbiter._caps)
        arbiter.check_invariant()  # O(1): never touches values()
        with pytest.raises(AssertionError):
            arbiter.check_invariant(full=True)

    def test_retire_removes_cap_and_history(self):
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        arbiter.retire(["a"])
        assert "a" not in arbiter.caps()
        assert arbiter.members == ("b",)


class TestSilentMembers:
    """Lease-mirroring: silent nodes' budget is reserved, not re-bid."""

    def run_two_epochs(self, arbiter):
        arbiter.rebalance(0, {})
        return arbiter.rebalance(1, {
            "a": report("a", epoch=0, power=30.0, pressure=0.8),
            "b": report("b", epoch=0, power=30.0, pressure=0.8),
        })

    def test_silent_node_reserved_at_last_cap(self):
        arbiter = make_arbiter(node("a"), node("b"))
        before = self.run_two_epochs(arbiter)
        grant = arbiter.rebalance(2, {
            "a": report("a", epoch=1, power=30.0, pressure=0.8),
        })
        assert grant.reserved_w == {"b": pytest.approx(before.caps_w["b"])}
        assert grant.caps_w["b"] == pytest.approx(before.caps_w["b"])
        assert "b" in grant.degraded

    def test_reservation_expires_to_floor_after_ttl(self):
        arbiter = make_arbiter(node("a"), node("b"))
        self.run_two_epochs(arbiter)
        ttl = arbiter.lease_ttl
        grant = None
        for epoch in range(2, 2 + ttl + 1):
            grant = arbiter.rebalance(epoch, {
                "a": report("a", epoch=epoch - 1, power=30.0, pressure=0.8),
            })
        assert grant.reserved_w["b"] == pytest.approx(10.0)  # the floor
        assert grant.caps_w["b"] == pytest.approx(10.0)

    def test_reserved_watts_never_rebid_to_live_nodes(self):
        arbiter = make_arbiter(node("a"), node("b"))
        self.run_two_epochs(arbiter)
        grant = arbiter.rebalance(2, {
            "a": report("a", epoch=1, power=59.0, pressure=1.0),
        })
        # a wants everything, but b's reservation is off the table
        assert grant.caps_w["a"] + grant.caps_w["b"] <= 75.0 + 1e-9
        assert grant.caps_w["a"] <= 75.0 - grant.reserved_w["b"] + 1e-9

    def test_invariant_holds_with_reservations(self):
        arbiter = make_arbiter(node("a"), node("b"))
        self.run_two_epochs(arbiter)
        for epoch in range(2, 8):
            arbiter.rebalance(epoch, {
                "a": report("a", epoch=epoch - 1, power=59.0, pressure=1.0),
            })
            arbiter.check_invariant()

    def test_silence_then_return_restores_full_claim(self):
        arbiter = make_arbiter(node("a"), node("b"))
        self.run_two_epochs(arbiter)
        for epoch in range(2, 6):
            arbiter.rebalance(epoch, {
                "a": report("a", epoch=epoch - 1, power=30.0, pressure=0.8),
            })
        grant = arbiter.rebalance(6, {
            "a": report("a", epoch=5, power=30.0, pressure=0.8),
            "b": report("b", epoch=5, power=9.9, pressure=0.9, cap=10.0),
        })
        assert "b" not in grant.degraded
        assert grant.reserved_w == {}
        assert grant.caps_w["b"] > 10.0  # bidding again, above the floor


class TestDemandAging:
    def test_first_stale_epoch_keeps_full_holdover(self):
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        held = arbiter.rebalance(1, {
            "a": report("a", epoch=0, power=20.0, pressure=0.0),
            "b": report("b", epoch=0, power=30.0, pressure=0.8),
        })
        grant = arbiter.rebalance(2, {
            "a": report("a", epoch=1, power=0.0, samples=0),
            "b": report("b", epoch=1, power=30.0, pressure=0.8),
        })
        assert grant.caps_w["a"] == pytest.approx(held.caps_w["a"], abs=1.0)

    def test_stale_demand_decays_to_floor_over_ttl(self):
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        arbiter.rebalance(1, {
            "a": report("a", epoch=0, power=20.0, pressure=0.0),
            "b": report("b", epoch=0, power=30.0, pressure=0.8),
        })
        ttl = arbiter.lease_ttl
        caps = []
        for epoch in range(2, 3 + ttl):
            grant = arbiter.rebalance(epoch, {
                "a": report("a", epoch=epoch - 1, power=0.0, samples=0),
                "b": report("b", epoch=epoch - 1, power=30.0, pressure=0.8),
            })
            caps.append(grant.caps_w["a"])
        # monotone decay down to the floor once the holdover has aged out
        assert all(b <= a + 1e-9 for a, b in zip(caps, caps[1:]))
        assert caps[-1] == pytest.approx(10.0)

    def test_empty_reports_with_no_history_marked_degraded(self):
        # the holdover gap: samples == 0 and no prior _last_report must
        # be surfaced as a degraded grant, not pass silently
        arbiter = make_arbiter(node("a"), node("b"))
        arbiter.rebalance(0, {})
        grant = arbiter.rebalance(1, {
            "a": report("a", epoch=0, power=0.0, samples=0),
            "b": report("b", epoch=0, power=30.0, pressure=0.8),
        })
        assert "a" in grant.degraded
        assert "b" not in grant.degraded


class TestReservationFeasibility:
    def test_reservations_shaved_when_floors_would_not_fit(self):
        # three nodes nearly fill the budget; two go silent holding
        # large caps while the third still needs its floor
        arbiter = make_arbiter(
            node("a"), node("b"), node("c"), budget=90.0
        )
        arbiter.rebalance(0, {})
        arbiter.rebalance(1, {
            name: report(name, epoch=0, power=29.0, pressure=1.0)
            for name in ("a", "b", "c")
        })
        grant = arbiter.rebalance(2, {
            "a": report("a", epoch=1, power=29.0, pressure=1.0),
        })
        arbiter.check_invariant()
        assert grant.total_w <= 90.0 + 1e-9
        assert all(cap >= 10.0 - 1e-9 for cap in grant.caps_w.values())


class TestJoinGrace:
    def test_admitted_but_silent_node_floored_after_ttl(self):
        arbiter = make_arbiter(node("a"), node("b"))
        ttl = arbiter.lease_ttl
        grant = None
        for epoch in range(ttl + 2):
            grant = arbiter.rebalance(epoch, {
                "a": report("a", epoch=epoch - 1, power=30.0, pressure=0.8),
            } if epoch else {})
        # b never reported: its join grace has lapsed to a floor
        # reservation and it is flagged degraded
        assert grant.caps_w["b"] == pytest.approx(10.0)
        assert grant.reserved_w["b"] == pytest.approx(10.0)
        assert "b" in grant.degraded
