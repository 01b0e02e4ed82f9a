"""Unit tests for the fleet substrate: topology, water-fill, schedule.

The arbitration logic built on these lives in
``test_fleet_arbiter.py``; here each piece is checked in isolation
against its documented contract.
"""

import math

import pytest

from repro.core.minfund import Claim, proportional_targets
from repro.errors import ConfigError
from repro.fleet import (
    DiurnalSchedule,
    DomainSpec,
    assess_oversubscription,
    domain_from_jsonable,
    grid_topology,
    iter_domains,
    leaf_racks,
    rack_of_map,
    rack_row_indices,
    validate_topology,
)
from tests.property.test_waterfill_oracle_props import bisection_targets


# -- topology ---------------------------------------------------------------------


class TestDomainSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ConfigError, match="name"):
            DomainSpec(name="", nodes=("a",))

    def test_rejects_nonpositive_shares(self):
        with pytest.raises(ConfigError, match="shares"):
            DomainSpec(name="d", shares=0.0, nodes=("a",))

    def test_rejects_both_children_and_nodes(self):
        leaf = DomainSpec(name="leaf", nodes=("a",))
        with pytest.raises(ConfigError, match="both"):
            DomainSpec(name="d", children=(leaf,), nodes=("b",))

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigError, match="child domains or nodes"):
            DomainSpec(name="d")

    def test_rejects_nonpositive_ceiling(self):
        with pytest.raises(ConfigError, match="ceiling"):
            DomainSpec(name="d", nodes=("a",), ceiling_w=0.0)


class TestGridTopology:
    def test_names_are_hierarchical_and_in_rack_order(self):
        root, names = grid_topology(2, 2, 2)
        assert names == (
            "row0/rack0/n000", "row0/rack0/n001",
            "row0/rack1/n000", "row0/rack1/n001",
            "row1/rack0/n000", "row1/rack0/n001",
            "row1/rack1/n000", "row1/rack1/n001",
        )
        assert root.name == "facility"
        assert [d.name for d in root.children] == ["row0", "row1"]

    def test_preorder_walk_parent_before_children(self):
        root, _ = grid_topology(2, 1, 1)
        walk = [d.name for d in iter_domains(root)]
        assert walk == [
            "facility", "row0", "row0/rack0", "row1", "row1/rack0"
        ]

    def test_leaf_racks_and_rack_of(self):
        root, names = grid_topology(1, 2, 3)
        racks = leaf_racks(root)
        assert [r.name for r in racks] == ["row0/rack0", "row0/rack1"]
        mapping = rack_of_map(root)
        assert set(mapping) == set(names)
        assert mapping["row0/rack1/n002"] == "row0/rack1"

    def test_rack_row_indices_follow_depth1_ancestor(self):
        root, _ = grid_topology(3, 2, 1)
        rows = rack_row_indices(root)
        assert rows["row0/rack1"] == 0
        assert rows["row2/rack0"] == 2

    def test_rejects_degenerate_dimensions(self):
        with pytest.raises(ConfigError, match="at least 1"):
            grid_topology(0, 4, 4)


class TestValidateTopology:
    def test_accepts_the_grid(self):
        root, names = grid_topology(2, 2, 2)
        validate_topology(root, names, {n: 10.0 for n in names})

    def test_rejects_duplicate_domain_names(self):
        dup = DomainSpec(name="r", nodes=("a",))
        root = DomainSpec(
            name="f",
            children=(dup, DomainSpec(name="r", nodes=("b",))),
        )
        with pytest.raises(ConfigError, match="duplicate"):
            validate_topology(root, ("a", "b"), {"a": 1.0, "b": 1.0})

    def test_rejects_node_placed_twice(self):
        root = DomainSpec(
            name="f",
            children=(
                DomainSpec(name="r0", nodes=("a",)),
                DomainSpec(name="r1", nodes=("a",)),
            ),
        )
        with pytest.raises(ConfigError, match="appears in both"):
            validate_topology(root, ("a",), {"a": 1.0})

    def test_rejects_unplaced_and_unknown_nodes(self):
        root = DomainSpec(name="f", nodes=("a", "ghost"))
        with pytest.raises(ConfigError, match="unknown"):
            validate_topology(root, ("a",), {"a": 1.0})
        root = DomainSpec(name="f", nodes=("a",))
        with pytest.raises(ConfigError, match="does not place"):
            validate_topology(root, ("a", "b"), {"a": 1.0, "b": 1.0})

    def test_rejects_ceiling_below_member_floors(self):
        root = DomainSpec(
            name="f",
            children=(
                DomainSpec(name="r", nodes=("a", "b"), ceiling_w=15.0),
            ),
        )
        with pytest.raises(ConfigError, match="below"):
            validate_topology(root, ("a", "b"), {"a": 10.0, "b": 10.0})

    def test_jsonable_round_trip(self):
        root, _ = grid_topology(2, 2, 2, rack_ceiling_w=80.0)
        from dataclasses import asdict

        assert domain_from_jsonable(asdict(root)) == root


# -- water-fill -------------------------------------------------------------------


def claims_of(bounds):
    return [
        Claim(label=f"c{i}", shares=shares, current=0.0, lo=lo, hi=hi)
        for i, (shares, lo, hi) in enumerate(bounds)
    ]


class TestWaterfill:
    def test_empty_claims(self):
        assert proportional_targets(100.0, []) == {}

    def test_infeasible_low_pool_degrades_to_floors(self):
        claims = claims_of([(1.0, 10.0, 40.0), (1.0, 12.0, 40.0)])
        assert proportional_targets(5.0, claims) == {"c0": 10.0, "c1": 12.0}

    def test_abundant_pool_gives_every_ceiling(self):
        claims = claims_of([(1.0, 10.0, 40.0), (2.0, 10.0, 30.0)])
        assert proportional_targets(500.0, claims) == {
            "c0": 40.0, "c1": 30.0
        }

    def test_exact_sum_and_share_proportionality(self):
        claims = claims_of(
            [(2.0, 5.0, 100.0), (1.0, 5.0, 100.0), (1.0, 5.0, 100.0)]
        )
        fill = proportional_targets(80.0, claims)
        assert math.isclose(sum(fill.values()), 80.0, abs_tol=1e-9)
        # nobody pinned at a bound: allocations follow shares exactly
        assert math.isclose(fill["c0"], 2 * fill["c1"], rel_tol=1e-12)
        assert fill["c1"] == fill["c2"]

    def test_matches_bisection_reference(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            claims = claims_of([
                (
                    rng.uniform(0.5, 4.0),
                    lo := rng.uniform(1.0, 20.0),
                    lo + rng.uniform(0.0, 50.0),
                )
                for _ in range(rng.randint(1, 12))
            ])
            lo_sum = sum(c.lo for c in claims)
            hi_sum = sum(c.hi for c in claims)
            pool = rng.uniform(lo_sum * 0.5, hi_sum * 1.2)
            sweep = proportional_targets(pool, claims)
            bisect = bisection_targets(pool, claims)
            for claim in claims:
                assert math.isclose(
                    sweep[claim.label], bisect[claim.label], abs_tol=1e-6
                )


# -- diurnal schedule -------------------------------------------------------------


class TestDiurnalSchedule:
    def test_trough_and_peak(self):
        sched = DiurnalSchedule()
        assert sched.active_fraction(0) == pytest.approx(0.15)
        assert sched.active_fraction(12) == pytest.approx(0.65)

    def test_row_phase_shifts_the_curve(self):
        sched = DiurnalSchedule(row_phase_epochs=2)
        assert sched.active_fraction(2, row_index=1) == pytest.approx(
            sched.active_fraction(0, row_index=0)
        )

    def test_active_count_clamped(self):
        sched = DiurnalSchedule(
            base_active_fraction=0.0, peak_active_fraction=1.0
        )
        for epoch in range(48):
            count = sched.active_count(8, epoch)
            assert 0 <= count <= 8

    def test_validation(self):
        with pytest.raises(ConfigError, match="period"):
            DiurnalSchedule(period_epochs=1)
        with pytest.raises(ConfigError, match="base_active_fraction"):
            DiurnalSchedule(base_active_fraction=-0.1)
        with pytest.raises(ConfigError, match="below"):
            DiurnalSchedule(
                base_active_fraction=0.8, peak_active_fraction=0.2
            )


class TestAssessOversubscription:
    def topology(self):
        return grid_topology(2, 1, 4)

    def test_without_schedule_degenerates_to_ceiling_sum(self):
        root, names = self.topology()
        report = assess_oversubscription(
            400.0,
            root,
            {n: 10.0 for n in names},
            {n: 45.0 for n in names},
        )
        assert report.peak_demand_w == pytest.approx(8 * 45.0)
        assert report.ceiling_sum_w == pytest.approx(8 * 45.0)
        assert report.floor_sum_w == pytest.approx(8 * 10.0)
        assert report.safe is (8 * 45.0 <= 400.0)

    def test_schedule_peak_uses_first_k_activation(self):
        root, names = self.topology()
        sched = DiurnalSchedule(
            period_epochs=4,
            base_active_fraction=0.5,
            peak_active_fraction=0.5,
            row_phase_epochs=0,
        )
        report = assess_oversubscription(
            1000.0,
            root,
            {n: 10.0 for n in names},
            {n: 45.0 for n in names},
            sched,
        )
        # every epoch: 2 of 4 nodes per rack at ceiling, 2 at floor
        assert report.peak_demand_w == pytest.approx(
            2 * (2 * 45.0 + 2 * 10.0)
        )
        assert report.safe
        assert report.margin_w == pytest.approx(
            1000.0 - report.peak_demand_w
        )

    def test_rack_ceiling_caps_the_statistical_peak(self):
        root, names = grid_topology(1, 2, 2, rack_ceiling_w=60.0)
        report = assess_oversubscription(
            500.0,
            root,
            {n: 10.0 for n in names},
            {n: 45.0 for n in names},
        )
        assert report.peak_demand_w == pytest.approx(120.0)

    def test_oversubscribed_budget_flagged_unsafe(self):
        root, names = self.topology()
        report = assess_oversubscription(
            100.0,
            root,
            {n: 10.0 for n in names},
            {n: 45.0 for n in names},
        )
        assert not report.safe
        assert report.margin_w < 0
        assert report.ratio > 1.0
