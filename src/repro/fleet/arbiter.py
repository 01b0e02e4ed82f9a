"""Hierarchical power arbitration over a budget-domain tree.

:class:`FleetArbiter` is the one arbitration path for every cluster
config.  A config with a ``topology`` arbitrates that facility → row →
rack → node tree; a flat ``groups`` config arbitrates the two-level
tree :func:`flat_topology` derives from it (a root, then one leaf per
non-empty group, or a single leaf when no groups are declared).
Membership, leases, reservations, trust, demand aging, the exact trim,
and the cap-sum invariant live in the base
:class:`~repro.cluster.arbiter.ClusterArbiter`; this class supplies the
``_arbitrate`` step.

Every epoch is recomputed from scratch, and the same primitive splits
every level — :func:`~repro.core.minfund.proportional_targets`, the
exact breakpoint sweep the per-socket daemon also uses:

1. **claims** — one per live node: demand ceiling from its last report
   (slack, quarantined cores, stale-demand fade, trust discount), and
   bounds shed per the brownout level in effect;
2. **condense** bottom-up — a domain's floor is the sum of its live
   members' floors, its ceiling the sum of their ceilings clamped to
   the domain's ``ceiling_w``;
3. **split** top-down — each interior domain's pool is water-filled
   across its children by domain shares, then each rack's pool across
   its member nodes by node shares.

Splits never exceed their pool (floors aside, which the reservation
shave makes fit), so Σ granted + Σ reserved ≤ budget holds at every
depth up to float residue, which the base class's trim removes.

**Oversubscription and shedding.**  Σ node ceilings may exceed the
budget (see :mod:`repro.fleet.schedule` for the statistical-safety
check).  When demand exceeds a pool, the water-fill pins the
lowest-entitlement members at their floors; members that wanted more
than their floor but were pinned at it are surfaced as ``shed`` on the
grant — the graceful losing branch of the bet, never a violation.
"""

from __future__ import annotations

from repro.cluster.arbiter import Arbitration, ClusterArbiter, DEMAND_SLACK
from repro.cluster.config import ClusterConfig
from repro.cluster.node import NodeEpochReport
from repro.cluster.trust import brownout_claim_bounds
from repro.core.minfund import Claim, proportional_targets, refill_pool
from repro.fleet.topology import DomainSpec, iter_domains, leaf_racks

#: the rack fill under the module name the benchmark tracer wraps
#: (``fleet.waterfill`` in perfbench/tracing.py).
waterfill = proportional_targets

#: name of the root domain :func:`flat_topology` derives.
FLAT_ROOT = "cluster"

#: a member is shed when it wanted more than its floor but was granted
#: within this of it.
_SHED_TOLERANCE_W = 1e-6


def flat_topology(config: ClusterConfig) -> DomainSpec:
    """The two-level tree a flat ``groups`` config arbitrates over.

    No groups: a single leaf holding every node.  Groups: a root whose
    children are one leaf per group with members, in declaration
    order, weighted by group shares.  The root takes a name no group
    uses, so pools stay unambiguous.
    """
    names = tuple(spec.name for spec in config.nodes)
    if not config.groups:
        return DomainSpec(name=FLAT_ROOT, nodes=names)
    taken = {group.name for group in config.groups}
    root = FLAT_ROOT
    while root in taken:
        root += "+"
    leaves = []
    for group, shares in config.group_shares().items():
        members = tuple(
            spec.name for spec in config.nodes
            if config.group_of(spec) == group
        )
        if members:
            leaves.append(
                DomainSpec(name=group, shares=shares, nodes=members)
            )
    return DomainSpec(name=root, children=tuple(leaves))


class FleetArbiter(ClusterArbiter):
    """Budget domains all the way down, recomputed every epoch."""

    def __init__(self, config: ClusterConfig):
        super().__init__(config)
        self.topology = config.topology or flat_topology(config)
        # static tree structure, preorder
        self._interior = tuple(
            d for d in iter_domains(self.topology) if not d.is_leaf
        )
        self._racks = leaf_racks(self.topology)
        # static per-node constants
        self._node_shares = {spec.name: spec.shares for spec in config.nodes}
        self._node_apps = {spec.name: len(spec.apps) for spec in config.nodes}

    # The benchmark tracer (perfbench/tracing.py) wraps these two by
    # name in this class's own namespace.

    def snapshot(self) -> dict:
        return super().snapshot()

    def restore(self, state: dict) -> None:
        # journals written before grants were exact also carry a
        # "fleet" cache key; it is ignored
        super().restore(state)

    # -- the hierarchical arbitration ---------------------------------------------

    def _arbitrate(
        self,
        epoch: int,
        live: list[str],
        budget: float,
        caps: dict[str, float],
        degraded: list[str],
    ) -> tuple[dict[str, float], tuple[str, ...], dict[str, int], float]:
        live_set = set(live)
        level = self.brownout.level
        top_shares = max((self._node_shares[n] for n in live), default=0.0)
        # 1. claims per live rack, condensed to (lo, hi)
        rack_claims: dict[str, list[Claim]] = {}
        cond: dict[str, tuple[float, float]] = {}
        for rack in self._racks:
            claims = []
            for name in rack.nodes:
                if name not in live_set:
                    continue
                report = self._last_report.get(name)
                if report is None and self._admitted_at[name] != epoch:
                    # demand-blind grant for an established member: a
                    # tick storm ate its first samples
                    degraded.append(name)
                claims.append(self._claim(
                    name, report, self._age(name, epoch), level, top_shares
                ))
            if not claims:
                continue
            rack_claims[rack.name] = claims
            hi = sum(c.hi for c in claims)
            if rack.ceiling_w is not None:
                hi = min(hi, rack.ceiling_w)
            cond[rack.name] = (sum(c.lo for c in claims), hi)
        # 2. condense interior domains bottom-up
        for domain in reversed(self._interior):
            children = [
                cond[child.name]
                for child in domain.children
                if child.name in cond
            ]
            if not children:
                continue
            hi = sum(c[1] for c in children)
            if domain.ceiling_w is not None:
                hi = min(hi, domain.ceiling_w)
            cond[domain.name] = (sum(c[0] for c in children), hi)
        pools: dict[str, float] = {}
        if self.topology.name not in cond:
            return pools, (), {"racks": 0}, 0.0
        # 3. split pools top-down, then fill each live rack
        pools[self.topology.name] = budget
        for domain in self._interior:
            pool = pools.get(domain.name)
            if pool is None:
                continue
            pools.update(refill_pool(pool, [
                Claim(child.name, child.shares, 0.0, *cond[child.name])
                for child in domain.children
                if child.name in cond
            ]))
        shed: list[str] = []
        live_sum = 0.0
        for rack_name, claims in rack_claims.items():
            fill = waterfill(pools[rack_name], claims)
            caps.update(fill)
            for claim in claims:
                cap = fill[claim.label]
                live_sum += cap
                floor = self._node_floor[claim.label]
                if (
                    claim.hi > floor + _SHED_TOLERANCE_W
                    and cap <= floor + _SHED_TOLERANCE_W
                ):
                    shed.append(claim.label)
        return pools, tuple(shed), {"racks": len(rack_claims)}, live_sum

    def _claim(
        self,
        name: str,
        report: NodeEpochReport | None,
        age: int,
        level: int,
        top_shares: float,
    ) -> Claim:
        """One live member's claim: trust-discounted demand ceiling,
        bounds shed per the brownout level in effect."""
        lo = self._node_floor[name]
        hi_cap = self._node_max[name]
        if report is None:
            # no demand history: an unconstrained bid, bounded only by
            # the node's configured cap range
            hi = hi_cap
        else:
            wants = report.mean_power_w + report.throttle_pressure * max(
                hi_cap - report.mean_power_w, 0.0
            )
            n_apps = self._node_apps[name]
            healthy = max(n_apps - report.quarantined_cores, 0) / n_apps
            hi = min(wants * DEMAND_SLACK * healthy, hi_cap)
            if age > 1:
                # held-over demand ages toward the floor: the first
                # stale epoch keeps the full holdover, then the ceiling
                # decays linearly over the lease TTL so a stale report
                # cannot pin budget forever
                fade = max(0.0, 1.0 - (age - 1) / self.lease_ttl)
                hi = lo + (hi - lo) * fade
        # the ceiling reaches the brownout bounds unfloored: BROWNOUT1
        # sheds the floor of a node demanding less than it
        hi = self.trust.discount_hi(name, lo, hi)
        lo, hi = brownout_claim_bounds(
            level,
            floor_w=lo,
            raw_hi_w=hi,
            shares=self._node_shares[name],
            top_shares=top_shares,
        )
        return Claim(name, self._node_shares[name], lo, lo, hi)


def make_arbiter(config: ClusterConfig) -> FleetArbiter:
    """The arbiter for any config: an explicit topology, or the tree
    derived from its flat groups."""
    return FleetArbiter(config)


__all__ = [
    "Arbitration",
    "FLAT_ROOT",
    "FleetArbiter",
    "flat_topology",
    "make_arbiter",
]
