"""Cluster-level power arbitration: min-funding one level up.

The paper's daemon spreads one socket's watts across applications with
min-funding revocation; the cluster arbiter applies the same primitive
one level up, spreading a facility budget across node caps.  Each
node's ``PowerDaemon`` is a leaf: the cap the arbiter grants becomes
the ``limit_w`` that daemon enforces locally, so the hierarchy composes
without any node-level changes.

:class:`ClusterArbiter` owns everything that does not depend on the
shape of the shares tree: membership, the lease-mirroring reservation
ladder, demand history and aging, report validation and trust, the
brownout ladder, the exact trim, and the cap-sum invariant.  The split
itself — turning each live node's :class:`~repro.cluster.node.
NodeEpochReport` into a :class:`~repro.core.minfund.Claim` and
water-filling the budget down the tree — is the ``_arbitrate`` step of
:class:`repro.fleet.arbiter.FleetArbiter`, the one concrete arbiter
(flat ``groups`` configs arbitrate a derived two-level tree).  A claim
is:

* ``lo``: the node's configured cap floor (nodes are floored, never
  starved — the paper's no-starvation rule, one level up);
* ``hi``: the node's *demand ceiling*: measured power, pulled toward
  the node's cap maximum by its throttle pressure (a throttled node
  would convert more watts into work), scaled down by the fraction of
  its cores that are quarantined (capacity it cannot spend), and padded
  with slack so a node capped low can still climb;
* ``shares`` come from the config.

**Invariant** (checked, and exactly enforced by a deterministic trim of
the water-fill's float residue): the caps granted to live nodes always
sum to at most the facility budget.  Crashed nodes keep their cap until
the epoch boundary where their report goes missing — the realistic
detection lag — but a dead node draws nothing, so the physical envelope
holds through the lag too.

With the unreliable transport (:mod:`repro.cluster.transport`), a
missing report no longer implies death: it may be a dropped packet or a
partition.  The arbiter therefore mirrors the node-side lease ladder
(:mod:`repro.cluster.lease`):

* a member silent for at most ``lease_ttl_epochs`` epochs keeps its
  budget **reserved** at the cap it was last granted — the cap it may
  legitimately still be enforcing under holdover — so the cap-sum
  invariant covers grants in flight;
* past lease expiry the reservation collapses to the node's floor,
  which is what its lease has forced it down to locally;
* held-over *demand* (a live node whose reports carry no fresh samples)
  ages toward the floor over the TTL, so a stale report cannot pin
  budget forever;
* reports are epoch-sequenced upstream (duplicates and reordered
  stragglers never reach ``rebalance``), and members arbitrated with no
  usable demand are surfaced on the grant as ``degraded`` so health
  roll-ups see every demand-blind cap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.cluster.config import ClusterConfig
from repro.cluster.node import NodeEpochReport
from repro.cluster.trust import BrownoutController, DemandValidator, TrustBook
# unused here; the benchmark tracer (perfbench/tracing.py) wraps it
from repro.core.minfund import refill_pool  # noqa: F401
from repro.errors import ConfigError

#: multiplicative slack on a node's demand ceiling: lets an unthrottled
#: node's claim grow past what it measured, so caps can climb back after
#: a quiet spell instead of ratcheting down.
DEMAND_SLACK = 1.25

#: numeric tolerance on the cap-sum invariant before trimming.
_SUM_TOLERANCE = 1e-9

#: allowed drift between the running cap sum and a full rescan (float
#: addition is not associative, so the two accumulate in different
#: orders; at fleet scale the gap is ~1e-9).
_SUM_DRIFT_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Arbitration:
    """One epoch's grant: per-node caps plus bookkeeping."""

    epoch: int
    caps_w: dict[str, float]
    group_pools_w: dict[str, float]
    #: members granted without any usable demand this round: silent
    #: (leased, budget reserved) or reporting with no fresh samples and
    #: no demand history.  Surfaced so health roll-ups see every
    #: demand-blind cap instead of it passing silently.
    degraded: tuple[str, ...] = ()
    #: silent members' reservations (a subset of ``caps_w``).
    reserved_w: dict[str, float] = field(default_factory=dict)
    #: members whose demand lost the oversubscription bet this round:
    #: they asked for more than their floor but the water-fill pinned
    #: them at it.
    shed: tuple[str, ...] = ()
    #: arbitration counters: ``racks``, the leaf domains water-filled.
    fleet_stats: dict[str, int] = field(default_factory=dict)
    #: members quarantined by trust decay this round: their demand
    #: ceilings were pinned at their floors (repeat misreporters).
    quarantined: tuple[str, ...] = ()
    #: facility brownout level this grant was computed under (index
    #: into :data:`repro.cluster.trust.BROWNOUT_LEVELS`; 0 = normal).
    brownout: int = 0
    #: model-validation violations this round: node -> reasons for
    #: every fresh report the validator had to clamp.
    trust_violations: dict[str, tuple[str, ...]] = field(
        default_factory=dict
    )

    @property
    def total_w(self) -> float:
        return sum(self.caps_w.values())


class ClusterArbiter(ABC):
    """Owns the facility budget and the node membership set.

    Subclasses supply :meth:`_arbitrate`, the split of the bidding
    budget over the live members.
    """

    def __init__(self, config: ClusterConfig):
        self.config = config
        self.budget_w = config.budget_w
        #: lease validity in epochs (mirrors the node-side ladder).
        self.lease_ttl = config.lease_ttl_epochs
        #: names of nodes currently granted caps.
        self._members: set[str] = set()
        #: the caps of the last arbitration round.
        self._caps: dict[str, float] = {}
        #: running sum of ``_caps`` — kept in lock step with every
        #: grant/retire so :meth:`check_invariant` is O(1) instead of
        #: rescanning the fleet every epoch.
        self._cap_sum = 0.0
        #: last usable demand report per node (held over when a tick
        #: storm produces an empty epoch).
        self._last_report: dict[str, NodeEpochReport] = {}
        #: epoch of each member's last report of any kind (liveness).
        self._last_seen: dict[str, int] = {}
        #: epoch of each member's last report with fresh samples
        #: (demand-aging clock).
        self._last_fresh: dict[str, int] = {}
        #: first rebalance epoch each member took part in.
        self._admitted_at: dict[str, int] = {}
        #: model-based report validation (clamps implausible demand).
        #: ``None`` disables the telemetry-robustness layer wholesale
        #: (reports taken at face value, no trust updates) — a
        #: break-glass operational mode, and the honest "unvalidated
        #: arbitration" baseline the trust-overhead bench compares
        #: against.
        self.validator: DemandValidator | None = DemandValidator(
            config.lease_ttl_epochs
        )
        #: per-node trust scores fed by the validator's verdicts.
        self.trust = TrustBook()
        #: facility brownout ladder for sustained infeasibility.
        self.brownout = BrownoutController()
        #: static per-node platform envelopes, resolved once (the
        #: validator consults them on every fresh report).
        self._node_floor: dict[str, float] = {
            spec.name: spec.min_cap_w for spec in config.nodes
        }
        self._node_max: dict[str, float] = {
            spec.name: spec.resolved_max_cap_w() for spec in config.nodes
        }

    # -- membership --------------------------------------------------------------

    @property
    def members(self) -> tuple[str, ...]:
        return tuple(sorted(self._members))

    def caps(self) -> dict[str, float]:
        return dict(self._caps)

    def admit(self, names: list[str]) -> None:
        """Add joining nodes to the membership set."""
        for name in names:
            self.config.node(name)  # validates the name
            self._members.add(name)

    def retire(self, names: list[str]) -> None:
        """Remove announced leavers / detected crashers."""
        for name in names:
            self._members.discard(name)
            self._drop_cap(name)
            self._last_report.pop(name, None)
            self._last_seen.pop(name, None)
            self._last_fresh.pop(name, None)
            self._admitted_at.pop(name, None)
            if self.validator is not None:
                self.validator.forget(name)
            self.trust.forget(name)

    def _drop_cap(self, name: str) -> None:
        """Forget a member's cap, keeping the maintained sum honest."""
        cap = self._caps.pop(name, None)
        if cap is not None:
            self._cap_sum -= cap

    def readmit(self, name: str, epoch: int) -> None:
        """Re-admit a rebooted member without double-counting it.

        Everything remembered about the node's previous incarnation —
        cap, reservation basis, liveness clocks, demand history — is
        discarded, so the node re-enters as a *new* member: it bids
        unconstrained in this epoch's water-filling instead of keeping
        a silent-member reservation, and the budget it had reserved is
        released in the same round it is re-granted.
        """
        self.config.node(name)  # validates the name
        self.retire([name])
        self._members.add(name)
        self._admitted_at[name] = epoch

    # -- checkpointing -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Checkpoint the full arbitration state for the journal.

        Reports are kept as live :class:`NodeEpochReport` objects; the
        journal converts them to a JSON form when dumped to disk.  A
        :meth:`restore` of this snapshot reproduces byte-identical
        grants from the next ``rebalance`` on.
        """
        return {
            "members": sorted(self._members),
            "caps": dict(self._caps),
            "last_report": dict(self._last_report),
            "last_seen": dict(self._last_seen),
            "last_fresh": dict(self._last_fresh),
            "admitted_at": dict(self._admitted_at),
            "validator": (
                self.validator.snapshot()
                if self.validator is not None else {}
            ),
            "trust": self.trust.snapshot(),
            "brownout": self.brownout.snapshot(),
        }

    def restore(self, state: dict) -> None:
        self._members = set(state["members"])
        self._caps = dict(state["caps"])
        self._cap_sum = sum(self._caps.values())
        self._last_report = dict(state["last_report"])
        self._last_seen = dict(state["last_seen"])
        self._last_fresh = dict(state["last_fresh"])
        self._admitted_at = dict(state["admitted_at"])
        # pre-trust journals carry none of the three: fresh defaults
        self.validator = DemandValidator(self.lease_ttl)
        if "validator" in state:
            self.validator.restore(state["validator"])
        self.trust = TrustBook()
        if "trust" in state:
            self.trust.restore(state["trust"])
        self.brownout = BrownoutController()
        if "brownout" in state:
            self.brownout.restore(state["brownout"])

    # -- the epoch redistribution ------------------------------------------------

    def rebalance(
        self, epoch: int, reports: dict[str, NodeEpochReport]
    ) -> Arbitration:
        """Grant next-epoch caps from this epoch's demand reports.

        ``reports`` covers whichever nodes' envelopes survived the
        control plane this round; crashed reporters are retired before
        their demand is considered.  Members split three ways:

        * **reporting** members are water-filled from their demand
          (fresh, or held over and aged when the report carried no
          samples);
        * **new** members (admitted, nothing heard yet — a join's first
          rounds) bid unconstrained so a booting node can claim its
          share immediately; past one lease TTL of silence they are
          demoted to a floor reservation like any other silent node;
        * **silent** members (heard before, nothing this round) are not
          water-filled at all: their budget stays *reserved* at the
          last granted cap until the lease expires, then at the floor —
          see the module docstring for why this keeps the cap-sum
          invariant honest under partitions.
        """
        crashed = [r.name for r in reports.values() if r.crashed]
        self.retire(crashed)
        violations: dict[str, tuple[str, ...]] = {}
        validator = self.validator
        if validator is None:
            # break-glass mode: reports taken at face value, no trust
            # updates (nothing can detect a violation).  Also the
            # bench's "unvalidated arbitration" baseline.
            for name in sorted(reports):
                report = reports[name]
                if name not in self._members:
                    continue
                self._last_seen[name] = epoch
                if report.samples > 0:
                    self._last_report[name] = report
                    self._last_fresh[name] = epoch
        else:
            # fresh demand goes through the model validator, and only
            # the clamped report survives as history — a lie can never
            # outlive the epoch it arrived in.  Trust is judged here
            # and only here: silence is the lease ladder's
            # jurisdiction, so a partitioned node is never
            # double-penalized.  The validator's tier-0 settled check
            # is fused into this loop (one dict probe per report —
            # the steady majority repeats its last clean-accepted
            # reading verbatim); only the residue pays for screening
            # and per-report verdicts.
            # clean-epoch credit only matters while some node carries
            # a degraded score — with the book empty, observe_clean is
            # a no-op, so skip accumulating the fresh-name list at all
            # (scores created *this* epoch land in the residue set,
            # which observe_clean would skip anyway).
            healing = bool(self.trust.scores)
            fresh_names: list[str] = []
            suspect_names: list[str] = []
            suspect_reports: list[NodeEpochReport] = []
            clean_get = validator.clean_tuples.get
            cut = validator.fresh_cut(epoch)
            for name in sorted(reports):
                report = reports[name]
                if name not in self._members:
                    continue
                self._last_seen[name] = epoch
                if report.samples <= 0:
                    continue
                if healing:
                    fresh_names.append(name)
                t = clean_get(name)
                if (
                    t is not None
                    and report.epoch >= cut
                    and t[0] == report.mean_power_w  # repro-lint: disable=float-equality — settled-memo bit-identity is intended
                    and t[1] == report.throttle_pressure
                    and t[2] == report.headroom_w  # repro-lint: disable=float-equality — settled-memo bit-identity is intended
                    and t[3] == report.cap_w  # repro-lint: disable=float-equality — settled-memo bit-identity is intended
                ):
                    self._last_report[name] = report
                    self._last_fresh[name] = epoch
                    continue
                suspect_names.append(name)
                suspect_reports.append(report)
            residue_names: set[str] = set()
            if suspect_names:
                residue = validator.screen(
                    suspect_reports,
                    suspect_names,
                    epoch=epoch,
                    floors=self._node_floor,
                    maxes=self._node_max,
                    granted=self._caps,
                )
                residue_names = {suspect_names[i] for i in residue}
                for i in residue:
                    name = suspect_names[i]
                    checked, broken = validator.validate(
                        suspect_reports[i],
                        epoch=epoch,
                        floor_w=self._node_floor[name],
                        max_cap_w=self._node_max[name],
                        granted_w=self._caps.get(name),
                    )
                    self.trust.observe(name, bool(broken))
                    if broken:
                        violations[name] = broken
                    suspect_reports[i] = checked
                for i, name in enumerate(suspect_names):
                    self._last_report[name] = suspect_reports[i]
                    self._last_fresh[name] = epoch
            if fresh_names:
                self.trust.observe_clean(
                    fresh_names, skip=residue_names
                )
        if not self._members:
            self._caps = {}
            self._cap_sum = 0.0
            return Arbitration(epoch, {}, {})
        for name in self._members:
            self._admitted_at.setdefault(name, epoch)

        live, reserved, degraded, pressure = self._classify(epoch)
        reserved_sum = sum(reserved[name] for name in sorted(reserved))
        budget = self.budget_w - reserved_sum

        # the level applied to this epoch's claims is the level the
        # ladder held *entering* the epoch (journaled state), so the
        # grant stays a pure function of the snapshot
        level = self.brownout.level
        caps = dict(reserved)
        group_pools, shed, stats, live_sum = self._arbitrate(
            epoch, live, budget, caps, degraded
        )
        total = self._trim(caps, reserved_sum + live_sum)
        # committed load is measured before the reservation shave and
        # before brownout shedding (the signal must not chase its own
        # effect)
        self.brownout.observe(pressure, self.budget_w)
        self._caps = caps
        self._cap_sum = total
        return Arbitration(
            epoch,
            dict(caps),
            group_pools,
            degraded=tuple(sorted(degraded)),
            reserved_w=dict(reserved),
            shed=shed,
            fleet_stats=stats,
            quarantined=self.trust.quarantined_names(),
            brownout=level,
            trust_violations=violations,
        )

    @abstractmethod
    def _arbitrate(
        self,
        epoch: int,
        live: list[str],
        budget: float,
        caps: dict[str, float],
        degraded: list[str],
    ) -> tuple[dict[str, float], tuple[str, ...], dict[str, int], float]:
        """Water-fill the bidding budget over the live members.

        Fills ``caps`` in place (on top of the reservations already
        there), appends demand-blind members to ``degraded``, and
        returns ``(pools, shed, stats, live_sum)`` — the per-domain
        pools, the members shed to their floors under contention,
        arbitration counters, and the float sum of the caps placed (so
        the caller can maintain the running cap sum).
        """

    def _classify(
        self, epoch: int
    ) -> tuple[list[str], dict[str, float], list[str], float]:
        """Split members into live bidders and silent reservations.

        Returns ``(live, reserved, degraded, pressure_w)``.
        Reservations are shaved toward their floors (largest first) if
        live members' floors would not otherwise fit — the
        no-starvation rule outranks a silent node's stale entitlement.
        ``pressure_w`` is the committed load *before* that shave (live
        floors plus unshaved reservations): the infeasibility signal
        the brownout ladder observes, which the shave would otherwise
        mask.
        """
        live: list[str] = []
        reserved: dict[str, float] = {}
        degraded: list[str] = []
        for name in sorted(self._members):
            floor = self.config.node(name).min_cap_w
            seen = self._last_seen.get(name)
            if seen is None:
                # nothing heard since admission: grace of one TTL for
                # the join handshake, then fail-safe to the floor
                if epoch - self._admitted_at[name] <= self.lease_ttl:
                    live.append(name)
                else:
                    reserved[name] = floor
                    degraded.append(name)
            elif seen == epoch:
                live.append(name)
            else:
                silent_for = epoch - seen
                if silent_for <= self.lease_ttl:
                    # lease still valid: the node may be enforcing its
                    # held-over cap — keep those watts reserved
                    reserved[name] = max(self._caps.get(name, floor), floor)
                else:
                    # lease expired: the node has stepped itself down
                    reserved[name] = floor
                degraded.append(name)
        live_floors = sum(self.config.node(n).min_cap_w for n in live)
        pressure = sum(reserved[n] for n in sorted(reserved)) + live_floors
        excess = pressure - self.budget_w
        if excess > 0:
            for name in sorted(
                reserved, key=lambda n: (-reserved[n], n)
            ):
                floor = self.config.node(name).min_cap_w
                give = min(excess, reserved[name] - floor)
                if give > 0:
                    reserved[name] -= give
                    excess -= give
                if excess <= 0:
                    break
        return live, reserved, degraded, pressure

    def _age(self, name: str, epoch: int) -> int:
        """Epochs since this member's demand was last fresh."""
        fresh = self._last_fresh.get(name)
        if fresh is None:
            return 0
        return epoch - fresh

    def _trim(self, caps: dict[str, float], total: float) -> float:
        """Shave the water-fill's float residue so the cap sum is
        *exactly* at or under budget, largest caps first (never below a
        node's floor).  Returns the post-trim total."""
        excess = total - self.budget_w
        if excess <= _SUM_TOLERANCE:
            return total
        shaved = 0.0
        for name in sorted(caps, key=lambda n: (-caps[n], n)):
            floor = self.config.node(name).min_cap_w
            give = min(excess, caps[name] - floor)
            if give > 0:
                caps[name] -= give
                excess -= give
                shaved += give
            if excess <= 0:
                break
        if excess > _SUM_TOLERANCE:  # pragma: no cover - config validation
            raise ConfigError(
                "cap floors exceed the cluster budget; config validation "
                "should have rejected this"
            )
        return total - shaved

    def check_invariant(self, *, full: bool = False) -> None:
        """Raise unless live caps sum to at most the budget.

        The per-epoch check reads the maintained running sum —
        O(1), so a 1,000-node fleet pays nothing for the safety net.
        ``full=True`` additionally rescans the caps dict and verifies
        the maintained sum has not drifted from it (a debugging /
        regression-test mode; float addition order differs between the
        two, hence the drift tolerance).
        """
        total = self._cap_sum
        if full:
            rescan = sum(self._caps.values())
            if abs(rescan - total) > _SUM_DRIFT_TOLERANCE:
                raise ConfigError(
                    f"cap-sum accounting drift: maintained "
                    f"{total:.9f} W vs rescanned {rescan:.9f} W"
                )
            total = rescan
        if total > self.budget_w + _SUM_TOLERANCE:
            raise ConfigError(
                f"cap invariant violated: {total:.6f} W granted against "
                f"a {self.budget_w:.6f} W budget"
            )
