"""Min-funding revocation distribution (paper section 5.2).

When the daemon has excess (or deficit) of a resource to spread across
applications, it distributes proportionally to shares but respects each
application's saturation bounds: an app already at its maximum cannot
usefully absorb more, one at its minimum cannot give up more.  Following
Waldspurger's min-funding revocation [54], saturated apps are removed
from the mix and the distribution re-runs over the remaining resource
and remaining apps until everything is placed or everyone saturates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ShareError


@dataclass(frozen=True)
class Claim:
    """One app's stake in a distribution round.

    ``current`` is its present allocation of the resource; ``lo``/``hi``
    bound what the allocation may become.
    """

    label: str
    shares: float
    current: float
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.shares <= 0:
            raise ShareError(f"{self.label}: shares must be positive")
        if self.lo > self.hi:
            raise ShareError(
                f"{self.label}: empty allocation range [{self.lo}, {self.hi}]"
            )


def distribute_min_funding(
    delta: float, claims: list[Claim], *, tolerance: float = 1e-9
) -> dict[str, float]:
    """Spread ``delta`` (positive or negative) across claims by shares.

    Returns the new allocation per label.  Guarantees:

    * every allocation stays within its ``[lo, hi]`` bounds,
    * the total distributed equals ``delta`` unless every claim
      saturates, in which case as much as possible is placed,
    * allocation is share-proportional among claims that never saturate.

    The loop terminates because each round either places the full
    remainder or permanently saturates at least one claim.
    """
    allocations = {c.label: c.current for c in claims}
    if not claims:
        return allocations
    remaining = delta
    open_claims = list(claims)
    while abs(remaining) > tolerance and open_claims:
        total_shares = sum(c.shares for c in open_claims)
        placed = 0.0
        still_open: list[Claim] = []
        for claim in open_claims:
            want = remaining * claim.shares / total_shares
            target = allocations[claim.label] + want
            clipped = min(max(target, claim.lo), claim.hi)
            placed += clipped - allocations[claim.label]
            allocations[claim.label] = clipped
            saturated = (
                (remaining > 0 and clipped >= claim.hi - tolerance)
                or (remaining < 0 and clipped <= claim.lo + tolerance)
            )
            if not saturated:
                still_open.append(claim)
        remaining -= placed
        if not still_open:
            break
        # If nothing moved this round (everyone clipped to where they
        # already were) we cannot make progress.
        if abs(placed) <= tolerance and len(still_open) == len(open_claims):
            break
        open_claims = still_open
    return allocations


def proportional_targets(
    total: float, claims: list[Claim]
) -> dict[str, float]:
    """Share-proportional split of an absolute ``total`` with bounds.

    Exact water-filling: find the common *funding level* L such that
    every claim gets ``clamp(L * shares, lo, hi)`` and the clamped
    allocations sum to ``total``.  All claims strictly inside their
    bounds therefore sit at the same allocation-per-share — the
    proportional-fairness invariant.  (A naive iterative "split the
    remainder over open claims" breaks it: a claim raised to its floor
    in one round would also share later rounds' remainders.)

    Infeasible totals degrade gracefully: below the sum of floors every
    claim gets its floor (the paper's no-starvation rule over-commits
    rather than starving); above the sum of ceilings everyone gets hi.

    The level is found by FastCap's breakpoint sweep (PAPERS.md), not
    by iteration: the filled total is piecewise linear in L — a claim
    contributes ``lo`` below ``L = lo/shares``, ``L * shares`` between
    its breakpoints, and ``hi`` above ``L = hi/shares`` — so sorting the
    ``2n`` breakpoints and sweeping them once finds the crossing segment
    and the exact level inside it in ``O(n log n)``.  The ``current``
    field of each claim is ignored.
    """
    if not claims:
        return {}
    floor_sum = sum(c.lo for c in claims)
    ceil_sum = sum(c.hi for c in claims)
    if total <= floor_sum:
        return {c.label: c.lo for c in claims}
    if total >= ceil_sum:
        return {c.label: c.hi for c in claims}
    level = _funding_level(total, claims, floor_sum)
    return {
        c.label: min(max(level * c.shares, c.lo), c.hi) for c in claims
    }


def _funding_level(
    total: float, claims: list[Claim], floor_sum: float
) -> float:
    """The level whose clamped sum equals ``total``, which lies
    strictly between the floor and ceiling sums (so a crossing
    exists)."""
    # at lo/shares a claim leaves its floor and joins the proportional
    # band; at hi/shares it saturates at its ceiling.  The claim index
    # breaks ties deterministically; the level does not depend on tie
    # order because the filled total is continuous in L.
    events: list[tuple[float, int, int]] = []
    for index, claim in enumerate(claims):
        events.append((claim.lo / claim.shares, index, 0))
        events.append((claim.hi / claim.shares, index, 1))
    events.sort()
    # between consecutive breakpoints filled(L) = fixed + L * slope:
    # ``fixed`` sums the pinned claims (still at lo, or already at hi),
    # ``slope`` the shares of claims in the proportional band
    fixed = floor_sum
    slope = 0.0
    # per claim: 0 at its floor, 1 in the band, 2 at its ceiling
    where = [0] * len(claims)
    for point, index, kind in events:
        if slope > 0.0 and (total - fixed) / slope <= point:
            break
        claim = claims[index]
        where[index] = kind + 1
        if kind == 0:
            fixed -= claim.lo
            slope += claim.shares
        else:
            slope -= claim.shares
            fixed += claim.hi
    # the running sums only locate the crossing segment: shares spanning
    # orders of magnitude cancel in them, so the segment's sums are
    # taken afresh before solving for the level
    fixed = 0.0
    slope = 0.0
    for claim, state in zip(claims, where):
        if state == 1:
            slope += claim.shares
        else:
            fixed += claim.hi if state == 2 else claim.lo
    if slope <= 0.0:  # pragma: no cover - float-residue backstop
        # total < ceil_sum puts the crossing before the last
        # breakpoint; float residue can push it just past
        return events[-1][0]
    return (total - fixed) / slope


def pool_bounds(claims: list[Claim]) -> tuple[float, float]:
    """Feasible range of the allocation pool: sum of floors to sum of
    ceilings."""
    return (sum(c.lo for c in claims), sum(c.hi for c in claims))


def refill_pool(pool_total: float, claims: list[Claim]) -> dict[str, float]:
    """Redistribution step: re-split an explicit ``pool_total``
    share-proportionally within bounds.

    This is the revocation direction done right: when the pool shrinks,
    allocations above their share-proportional entitlement (windfalls an
    app received because others were saturated) are revoked *first*;
    when it grows, under-entitled apps catch up first.  A plain
    "spread the delta by shares" would instead take the most from the
    highest-share app — the exact inversion of what proportional
    fairness wants under contraction.

    The caller owns the pool level (``pool += delta`` each iteration)
    rather than re-deriving it from the clamped allocations: floors can
    hold Σ(allocations) above the pool, and summing clamped values back
    would deadlock the controller above the power limit.
    """
    return proportional_targets(pool_total, claims)
