"""``proportional_targets`` against the full 80-pass bisection, bit for bit.

The production water-fill stops bisecting once a pass leaves the
``(lo_level, hi_level)`` bracket unchanged — a fixed point, so every
remaining pass would repeat it — and evaluates the clamp with inline
comparisons.  The oracle below is the original form: 80 unconditional
passes of ``min(max(level * shares, lo), hi)``.  Both must return the
same floats for every claim set, including pinned claims (``lo ==
hi``), single claims, and totals within an ulp of the floor and
ceiling sums, where the early exits take over.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.minfund import Claim, proportional_targets


def oracle_targets(total, claims):
    if not claims:
        return {}
    floor_sum = sum(c.lo for c in claims)
    ceil_sum = sum(c.hi for c in claims)
    if total <= floor_sum:
        return {c.label: c.lo for c in claims}
    if total >= ceil_sum:
        return {c.label: c.hi for c in claims}

    def placed(level):
        return sum(min(max(level * c.shares, c.lo), c.hi) for c in claims)

    lo_level = 0.0
    hi_level = max(c.hi / c.shares for c in claims)
    for _ in range(80):
        mid = (lo_level + hi_level) / 2
        if placed(mid) < total:
            lo_level = mid
        else:
            hi_level = mid
    level = (lo_level + hi_level) / 2
    return {
        c.label: min(max(level * c.shares, c.lo), c.hi) for c in claims
    }


def _hex(targets):
    return [(label, value.hex()) for label, value in targets.items()]


@st.composite
def claim_sets(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    claims = []
    for i in range(n):
        lo = draw(
            st.floats(min_value=0.0, max_value=200.0)
            | st.sampled_from([0.0, 1.0, 35.0])
        )
        width = draw(
            st.just(0.0)  # pinned claim: lo == hi
            | st.floats(min_value=0.0, max_value=300.0)
            | st.floats(min_value=0.0, max_value=1e-9)
        )
        shares = draw(
            st.floats(min_value=1e-3, max_value=1e3)
            | st.sampled_from([1.0, 50.0, 100.0])
        )
        claims.append(Claim(f"app{i}", shares, lo, lo, lo + width))
    return claims


def _nudge(value, steps):
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


@st.composite
def cases(draw):
    claims = draw(claim_sets())
    floor_sum = sum(c.lo for c in claims)
    ceil_sum = sum(c.hi for c in claims)
    kind = draw(st.sampled_from(["inside", "floor", "ceil", "outside"]))
    if kind == "inside" and ceil_sum > floor_sum:
        total = draw(st.floats(min_value=floor_sum, max_value=ceil_sum))
    elif kind == "floor":
        total = _nudge(floor_sum, draw(st.integers(min_value=-2, max_value=3)))
    elif kind == "ceil":
        total = _nudge(ceil_sum, draw(st.integers(min_value=-3, max_value=2)))
    else:
        total = draw(st.sampled_from([floor_sum - 10.0, ceil_sum + 10.0]))
    return total, claims


@given(cases())
@settings(max_examples=600, deadline=None)
def test_matches_full_bisection(case):
    total, claims = case
    assert _hex(proportional_targets(total, claims)) == _hex(
        oracle_targets(total, claims)
    )


@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=1e-3, max_value=1e3),
    st.integers(min_value=-2, max_value=2),
)
@settings(max_examples=200, deadline=None)
def test_single_claim_matches_full_bisection(lo, width, shares, steps):
    claims = [Claim("only", shares, lo, lo, lo + width)]
    total = _nudge(lo + width / 2, steps)
    assert _hex(proportional_targets(total, claims)) == _hex(
        oracle_targets(total, claims)
    )


def test_pinned_claims_beside_open_ones():
    claims = [
        Claim("pinned", 10.0, 20.0, 20.0, 20.0),
        Claim("open", 30.0, 5.0, 5.0, 80.0),
        Claim("tiny", 0.5, 0.0, 0.0, 1e-9),
    ]
    floor_sum = sum(c.lo for c in claims)
    ceil_sum = sum(c.hi for c in claims)
    for total in (
        _nudge(floor_sum, 1),
        _nudge(ceil_sum, -1),
        (floor_sum + ceil_sum) / 2,
        floor_sum + 1e-9,
    ):
        assert _hex(proportional_targets(total, claims)) == _hex(
            oracle_targets(total, claims)
        )
