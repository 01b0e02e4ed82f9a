"""``proportional_targets`` (the breakpoint sweep) against bisection.

The production water-fill solves for the common funding level exactly,
with FastCap's breakpoint sweep.  The oracle below is the form it
replaced: 80 unconditional bisection passes of
``min(max(level * shares, lo), hi)``, whose precision is the float
resolution of the level itself.  Two independent solvers of the same
equation must agree on every claim set — pinned claims (``lo == hi``),
single claims, and totals within an ulp of the floor and ceiling sums,
where the infeasible-pool exits take over — to within 1e-12 of the
problem's watt scale, and the sweep must place exactly the total it
was given.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.minfund import Claim, proportional_targets

#: agreement bound, relative to the problem's watt scale.
REL_TOL = 1e-12


def bisection_targets(total, claims):
    """The 80-pass bisection water-fill: the test oracle."""
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


def assert_agrees_with_bisection(total, claims):
    sweep = proportional_targets(total, claims)
    oracle = bisection_targets(total, claims)
    assert list(sweep) == list(oracle)
    floor_sum = sum(c.lo for c in claims)
    ceil_sum = sum(c.hi for c in claims)
    scale = max(abs(total), ceil_sum, 1.0)
    for label, value in sweep.items():
        assert abs(value - oracle[label]) <= REL_TOL * scale, label
    # conservation: an infeasible total pins every claim at a bound
    # exactly; a feasible one is placed in full
    if total <= floor_sum:
        assert sweep == {c.label: c.lo for c in claims}
    elif total >= ceil_sum:
        assert sweep == {c.label: c.hi for c in claims}
    else:
        assert abs(math.fsum(sweep.values()) - total) <= REL_TOL * scale


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
@example((  # shares spanning orders of magnitude: the sweep's running
    # slope cancels to ~1e-3 with an error in its 12th digit
    462.0,
    [
        Claim("pinned", 1.0, 5.0, 5.0, 5.0),
        Claim("big", 61.0, 0.0, 0.0, 158.0),
        Claim("small", 1e-3, 0.0, 0.0, 300.0),
    ],
))
@settings(max_examples=600, deadline=None)
def test_matches_full_bisection(case):
    total, claims = case
    assert_agrees_with_bisection(total, claims)


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
    assert_agrees_with_bisection(total, claims)


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
        assert_agrees_with_bisection(total, claims)

