"""The bisect quantizers against the scans they replaced, bit for bit.

``repro.units.quantize_down``/``quantize_nearest`` find their grid
point with ``bisect``.  The definitions below are the original linear
scan and ``min(key=...)`` forms, kept here as the oracle: on every
platform grid (full and nominal) and on arbitrary sorted grids, both
must return the same float — sign of zero included — for exact grid
points, midpoints, points a hair (1e-9, 1e-10, one ulp) to either side,
values below and above the grid, far-away values whose distances round
together, infinities and NaN.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.platform import PLATFORM_REGISTRY
from repro.units import quantize_down, quantize_nearest


def oracle_down(value, grid):
    chosen = grid[0]
    for point in grid:
        if point <= value + 1e-9:
            chosen = point
        else:
            break
    return chosen


def oracle_nearest(value, grid):
    return min(grid, key=lambda point: (abs(point - value), point))


def _platform_grids():
    grids = []
    for factory in sorted(set(PLATFORM_REGISTRY.values()), key=repr):
        table = factory().pstates
        for grid in (table.frequencies_mhz, table.nominal_frequencies_mhz()):
            if tuple(grid) not in grids:
                grids.append(tuple(grid))
    return grids


PLATFORM_GRIDS = _platform_grids()


def _same(a: float, b: float) -> bool:
    return a.hex() == b.hex()


@st.composite
def near_grid(draw, grid):
    """A value anchored on the grid: a point, a midpoint, or either one
    nudged by 1e-9, 1e-10, or a single ulp."""
    i = draw(st.integers(min_value=0, max_value=len(grid) - 1))
    anchor = grid[i]
    if draw(st.booleans()) and i + 1 < len(grid):
        anchor = (grid[i] + grid[i + 1]) / 2
    nudge = draw(st.sampled_from(["none", "1e-9", "1e-10", "ulp"]))
    sign = draw(st.sampled_from([1.0, -1.0]))
    if nudge == "ulp":
        return math.nextafter(anchor, sign * math.inf)
    if nudge == "none":
        return anchor
    return anchor + sign * float(nudge)


def values_for(grid):
    lo, hi = grid[0], grid[-1]
    return st.one_of(
        near_grid(grid),
        st.floats(min_value=lo - 1000.0, max_value=hi + 1000.0),
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from([
            -math.inf, math.inf, math.nan, 0.0, -0.0,
            lo - 1e-9, hi + 1e-9, -1e20, 1e17, 1e20, 1e300,
        ]),
    )


@st.composite
def platform_case(draw):
    grid = draw(st.sampled_from(PLATFORM_GRIDS))
    return grid, draw(values_for(grid))


@st.composite
def sorted_grid_case(draw):
    points = draw(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6)
            | st.sampled_from([0.0, -0.0, 100.0, 100.0 + 1e-12]),
            min_size=1,
            max_size=12,
        )
    )
    grid = tuple(sorted(points))
    return grid, draw(values_for(grid))


def test_every_platform_grid_is_covered():
    assert len(PLATFORM_GRIDS) >= 2
    for grid in PLATFORM_GRIDS:
        assert list(grid) == sorted(grid)


@given(platform_case())
@settings(max_examples=600, deadline=None)
def test_platform_grids_match_oracle(case):
    grid, value = case
    assert _same(quantize_down(value, grid), oracle_down(value, grid))
    assert _same(quantize_nearest(value, grid), oracle_nearest(value, grid))


@given(sorted_grid_case())
@settings(max_examples=400, deadline=None)
def test_sorted_grids_match_oracle(case):
    grid, value = case
    assert _same(quantize_down(value, grid), oracle_down(value, grid))
    assert _same(quantize_nearest(value, grid), oracle_nearest(value, grid))


def test_exhaustive_platform_anchors_match_oracle():
    """Every grid point and midpoint of every platform grid, with every
    nudge, checked deterministically (not left to sampling)."""
    for grid in PLATFORM_GRIDS:
        anchors = list(grid)
        anchors += [(a + b) / 2 for a, b in zip(grid, grid[1:])]
        for anchor in anchors:
            for value in (
                anchor,
                anchor + 1e-9,
                anchor - 1e-9,
                anchor + 1e-10,
                anchor - 1e-10,
                math.nextafter(anchor, math.inf),
                math.nextafter(anchor, -math.inf),
            ):
                assert _same(
                    quantize_down(value, grid), oracle_down(value, grid)
                ), (grid, value)
                assert _same(
                    quantize_nearest(value, grid),
                    oracle_nearest(value, grid),
                ), (grid, value)
