"""Lattice oracles: exactness on closed-form families, refinement
monotonicity, domination, determinism under threading."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigauge import (
    TAU,
    ClosedBall,
    DomainError,
    FinitePointSet,
    Func,
    Grid,
    LevelGrid,
    OracleCapError,
    Point,
    PreconditionError,
    dist_to_set,
    grid_argmin,
    grid_gauge,
    grid_sup_abs_diff,
)
from epigauge.constructions import build_impossibility_pair, build_sharpness_pair, \
    build_strictness_pair

from helpers import random_analytic


# ---------------------------------------------------------------------------
# Lattice construction
# ---------------------------------------------------------------------------


def test_axis_contains_origin_and_endpoints_when_integral():
    g = Grid(1, 1.0, 0.1)
    assert 0.0 in g.axis
    assert g.axis[0] == -1.0 and g.axis[-1] == 1.0
    assert len(g.axis) == 21


def test_axis_no_overshoot_when_not_integral():
    g = Grid(1, 1.0, 0.3)
    assert all(abs(v) <= 1.0 + 1e-9 for v in g.axis)
    assert len(g.axis) == 7  # k in -3..3


def test_refinement_is_bit_exact_superset():
    g = Grid(1, 1.0, 0.1)
    fine = g.refine()
    assert set(g.axis) <= set(fine.axis)


def test_level_grid_always_includes_endpoints():
    lg = LevelGrid(2.0, 0.3)  # 2/0.3 not integral
    assert -2.0 in lg.values and 2.0 in lg.values
    assert lg.values == tuple(sorted(lg.values))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(1e-3, 10.0), st.floats(1e-3, 5.0))
@example(0.3, 0.1)
@example(1.0, 0.1)
@example(1.0, 1.0)
def test_level_grid_size_is_its_value_count(M, step_t):
    lg = LevelGrid(M, step_t)
    size = lg.size  # known before any value is built
    inside = [t for t in Grid(1, M, step_t).axis if abs(t) < M]
    assert lg.values == (-M, *inside, M)
    assert size == len(lg.values)


def test_ball_filter_in_two_dimensions():
    g = Grid(2, 1.0, 0.5)
    pts = list(g.points())
    # cube has 25 nodes; corners at norm sqrt(2)/... are filtered
    assert Point.of(1.0, 1.0) not in pts
    assert Point.of(1.0, 0.0) in pts
    assert Point.of(0.0, 0.0) in pts
    assert all(p.norm() <= 1.0 + 1e-9 for p in pts)


def test_lattice_cap_is_enforced_before_materialization():
    with pytest.raises(OracleCapError):
        Grid(1, 1.0, 1e-9)
    with pytest.raises(OracleCapError):
        Grid(3, 1.0, 1e-3)


def test_grid_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        Grid(1, 1.0, 0.0)
    with pytest.raises(PreconditionError):
        Grid(1, -1.0, 0.1)
    with pytest.raises(PreconditionError):
        Grid(0, 1.0, 0.1)


# ---------------------------------------------------------------------------
# grid_sup_abs_diff
# ---------------------------------------------------------------------------


def test_sup_abs_diff_identical_functions():
    f = Func.quadratic(1.0)
    assert grid_sup_abs_diff(f, f, Grid(1, 1.0, 0.1)) == 0.0


def test_sup_abs_diff_strictness_pair_exact():
    pair = build_strictness_pair(1.0, 2.0, 5.0)
    assert grid_sup_abs_diff(pair.f, pair.g, Grid(1, 1.0, 0.01)) == 5.0


def test_sup_abs_diff_bump_peak_on_lattice():
    pair = build_impossibility_pair(
        1.0, (Point.of(-0.5), Point.of(0.5)), 10.0, y=Point.of(0.0))
    # lattice step 0.25 hits the peak y = 0 exactly
    assert grid_sup_abs_diff(pair.f, pair.g, Grid(1, 1.0, 0.25)) == 10.0


def test_sup_abs_diff_domain_violation():
    f = Func.quadratic(1.0, domain_radius=0.5)
    with pytest.raises(DomainError):
        grid_sup_abs_diff(f, f, Grid(1, 1.0, 0.1))


# ---------------------------------------------------------------------------
# grid_gauge
# ---------------------------------------------------------------------------


def test_grid_gauge_identical_functions():
    f = Func.quadratic(1.0)
    assert grid_gauge(f, f, Grid(1, 1.0, 0.1), 1.0) == 0.0


def test_grid_gauge_strictness_pair_exactly_zero():
    pair = build_strictness_pair(1.0, 2.0, 5.0)
    assert grid_gauge(pair.f, pair.g, Grid(1, 1.0, 0.01), 2.0) == 0.0


def test_grid_gauge_constant_pair_attains_value_gap():
    f = Func.constant(0.0)
    g = Func.constant(0.3)
    # attained at any level at or below both graphs
    assert grid_gauge(f, g, Grid(1, 1.0, 0.5), 1.0) == 0.3


def test_grid_gauge_dominated_by_sup_abs_diff_exactly():
    rng = np.random.default_rng(424242)
    grid = Grid(1, 1.0, 0.05)
    for _ in range(25):
        f = random_analytic(rng)
        g = random_analytic(rng)
        assert grid_gauge(f, g, grid, 1.5) <= grid_sup_abs_diff(f, g, grid)


def test_grid_gauge_matches_scalar_bruteforce():
    from epigauge import pointwise_discrepancy

    rng = np.random.default_rng(7)
    grid = Grid(1, 1.0, 0.2)
    lgrid = LevelGrid(1.0, 0.3)
    for _ in range(5):
        f = random_analytic(rng)
        g = random_analytic(rng)
        brute = max(
            pointwise_discrepancy(f(p), g(p), t)
            for p in grid.points() for t in lgrid.values
        )
        assert grid_gauge(f, g, grid, lgrid.M) == brute


def test_oracle_soundness_sharpness_family():
    fam = build_sharpness_pair(2.0, 0.02)
    for R, M in ((0.5, 0.5), (1.0, 1.0), (2.0, 3.0)):
        val = grid_gauge(fam.f, fam.g, Grid(1, R, 0.01), M)
        assert val <= fam.delta + TAU


def test_refinement_monotonicity_three_halvings():
    rng = np.random.default_rng(11)
    f = random_analytic(rng)
    g = random_analytic(rng)
    grid = Grid(1, 1.0, 0.2)
    prev_sup = grid_sup_abs_diff(f, g, grid)
    prev_gauge = grid_gauge(f, g, grid, 1.0)
    for _ in range(3):
        grid = grid.refine()
        cur_sup = grid_sup_abs_diff(f, g, grid)
        cur_gauge = grid_gauge(f, g, grid, 1.0)
        assert cur_sup >= prev_sup
        assert cur_gauge >= prev_gauge
        prev_sup, prev_gauge = cur_sup, cur_gauge


# ---------------------------------------------------------------------------
# grid_argmin
# ---------------------------------------------------------------------------


def test_argmin_vertex_on_lattice():
    f = Func(lambda p: (p.coords[0] - 0.3) ** 2, math.inf, 1, "(x-0.3)^2")
    res = grid_argmin(f, Grid(1, 1.0, 0.01))
    assert res.points == (Point.of(0.3),)
    assert res.value == 0.0


def test_argmin_sharpness_plateau_ties():
    fam = build_sharpness_pair(2.0, 0.02)
    res = grid_argmin(fam.g, Grid(1, 1.0, 1e-3))
    assert res.value == 0.0
    # plateau edge sqrt(0.02) ~ 0.1414: ties are the lattice points within it
    assert res.points[0] == Point.of(-141 * 1e-3)
    assert res.points[-1] == Point.of(141 * 1e-3)
    assert len(res.points) == 283
    lo, hi = -fam.argmin_radius, fam.argmin_radius
    assert all(lo - TAU <= p.coords[0] <= hi + TAU for p in res.points)


def test_argmin_constant_everything_tied():
    f = Func.constant(4.0)
    g = Grid(1, 1.0, 0.25)
    res = grid_argmin(f, g)
    assert len(res.points) == len(g.axis)
    assert res.value == 4.0
    assert list(res.points) == sorted(res.points)


# ---------------------------------------------------------------------------
# dist_to_set
# ---------------------------------------------------------------------------


def test_dist_to_set_examples():
    origin = FinitePointSet((Point.of(0.0),))
    assert dist_to_set(Point.of(0.5), origin) == 0.5
    interval = ClosedBall(Point.of(0.0), 0.2)
    assert dist_to_set(Point.of(0.5), interval) == 0.3
    assert dist_to_set(Point.of(0.1), interval) == 0.0
    assert dist_to_set(Point.of(0.0), origin) == 0.0


def test_dist_to_set_finite_set_takes_minimum():
    s = FinitePointSet((Point.of(-1.0), Point.of(1.0)))
    assert dist_to_set(Point.of(0.6), s) == 0.4


def test_dist_to_set_dimension_mismatch():
    with pytest.raises(DomainError):
        dist_to_set(Point.of(0.0, 0.0), FinitePointSet((Point.of(0.0),)))


# ---------------------------------------------------------------------------
# Determinism under threading
# ---------------------------------------------------------------------------


def test_threaded_scans_bit_identical():
    grid = Grid(1, 1.0, 1e-4)  # 20001 points: several chunks
    fam = build_sharpness_pair(2.0, 0.02)
    r1 = grid_argmin(fam.g, grid, threads=1)
    r4 = grid_argmin(fam.g, grid, threads=4)
    assert r1.value == r4.value
    assert r1.points == r4.points
