"""Vertical map primitives: examples, exactness, and transfer properties."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigauge import (
    TAU,
    Cylinder,
    DomainError,
    EvaluationError,
    Func,
    GaugeBound,
    Grid,
    Point,
    PreconditionError,
    Provenance,
    gauge_from_value_bound,
    grid_gauge,
    in_closed_ball,
    pointwise_discrepancy,
    pos_part,
)
from epigauge.core import slack_radius

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
moderate = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


# ---------------------------------------------------------------------------
# pos_part
# ---------------------------------------------------------------------------


def test_pos_part_examples():
    assert pos_part(3.0) == 3.0
    assert pos_part(-2.0) == 0.0
    assert pos_part(0.0) == 0.0


def test_pos_part_negative_zero_normalized():
    assert math.copysign(1.0, pos_part(-0.0)) == 1.0


def test_pos_part_rejects_non_finite():
    with pytest.raises(PreconditionError):
        pos_part(float("nan"))
    with pytest.raises(PreconditionError):
        pos_part(float("inf"))


@given(finite)
def test_pos_part_idempotent(r):
    assert pos_part(pos_part(r)) == pos_part(r)


@given(finite)
def test_pos_part_dominates(r):
    v = pos_part(r)
    assert v >= 0.0
    assert v >= r


# ---------------------------------------------------------------------------
# pointwise discrepancy
# ---------------------------------------------------------------------------


def test_pointwise_discrepancy_examples():
    assert pointwise_discrepancy(0.0, 0.5, -1.0) == 0.5
    # both values below the level: both gaps vanish
    assert pointwise_discrepancy(-3.0, -8.0, 0.0) == 0.0
    # mixed case: max(-0.5, 0) = 0 versus max(0.5, 0) = 0.5
    assert pointwise_discrepancy(1.0, 2.0, 1.5) == 0.5


@given(moderate, moderate, moderate)
def test_pointwise_discrepancy_symmetry(fa, fb, t):
    assert pointwise_discrepancy(fa, fb, t) == pointwise_discrepancy(fb, fa, t)


@given(moderate, moderate, moderate)
@settings(max_examples=300)
def test_pointwise_discrepancy_matches_defining_composition(fa, fb, t):
    # The case-split form equals |(fa-t)+ - (fb-t)+| in exact arithmetic;
    # in floats the two may differ by rounding of the recomposition only.
    direct = abs(pos_part(fa - t) - pos_part(fb - t))
    scale = max(1.0, abs(fa), abs(fb), abs(t))
    assert abs(pointwise_discrepancy(fa, fb, t) - direct) <= 4e-16 * scale


def test_lipschitz_transfer_fuzz_100k():
    # Zero-tolerance domination: never exceeds |u - v|, on 1e5 random triples.
    rng = np.random.default_rng(987654321)
    u = rng.uniform(-100.0, 100.0, size=100_000)
    v = rng.uniform(-100.0, 100.0, size=100_000)
    t = rng.uniform(-100.0, 100.0, size=100_000)
    violations = sum(
        1 for ui, vi, ti in zip(u, v, t)
        if pointwise_discrepancy(ui, vi, ti) > abs(ui - vi)
    )
    assert violations == 0


# ---------------------------------------------------------------------------
# Point / Func / membership
# ---------------------------------------------------------------------------


def test_point_validation_and_order():
    with pytest.raises(PreconditionError):
        Point(())
    with pytest.raises(PreconditionError):
        Point((float("nan"),))
    assert Point.of(-1.0) < Point.of(0.0) < Point.of(1.0)
    assert Point.of(0.0, 1.0) < Point.of(1.0, 0.0)
    assert Point.of(3.0, 4.0).norm() == 5.0


def test_func_domain_is_hard_boundary():
    f = dataclasses.replace(Func.quadratic(1.0, dim=1), domain_radius=1.0)
    assert f(Point.of(1.0)) == 1.0
    with pytest.raises(DomainError):
        f(Point.of(1.0001))
    with pytest.raises(DomainError):
        f(Point.of(0.5, 0.5))  # dimension mismatch


def test_func_rejects_non_finite_values():
    bad = Func(lambda p: float("nan"), 1.0, 1, "nan-func")
    with pytest.raises(EvaluationError):
        bad(Point.of(0.0))


def test_func_deterministic():
    f = Func.quadratic(0.7, dim=2)
    p = Point.of(0.3, -0.4)
    assert f(p) == f(p)


def test_func_families():
    assert Func.constant(2.5)(Point.of(0.1)) == 2.5
    assert Func.affine((2.0,), 1.0)(Point.of(0.5)) == 2.0
    assert Func.scaled(Func.constant(3.0), 2.0)(Point.of(0.0)) == 6.0
    assert Func.sum_of(Func.constant(1.0), Func.constant(2.0))(Point.of(0.0)) == 3.0
    g = Func.clamp_shift(Func.quadratic(1.0), 0.25)
    assert g(Point.of(0.4)) == 0.0
    assert g(Point.of(1.0)) == 0.75
    bump = Func.bump(Point.of(0.0), 0.5, 2.0)
    assert bump(Point.of(0.0)) == 2.0
    assert bump(Point.of(0.5)) == 0.0
    assert bump(Point.of(0.75)) == 0.0


def test_in_closed_ball_boundary_slack():
    # Lattice boundary points built by multiplication stay inside nominal balls.
    g = Grid(1, 1.0, 0.1)
    assert all(in_closed_ball(p, 1.0) for p in g.points())
    assert not in_closed_ball(Point.of(1.001), 1.0)
    assert in_closed_ball(Point.of(5.0), math.inf)
    # a negative radius holds no point, even where its slack radius is positive
    for radius in (-1.0, -0.5 * TAU):
        assert not in_closed_ball(Point.of(0.0), radius)
    assert slack_radius(-0.5 * TAU) > 0.0


# ---------------------------------------------------------------------------
# Gauge bounds
# ---------------------------------------------------------------------------


def test_cylinder_validation():
    with pytest.raises(PreconditionError):
        Cylinder(0.0, 1.0)
    with pytest.raises(PreconditionError):
        Cylinder(1.0, -2.0)


def test_gauge_from_value_bound_examples():
    cyl = Cylinder(1.0, 1.0)
    b = gauge_from_value_bound(0.1, cyl)
    assert b.delta == 0.1
    assert b.provenance is Provenance.VALUE_BOUND
    assert b.certified
    assert gauge_from_value_bound(0.0, cyl).delta == 0.0
    with pytest.raises(PreconditionError):
        gauge_from_value_bound(-0.1, cyl)


def test_gauge_from_value_bound_confirmed_by_oracle_on_shifted_pair():
    # Constant shift c: |f - g| = |c| certifies the gauge; the scan stays
    # below it up to the declared slack (shifted evaluations round).
    cyl = Cylinder(1.0, 1.0)
    f = Func.quadratic(0.8, dim=1)
    c = 0.3
    g = Func(lambda p: f(p) + c, math.inf, 1, "f+0.3")
    bound = gauge_from_value_bound(abs(c), cyl)
    oracle = grid_gauge(f, g, Grid(1, cyl.R, 0.02), cyl.M)
    assert oracle <= bound.delta + TAU


def test_assumed_provenance_is_never_certified():
    cyl = Cylinder(1.0, 1.0)
    with pytest.raises(PreconditionError):
        GaugeBound(0.1, cyl, Provenance.ASSUMED, certified=True)
    b = GaugeBound(0.1, cyl, Provenance.ASSUMED, certified=False, detail="hunch")
    assert not b.certified


def test_gauge_bound_rejects_negative_delta():
    with pytest.raises(PreconditionError):
        GaugeBound(-1e-9, Cylinder(1.0, 1.0), Provenance.VALUE_BOUND)


# ---------------------------------------------------------------------------
# Gauge monotonicity in the window (nested sample sets)
# ---------------------------------------------------------------------------


def test_gauge_grid_monotone_under_refinement():
    f = Func.quadratic(1.3, dim=1)
    g = Func.clamp_shift(f, 0.07)
    grid = Grid(1, 1.0, 0.2)
    coarse = grid_gauge(f, g, grid, 1.0)
    finer_x = grid_gauge(f, g, Grid(grid.dim, grid.radius, grid.step / 2.0), 1.0)
    assert coarse <= finer_x
