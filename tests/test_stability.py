"""Value-gap conversion, displacement certificates, growth falsification."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from epigauge import (
    TAU,
    ClosedBall,
    Cylinder,
    FinitePointSet,
    Func,
    GaugeBound,
    Grid,
    GrowthCert,
    Point,
    PreconditionError,
    Provenance,
    displacement_bound,
    dist_to_set,
    falsify_quadratic_growth,
    gauge_from_value_bound,
    grid_argmin,
    value_gap_from_gauge,
    window_check,
)
from epigauge.constructions import build_sharpness_pair, build_strictness_pair

from helpers import clamp_to_band, random_analytic, random_point_in_ball


# ---------------------------------------------------------------------------
# Window checks and value gaps
# ---------------------------------------------------------------------------


def test_window_flags_are_derived_from_stored_values():
    cyl = Cylinder(1.0, 1.0)
    f = Func.constant(0.30)
    g = Func.constant(0.37)
    check = window_check(f, g, Point.of(0.5), cyl)
    assert check.in_base and check.in_level
    outside = window_check(f, g, Point.of(2.0), cyl)
    assert not outside.in_base
    hot = window_check(Func.constant(1.5), g, Point.of(0.0), cyl)
    assert not hot.in_level


def test_value_gap_consistency_instance():
    cyl = Cylinder(1.0, 1.0)
    gauge = gauge_from_value_bound(0.1, cyl)
    check = window_check(Func.constant(0.30), Func.constant(0.37), Point.of(0.0), cyl)
    res = value_gap_from_gauge(gauge, check)
    assert res.valid
    assert res.bound == 0.1
    assert abs(check.f_value - check.g_value) <= res.bound


def test_value_gap_invalid_outside_level_window():
    # constants parked below the band: the conversion must refuse
    pair = build_strictness_pair(1.0, 2.0, 5.0)
    cyl = Cylinder(1.0, 2.0)
    gauge = GaugeBound(0.0, cyl, Provenance.ASSUMED, certified=False, detail="test")
    check = window_check(pair.f, pair.g, Point.of(0.0), cyl)
    res = value_gap_from_gauge(gauge, check)
    assert not res.valid
    assert res.bound is None
    assert "level window" in res.reason


def test_value_gap_invalid_outside_base_window():
    # both values in the band, the point outside the base ball: the base
    # window is named first
    cyl = Cylinder(1.0, 1.0)
    gauge = gauge_from_value_bound(0.1, cyl)
    check = window_check(Func.constant(0.5), Func.constant(0.5), Point.of(-1.5), cyl)
    assert check.in_level and not check.in_base
    res = value_gap_from_gauge(gauge, check)
    assert not res.valid and res.bound is None
    assert res.reason == "base window: ||x|| = 1.5 > R = 1.0"


def test_value_gap_zero_delta():
    cyl = Cylinder(1.0, 1.0)
    gauge = gauge_from_value_bound(0.0, cyl)
    f = Func.quadratic(0.5)
    check = window_check(f, f, Point.of(0.3), cyl)
    res = value_gap_from_gauge(gauge, check)
    assert res.valid and res.bound == 0.0


def test_value_gap_cylinder_mismatch_is_precondition_error():
    gauge = gauge_from_value_bound(0.1, Cylinder(1.0, 1.0))
    check = window_check(Func.constant(0.0), Func.constant(0.0), Point.of(0.0),
                         Cylinder(2.0, 1.0))
    with pytest.raises(PreconditionError):
        value_gap_from_gauge(gauge, check)


def test_value_control_randomized_small():
    # smaller sibling of the acceptance-scale suite
    rng = np.random.default_rng(314)
    for _ in range(500):
        R = float(rng.uniform(0.5, 2.0))
        M = float(rng.uniform(0.5, 3.0))
        delta = float(rng.uniform(0.0, 0.5))
        cyl = Cylinder(R, M)
        f = random_analytic(rng)
        g = clamp_to_band(random_analytic(rng), f, delta)
        gauge = gauge_from_value_bound(delta, cyl)
        x = random_point_in_ball(rng, R)
        check = window_check(f, g, x, cyl)
        res = value_gap_from_gauge(gauge, check)
        if res.valid:
            assert abs(check.f_value - check.g_value) <= res.bound + 1e-12


# ---------------------------------------------------------------------------
# Displacement bounds
# ---------------------------------------------------------------------------


def _simple_growth(mu: float, inf_value: float = 0.0) -> GrowthCert:
    return GrowthCert(mu=mu, radius=1.0, argmin_set=FinitePointSet((Point.of(0.0),)),
                      inf_value=inf_value)


def test_displacement_formula():
    cyl = Cylinder(1.0, 1.0)
    f = Func.quadratic(0.5)  # growth mu = 1 (equality)
    gauge = gauge_from_value_bound(0.01, cyl)
    cert = displacement_bound(gauge, _simple_growth(1.0), Point.of(0.0), Point.of(0.1),
                              f, f)
    assert cert.bound == 0.2
    assert cert.valid
    assert cert.slack == 0.0 and cert.bound_with_slack == cert.bound


def test_displacement_zero_delta():
    cyl = Cylinder(1.0, 1.0)
    f = Func.quadratic(0.5)
    gauge = gauge_from_value_bound(0.0, cyl)
    cert = displacement_bound(gauge, _simple_growth(1.0), Point.of(0.0), Point.of(0.0),
                              f, f)
    assert cert.bound == 0.0


def test_displacement_sharpness_family_with_oracle_argmin():
    fam = build_sharpness_pair(2.0, 0.02)
    cyl = Cylinder(1.0, 1.0)
    gauge = gauge_from_value_bound(fam.delta, cyl)
    h = 1e-3
    res = grid_argmin(fam.g, Grid(1, 1.0, h))
    xtilde = res.points[-1]  # extreme positive tie
    cert = displacement_bound(gauge, _simple_growth(fam.mu), Point.of(0.0), xtilde,
                              fam.f, fam.g, grid_step=h)
    assert cert.bound == 0.2
    assert cert.valid
    true_extreme = math.sqrt(2.0 * fam.delta / fam.mu)  # ~0.1414
    d = dist_to_set(xtilde, FinitePointSet((Point.of(0.0),)))
    assert abs(d - true_extreme) <= h
    assert d <= cert.bound_with_slack
    assert cert.slack == 2.0 * h


def test_displacement_rejects_fake_minimizer():
    cyl = Cylinder(1.0, 1.0)
    f = Func.quadratic(0.5)
    gauge = gauge_from_value_bound(0.01, cyl)
    with pytest.raises(PreconditionError):
        displacement_bound(gauge, _simple_growth(1.0), Point.of(0.5), Point.of(0.0), f, f)


def test_displacement_rejects_wrong_inf_value():
    cyl = Cylinder(1.0, 1.0)
    f = Func.quadratic(0.5)
    gauge = gauge_from_value_bound(0.01, cyl)
    growth = _simple_growth(1.0, inf_value=0.5)
    with pytest.raises(PreconditionError):
        displacement_bound(gauge, growth, Point.of(0.0), Point.of(0.0), f, f)


def test_displacement_invalid_when_window_fails():
    # target value at the surrogate minimizer escapes a tiny level band
    fam = build_sharpness_pair(2.0, 0.02)
    cyl = Cylinder(1.0, 0.001)
    gauge = gauge_from_value_bound(fam.delta, cyl)
    cert = displacement_bound(gauge, _simple_growth(fam.mu), Point.of(0.0),
                              Point.of(0.14), fam.f, fam.g)
    assert not cert.valid
    assert cert.window_checks[1].failing_condition() is not None


def test_valid_flag_reverifies_from_stored_values():
    fam = build_sharpness_pair(2.0, 0.02)
    cyl = Cylinder(1.0, 1.0)
    gauge = gauge_from_value_bound(fam.delta, cyl)
    cert = displacement_bound(gauge, _simple_growth(fam.mu), Point.of(0.0),
                              Point.of(0.1), fam.f, fam.g)
    assert cert.valid


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=0.1, max_value=10.0),
       st.floats(min_value=0.1, max_value=10.0))
def test_displacement_monotone_in_delta_antitone_in_mu(d1, d2, m1, m2):
    cyl = Cylinder(1.0, 10.0)
    f = Func.constant(0.0)
    x = Point.of(0.0)

    def bound(delta, mu):
        gauge = gauge_from_value_bound(delta, cyl)
        growth = GrowthCert(mu, 1.0, FinitePointSet((x,)), 0.0)
        return displacement_bound(gauge, growth, x, x, f, f).bound

    lo_d, hi_d = sorted((d1, d2))
    assert bound(lo_d, m1) <= bound(hi_d, m1)
    lo_m, hi_m = sorted((m1, m2))
    assert bound(d1, hi_m) <= bound(d1, lo_m)


def test_displacement_chain_replay():
    # The three inequalities of the displacement argument hold individually
    # (TAU slack: clipped evaluations round).
    cyl = Cylinder(1.0, 1.0)
    for mu, delta in ((2.0, 0.02), (1.0, 0.005), (0.5, 1e-4)):
        fam = build_sharpness_pair(mu, delta)
        h = 1e-3
        res = grid_argmin(fam.g, Grid(1, 1.0, h))
        xstar = Point.of(0.0)
        xtilde = res.points[-1]
        assert fam.g(xstar) <= fam.f(xstar) + delta + TAU
        assert fam.f(xtilde) <= fam.g(xtilde) + delta + TAU
        assert fam.g(xtilde) <= fam.g(xstar) + TAU  # lattice min <= value at origin
        assert fam.f(xtilde) - 0.0 <= 2 * delta + TAU


# ---------------------------------------------------------------------------
# Growth falsification
# ---------------------------------------------------------------------------


def test_falsify_equality_case_is_clean():
    mu = 2.0
    f = Func.quadratic(mu / 2.0)
    growth = _simple_growth(mu)
    report = falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), 0.05)
    assert not report.falsified
    assert (report.points_checked, report.violations) == (41, 0)
    assert (report.worst_point, report.worst_gap, report.worst_required) == (None, None, None)
    assert "NOT a certificate" in report.header


def test_falsify_quartic_against_claimed_quadratic():
    # x^4 < x^2/2 for 0 < |x| < 1/sqrt(2): 14 nodes a side at step 0.05.  The
    # shortfall x^2/2 - x^4 peaks at |x| = 0.5; -0.5 comes first.
    f = Func(lambda p: p.coords[0] ** 4, math.inf, 1, "x^4")
    growth = _simple_growth(1.0)
    report = falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), 0.05)
    assert report.falsified
    assert (report.points_checked, report.violations) == (41, 28)
    assert report.worst_point == Point.of(-0.5)
    assert report.worst_gap.hex() == (0.5 ** 4).hex()
    assert report.worst_required.hex() == (0.5 * 0.5 ** 2).hex()


def test_falsify_x_squared_with_mu_two_clean():
    f = Func.quadratic(1.0)
    report = falsify_quadratic_growth(f, _simple_growth(2.0), Cylinder(1.0, 1.0), 0.1)
    assert not report.falsified
    assert (report.points_checked, report.violations, report.worst_point) == (21, 0, None)


def test_falsify_catches_wrong_argmin_value():
    # x^2 + 1 grows as claimed, but the listed minimizer 0 sits 1 above inf 0
    f = Func(lambda p: p.coords[0] ** 2 + 1.0, math.inf, 1, "x^2+1")
    growth = _simple_growth(2.0, inf_value=0.0)  # claims inf 0, actual 1
    report = falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), 0.25)
    assert report.falsified
    assert (report.points_checked, report.violations) == (9, 1)
    assert (report.worst_point, report.worst_gap, report.worst_required) == \
        (Point.of(0.0), 1.0, 0.0)


def test_falsify_checks_a_listed_minimizer_off_the_lattice():
    # (x - 0.1)^2 with its minimizer 0.1 between the 0.25 nodes: the claim
    # holds with inf 0, and inf -1 puts the listed point 1 above it
    f = Func(lambda p: (p.coords[0] - 0.1) ** 2, math.inf, 1, "(x-0.1)^2")
    at = FinitePointSet((Point.of(0.1),))
    for inf_value, violations in ((0.0, 0), (-1.0, 1)):
        growth = GrowthCert(mu=2.0, radius=1.0, argmin_set=at, inf_value=inf_value)
        report = falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), 0.25)
        assert (report.points_checked, report.violations) == (10, violations)
    assert (report.worst_point, report.worst_gap) == (Point.of(0.1), 1.0)


def test_falsify_ball_argmin_plateau():
    fam = build_sharpness_pair(2.0, 0.02)
    plateau = ClosedBall(Point.of(0.0), fam.argmin_radius)
    growth = GrowthCert(mu=0.5, radius=1.0, argmin_set=plateau, inf_value=0.0)
    report = falsify_quadratic_growth(fam.g, growth, Cylinder(1.0, 1.0), 0.01)
    assert not report.falsified  # g does grow at least (0.5/2) d^2 off its plateau
    assert (report.points_checked, report.violations, report.worst_point) == (201, 0, None)


def test_falsify_keeps_one_block_of_temporaries():
    # x^2 against mu = 3 at step 1e-5: 200,001 points in four blocks, every
    # one but the origin a violation.  A list of them peaked at 67 MB; the
    # walk alone peaks near 2.7 MB and the reducer adds one block's
    # temporaries (about 2.2 MB), so 8 MB bounds the scan.
    growth = _simple_growth(3.0)
    tracemalloc.start()
    try:
        report = falsify_quadratic_growth(Func.quadratic(1.0), growth, Cylinder(1.0, 1.0), 1e-5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (report.points_checked, report.violations) == (200_001, 200_000)
    assert report.worst_point == Point.of(-1.0)
    assert peak < 8 * 2**20, peak


def test_growth_cert_validation():
    with pytest.raises(PreconditionError):
        GrowthCert(0.0, 1.0, FinitePointSet((Point.of(0.0),)), 0.0)
    with pytest.raises(PreconditionError):
        GrowthCert(1.0, -1.0, FinitePointSet((Point.of(0.0),)), 0.0)
    with pytest.raises(PreconditionError):
        GrowthCert(1.0, 1.0, ClosedBall(Point.of(0.0), -0.1), 0.0)
