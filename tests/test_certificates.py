"""Certificate patterns: construction validation, width bounds,
cover aggregation, tolerance fields."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from epigauge import (
    TAU,
    CertificateViolationError,
    CoverageError,
    Cover,
    Cylinder,
    EnvelopeCert,
    Func,
    Grid,
    InconsistentCoverError,
    LocalCert,
    Point,
    PreconditionError,
    Provenance,
    ToleranceField,
    aggregate_cover,
    envelope_width_bound,
    gauge_from_tolerance_field,
    grid_sup_abs_diff,
)

from helpers import random_polyquad

CYL = Cylinder(1.0, 1.0)


def const(v: float) -> Func:
    return Func.constant(v)


# ---------------------------------------------------------------------------
# EnvelopeCert construction
# ---------------------------------------------------------------------------


def test_envelope_rejects_crossed_envelopes():
    with pytest.raises(CertificateViolationError):
        EnvelopeCert(1.0, lower=const(1.0), upper=const(0.0))


def test_envelope_rejects_region_beyond_domains():
    small = dataclasses.replace(Func.quadratic(1.0), domain_radius=0.5)
    with pytest.raises(PreconditionError):
        EnvelopeCert(1.0, lower=small, upper=const(10.0))


def test_envelope_rejects_dimension_mismatch():
    with pytest.raises(PreconditionError):
        EnvelopeCert(1.0, lower=Func.constant(0.0, dim=1), upper=Func.constant(1.0, dim=2))


# ---------------------------------------------------------------------------
# envelope_width_bound
# ---------------------------------------------------------------------------


def test_width_bound_constant_envelopes():
    cert = EnvelopeCert(1.0, lower=const(0.0), upper=const(0.2), grid_exact=True)
    b = envelope_width_bound(cert, CYL, 0.1)
    assert b.delta == 0.2
    assert b.provenance is Provenance.ENVELOPE
    assert b.certified


def test_width_bound_zero_when_envelopes_coincide():
    q = Func.quadratic(1.0)
    cert = EnvelopeCert(1.0, lower=q, upper=q)
    b = envelope_width_bound(cert, CYL, 0.1)
    assert b.delta == 0.0


def test_width_bound_quadratic_band():
    # constant width field 0.1 around x^2 (dense-grid supremum, frozen)
    lo = Func(lambda p: p.coords[0] ** 2 - 0.05, math.inf, 1)
    hi = Func(lambda p: p.coords[0] ** 2 + 0.05, math.inf, 1)
    cert = EnvelopeCert(1.0, lower=lo, upper=hi)
    b = envelope_width_bound(cert, CYL, 0.01)
    assert abs(b.delta - 0.1) <= TAU
    assert not b.certified
    assert "grid estimate" in b.detail


def test_width_bound_rejects_cylinder_beyond_region():
    cert = EnvelopeCert(0.5, lower=const(0.0), upper=const(1.0))
    with pytest.raises(PreconditionError):
        envelope_width_bound(cert, CYL, 0.1)


def test_width_bound_nonnegative_and_zero_iff_equal_on_grid():
    rng = np.random.default_rng(31)
    for _ in range(10):
        g = random_polyquad(rng)
        width = abs(float(rng.uniform(0.0, 0.5)))
        lo = Func(lambda p, _g=g, _w=width: _g(p) - _w, math.inf, 1)
        hi = Func(lambda p, _g=g, _w=width: _g(p) + _w, math.inf, 1)
        b = envelope_width_bound(EnvelopeCert(1.0, lo, hi), CYL, 0.1)
        assert b.delta >= 0.0
        if width == 0.0:
            assert b.delta == 0.0


def test_chaining_value_gap_bounded_by_width_exactly():
    # Any two sandwiched functions differ by at most the width, pointwise in
    # floating point (monotone rounding), hence on shared grids exactly.
    rng = np.random.default_rng(99)
    for _ in range(10):
        truth = random_polyquad(rng)
        w1 = float(rng.uniform(0.0, 0.3))
        w2 = float(rng.uniform(0.0, 0.3))
        lo = Func(lambda p, _w=w1: truth(p) - _w, math.inf, 1)
        hi = Func(lambda p, _w=w2: truth(p) + _w, math.inf, 1)
        cert = EnvelopeCert(1.0, lower=lo, upper=hi)
        cand_a = Func(lambda p: max(lo(p), min(hi(p), truth(p))), math.inf, 1)
        cand_b = lo
        grid_step = 0.05
        width = envelope_width_bound(cert, CYL, grid_step).delta
        observed = grid_sup_abs_diff(cand_a, cand_b, Grid(1, CYL.R, grid_step))
        assert observed <= width


# ---------------------------------------------------------------------------
# Cover aggregation
# ---------------------------------------------------------------------------


def _two_cert_cover() -> Cover:
    # D1 = [-1, 0.5] with envelopes [0, 1]; D2 = [0, 1.5] with [0.2, 0.8]
    c1 = LocalCert(Point.of(-0.25), 0.75, lower=const(0.0), upper=const(1.0))
    c2 = LocalCert(Point.of(0.75), 0.75, lower=const(0.2), upper=const(0.8))
    return Cover((c1, c2))


def test_aggregate_overlap_tightens_to_inner_band():
    agg = aggregate_cover(_two_cert_cover())
    assert agg.evaluate(Point.of(0.25)) == (0.2, 0.8)


def test_aggregate_single_active_region_is_identity():
    agg = aggregate_cover(_two_cert_cover())
    assert agg.evaluate(Point.of(-0.75)) == (0.0, 1.0)


def test_aggregate_single_cert_is_identity():
    c = LocalCert(Point.of(0.0), 0.5, lower=const(-1.0), upper=const(2.0))
    agg = aggregate_cover(Cover((c,)))
    assert agg.evaluate(Point.of(0.25)) == (-1.0, 2.0)
    assert agg.active(Point.of(0.5)) == (0,)  # boundary counts as active


def test_aggregate_outside_covered_region_is_hard_error():
    agg = aggregate_cover(_two_cert_cover())
    with pytest.raises(CoverageError):
        agg.evaluate(Point.of(1.6))


def test_inconsistent_cover_surfaces_not_clamped():
    c1 = LocalCert(Point.of(0.0), 0.5, lower=const(1.0), upper=const(2.0))
    c2 = LocalCert(Point.of(0.25), 0.5, lower=const(-1.0), upper=const(0.5))
    agg = aggregate_cover(Cover((c1, c2)))
    with pytest.raises(InconsistentCoverError):
        agg.evaluate(Point.of(0.25))


def test_empty_cover_rejected():
    with pytest.raises(PreconditionError):
        Cover(())


def _random_cover_around(rng: np.random.Generator, truth: Func,
                         n_certs: int) -> Cover:
    certs = []
    for _ in range(n_certs):
        center = Point.of(float(rng.uniform(-1.0, 1.0)))
        radius = float(rng.uniform(0.2, 0.8))
        a_lo = float(rng.uniform(0.0, 0.5))
        b_lo = float(rng.uniform(0.0, 1.0))
        a_hi = float(rng.uniform(0.0, 0.5))
        b_hi = float(rng.uniform(0.0, 1.0))

        def lo_eval(p, _a=a_lo, _b=b_lo, _c=center):
            return truth(p) - (_a + _b * (p.coords[0] - _c.coords[0]) ** 2)

        def hi_eval(p, _a=a_hi, _b=b_hi, _c=center):
            return truth(p) + (_a + _b * (p.coords[0] - _c.coords[0]) ** 2)

        certs.append(LocalCert(center, radius,
                               lower=Func(lo_eval, math.inf, 1),
                               upper=Func(hi_eval, math.inf, 1)))
    return Cover(tuple(certs))


def test_aggregation_tightens_and_preserves_sandwich():
    # Tightening: wherever cert i is active the aggregate is no looser.
    # Preservation: if every local cert brackets the truth, so does the
    # aggregate, at every sampled point of the covered region.
    rng = np.random.default_rng(2024)
    for _ in range(10):
        truth = random_polyquad(rng)
        cover = _random_cover_around(rng, truth, int(rng.integers(1, 6)))
        agg = aggregate_cover(cover)
        for _ in range(1000):
            i = int(rng.integers(0, len(cover.certs)))
            cert = cover.certs[i]
            offset = float(rng.uniform(-cert.radius, cert.radius))
            x = Point.of(cert.center.coords[0] + offset)
            lo, hi = agg.evaluate(x)
            assert lo >= cert.lower(x)
            assert hi <= cert.upper(x)
            assert lo <= truth(x) <= hi


def test_cover_to_envelope_cert_requires_full_coverage():
    agg = aggregate_cover(_two_cert_cover())
    cert = agg.to_envelope_cert(1.0)  # [-1, 1.5] covers the unit ball
    b = envelope_width_bound(cert, CYL, 0.25)
    assert b.delta == 1.0  # width of D1's band where only it is active
    gap_cover = Cover((
        LocalCert(Point.of(-0.75), 0.25, lower=const(0.0), upper=const(1.0)),
        LocalCert(Point.of(0.75), 0.25, lower=const(0.0), upper=const(1.0)),
    ))
    with pytest.raises(CoverageError):
        aggregate_cover(gap_cover).to_envelope_cert(1.0)


def test_cover_envelopes_evaluate_through_the_aggregation():
    agg = aggregate_cover(_two_cert_cover())
    cert = agg.to_envelope_cert(1.0)
    assert cert.lower.eval == agg.lower and cert.upper.eval == agg.upper


# ---------------------------------------------------------------------------
# Tolerance fields
# ---------------------------------------------------------------------------


def test_tolerance_field_constant():
    tf = ToleranceField(Func(lambda p: 0.05), CYL, grid_exact=True)
    b = gauge_from_tolerance_field(tf, 0.1)
    assert b.delta == 0.05
    assert b.provenance is Provenance.TOLERANCE_FIELD
    assert b.certified


def test_tolerance_field_zero():
    tf = ToleranceField(Func(lambda p: 0.0), CYL, grid_exact=True)
    assert gauge_from_tolerance_field(tf, 0.1).delta == 0.0


def test_a_closed_form_zero_tolerance_certifies_a_positive_zero():
    # A scanned field's sup starts at +0.0; the closed forms read the same.
    for tf in (ToleranceField.constant(-0.0, CYL), ToleranceField.constant(0.0, CYL),
               ToleranceField.radial_affine(-0.0, -0.0, CYL),
               ToleranceField.radial_affine(-0.0, 0.0, CYL)):
        closed = gauge_from_tolerance_field(tf, 0.25)
        scanned = gauge_from_tolerance_field(dataclasses.replace(tf, grid_exact=True), 0.25)
        assert "closed form" in closed.detail and "closed form" not in scanned.detail
        assert closed.delta.hex() == scanned.delta.hex() == (0.0).hex()
        assert closed.certified and scanned.certified


def test_tolerance_field_radial_affine():
    # 0.01 * (1 + ||x||/R): maximum at the base boundary (frozen: 0.02)
    tf = ToleranceField(Func(lambda p: 0.01 + 0.01 * (p.norm() / CYL.R)), CYL)
    b = gauge_from_tolerance_field(tf, 0.05)
    assert b.delta == 0.02
    assert not b.certified


def test_tolerance_field_negative_is_violation():
    tf = ToleranceField(Func(lambda p: -1e-9), CYL)
    with pytest.raises(CertificateViolationError):
        gauge_from_tolerance_field(tf, 0.5)


def test_tolerance_field_takes_eta_as_a_func():
    with pytest.raises(PreconditionError, match="^eta must be a Func, got function$"):
        ToleranceField(lambda p: 0.05, CYL)
    assert ToleranceField(Func.constant(0.05, dim=2), CYL).dim == 2
