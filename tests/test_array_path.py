"""Differential tests: the array path (``Func.values``, ``Grid.blocks`` and
the block kernels) against the scalar path (``Func.__call__`` at each
point of ``Grid.points()``).

Floats are compared by ``float.hex`` so that a ``-0.0`` in place of a
``0.0`` counts as a difference.  The reference loops below are the
point-by-point scans: same order, same reductions, same error messages.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest

from epigauge import (
    TAU,
    CertificateViolationError,
    ClosedBall,
    Cover,
    CoverageError,
    Cylinder,
    DomainError,
    EnvelopeCert,
    EvaluationError,
    FinitePointSet,
    Func,
    GrowthCert,
    Grid,
    InconsistentCoverError,
    LevelGrid,
    LocalCert,
    Point,
    ToleranceField,
    aggregate_cover,
    dist_to_set,
    envelope_width_bound,
    falsify_quadratic_growth,
    gauge_from_tolerance_field,
    grid_argmin,
    grid_gauge,
    grid_sup_abs_diff,
    pointwise_discrepancy,
    validate_bracketing,
)
from epigauge.constructions import (
    _auto_peak,
    build_impossibility_pair,
    build_sharpness_pair,
    build_strictness_pair,
)
from epigauge.oracle import BLOCK_CELLS, dist_to_set_rows

from helpers import clamp_to_band, random_analytic, random_point_in_ball


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def rows(points) -> np.ndarray:
    return np.array([p.coords for p in points], dtype=np.float64)


def outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``(exception type, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as e:  # noqa: BLE001 - the type is part of the comparison
        return (type(e), str(e))


# ---------------------------------------------------------------------------
# Point-by-point reference scans
# ---------------------------------------------------------------------------


def naive_values(f, points):
    return [f(p) for p in points]


def naive_sup(f, g, grid):
    m = 0.0
    for p in grid.points():
        d = abs(f(p) - g(p))
        if d > m:
            m = d
    return m


def naive_gauge(f, g, grid, lgrid):
    m = 0.0
    for p in grid.points():
        fa, fb = f(p), g(p)
        for t in lgrid.values:
            d = pointwise_discrepancy(fa, fb, t)
            if d > m:
                m = d
    return m


def naive_argmin(f, grid, tie_tol=TAU):
    vals = [(p, f(p)) for p in grid.points()]
    best = math.inf
    for _, v in vals:
        if v < best:
            best = v
    return tuple(p for p, v in vals if v <= best + tie_tol), best


def naive_width(cert, cyl, step):
    width = 0.0
    for p in Grid(cert.dim, cyl.R, step).points():
        w = cert.upper(p) - cert.lower(p)
        if w < 0:
            raise CertificateViolationError(
                f"envelope width negative ({w!r}) at {p}: certificate inconsistent")
        if w > width:
            width = w
    return width


def naive_tolerance(tf, step_x, step_t):
    best = 0.0
    for p in Grid(tf.dim, tf.cylinder.R, step_x).points():
        for t in LevelGrid(tf.cylinder.M, step_t).values:
            v = float(tf.eta(p, t))
            if not math.isfinite(v) or v < 0:
                raise CertificateViolationError(
                    f"tolerance field returned {v!r} at ({p}, t={t!r}); "
                    f"a vertical tolerance must be finite and >= 0")
            if v > best:
                best = v
    return best


def naive_crossing(lower, upper, points, what):
    for p in points:
        lo, hi = lower(p), upper(p)
        if lo > hi:
            raise CertificateViolationError(
                f"{what} inconsistent: lower={lo!r} > upper={hi!r} at {p}")


# ---------------------------------------------------------------------------
# Families, dims 1-3
# ---------------------------------------------------------------------------


def family_zoo(dim: int) -> dict[str, Func]:
    c = Point(tuple(0.25 for _ in range(dim)))
    quad = Func.quadratic(1.25, dim=dim)
    bump = Func.bump(c, 0.5, 0.75)
    neg_bump = Func.bump(c, 0.5, -2.0)
    aff = Func.affine(tuple(0.3 - 0.7 * k for k in range(dim)), -0.125)
    return {
        "constant": Func.constant(0.1, dim=dim),
        "constant_neg_zero": Func.constant(-0.0, dim=dim),
        "quadratic": quad,
        "quadratic_neg": Func.quadratic(-3.0, dim=dim),
        "affine": aff,
        "bump": bump,
        "bump_neg_amp": neg_bump,
        "clamp_shift": Func.clamp_shift(quad, 0.3),
        "clamp_shift_neg": Func.clamp_shift(neg_bump, -0.5),
        "scaled": Func.scaled(aff, -1.5),
        "scaled_zero": Func.scaled(quad, -0.0),
        "sum2": Func.sum_of(quad, bump),
        "sum2_zero": Func.sum_of(Func.constant(-0.0, dim=dim), Func.constant(-0.0, dim=dim)),
        "sum1": Func.sum_of(Func.constant(-0.0, dim=dim)),
        "sum3": Func.sum_of(quad, neg_bump, aff),
        "sum_cancel": Func.sum_of(Func.constant(1e16, dim=dim), Func.constant(1.0, dim=dim),
                                  Func.constant(-1e16, dim=dim)),
        "sum_cancel_quad": Func.sum_of(Func.scaled(quad, 1e16), Func.constant(1.0, dim=dim),
                                       Func.scaled(quad, -1e16), bump),
        "nested": Func.clamp_shift(Func.scaled(Func.sum_of(quad, bump, aff), 2.0), 0.05),
    }


def sample_points(dim: int) -> list[Point]:
    rng = np.random.default_rng(400 + dim)
    pts = list(Grid(dim, 1.0, 0.125).points())
    pts += [random_point_in_ball(rng, 1.5, dim) for _ in range(300)]
    c = 0.25
    for k in range(dim):  # exactly on the bump footprint and on the unit sphere
        for s in (0.5, -0.5):
            coords = [c] * dim
            coords[k] = c + s
            pts.append(Point(tuple(coords)))
        unit = [0.0] * dim
        unit[k] = 1.0
        pts.append(Point(tuple(unit)))
    return pts


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_every_family_matches_scalar_bits(dim):
    pts = sample_points(dim)
    X = rows(pts)
    for name, f in family_zoo(dim).items():
        assert f.batch is not None, name
        assert hexes(f.values(X)) == hexes(naive_values(f, pts)), name


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bump_is_exact_zero_on_its_footprint(dim):
    f = Func.bump(Point(tuple(0.25 for _ in range(dim))), 0.5, 0.75)
    pts = sample_points(dim)[-3 * dim:]
    on_rim = [p for p in pts if p.dist(Point(tuple(0.25 for _ in range(dim)))) == 0.5]
    assert len(on_rim) == 2 * dim
    assert hexes(f.values(rows(on_rim))) == [(0.0).hex()] * len(on_rim)


def test_sum_of_matches_fsum():
    terms = (1e16, 1.0, -1e16)
    f = Func.sum_of(*(Func.constant(t) for t in terms))
    X = np.zeros((4, 1))
    assert hexes(f.values(X)) == [math.fsum(terms).hex()] * 4
    assert f.values(X)[0] == 1.0  # sequential addition would give 0.0
    pair = Func.sum_of(Func.constant(-0.0), Func.constant(-0.0))
    assert hexes(pair.values(X)) == [math.fsum([-0.0, -0.0]).hex()] * 4


def test_domain_override_keeps_batch():
    base = Func.sum_of(Func.quadratic(1.0), Func.constant(2.0))
    f = dataclasses.replace(base, domain_radius=0.5, label="F")
    assert f.batch is not None
    pts = [Point.of(x) for x in (-0.5, 0.0, 0.25, 0.5)]
    assert hexes(f.values(rows(pts))) == hexes(naive_values(f, pts))


def test_user_callable_takes_fallback():
    rng = np.random.default_rng(11)
    ref = Func.quadratic(1.0)
    f = clamp_to_band(random_analytic(rng), ref, 0.1)
    assert f.batch is None
    pts = list(Grid(1, 1.0, 0.01).points())
    assert hexes(f.values(rows(pts))) == hexes(naive_values(f, pts))
    wrapped = Func.scaled(Func.clamp_shift(f, 0.05), 3.0)  # family over a user callable
    assert hexes(wrapped.values(rows(pts))) == hexes(naive_values(wrapped, pts))


# ---------------------------------------------------------------------------
# Blocks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim,step", [(1, 0.01), (2, 1.0 / 32), (3, 0.125), (3, 0.3)])
def test_blocks_are_lattice_order_and_bounded(dim, step):
    grid = Grid(dim, 1.0, step)
    kmax = int(math.floor((1.0 / step) * (1.0 + TAU) + TAU))
    bound = 1.0 * (1.0 + TAU) + TAU
    axis = [k * step for k in range(-kmax, kmax + 1) if abs(k * step) <= bound]
    assert hexes(grid.axis) == hexes(axis)
    expected = [c for c in itertools.product(axis, repeat=dim)
                if dim == 1 or math.sqrt(sum(x * x for x in c)) <= bound]
    levels = 4096
    blocks = list(grid.blocks(cells_per_point=levels))
    assert len(blocks) > 1
    assert all(len(X) <= BLOCK_CELLS // levels for X in blocks)
    coords = [tuple(r) for X in blocks for r in X.tolist()]
    assert [hexes(c) for c in coords] == [hexes(c) for c in expected]
    assert [p.coords for p in grid.points()] == expected


# ---------------------------------------------------------------------------
# Kernels against reference loops
# ---------------------------------------------------------------------------


def kernel_pairs():
    rng = np.random.default_rng(2024)
    pairs = []
    for dim in (1, 2):
        for _ in range(6):
            pairs.append((random_analytic(rng, dim), random_analytic(rng, dim)))
        f = random_analytic(rng, dim)
        pairs.append((f, clamp_to_band(random_analytic(rng, dim), f, 0.2)))
    fam = build_sharpness_pair(2.0, 0.02)
    pairs.append((fam.f, fam.g))
    strict = build_strictness_pair(1.0, 2.0, 5.0)
    pairs.append((strict.f, strict.g))
    imp = build_impossibility_pair(1.0, (Point.of(-0.5), Point.of(0.5)), 5.0)
    pairs.append((imp.f, imp.g))
    return pairs


def test_oracle_kernels_match_reference_loops():
    for f, g in kernel_pairs():
        grid = Grid(f.dim, 1.0, 0.01 if f.dim == 1 else 0.05)
        lgrid = LevelGrid(2.0, 0.1)
        assert grid_sup_abs_diff(f, g, grid).hex() == naive_sup(f, g, grid).hex()
        assert grid_gauge(f, g, grid, lgrid).hex() == naive_gauge(f, g, grid, lgrid).hex()
        for h in (f, g):
            result = grid_argmin(h, grid, threads=3)
            points, value = naive_argmin(h, grid)
            assert result.value.hex() == value.hex()
            assert result.points == points


def test_certificate_scans_match_reference_loops():
    rng = np.random.default_rng(77)
    for dim in (1, 2, 3):
        cyl = Cylinder(1.0, 1.5)
        target = random_analytic(rng, dim)
        lower = Func.sum_of(target, Func.constant(-0.05, dim=dim))
        upper = Func.sum_of(target, Func.bump(Point.origin(dim), 0.5, 0.2),
                            Func.constant(0.05, dim=dim))
        cert = EnvelopeCert(1.0, lower, upper)
        step = 0.02 if dim == 1 else 0.1
        assert envelope_width_bound(cert, cyl, step).delta.hex() == \
            naive_width(cert, cyl, step).hex()
        candidate = clamp_to_band(random_analytic(rng, dim), target, 0.1)
        report = validate_bracketing(cert, candidate, cyl, step)
        expected = [(p, lower(p), candidate(p), upper(p))
                    for p in Grid(dim, 1.0, step).points()
                    if not (lower(p) <= candidate(p) <= upper(p))]
        assert report.failures == tuple(expected) and expected
        for tf in (ToleranceField.constant(0.25, cyl, dim),
                   ToleranceField.radial_affine(0.01, 0.3, cyl, dim),
                   ToleranceField(lambda p, t: 0.01 + abs(t) * p.norm(), cyl, dim)):
            assert gauge_from_tolerance_field(tf, step, 0.25).delta.hex() == \
                naive_tolerance(tf, step, 0.25).hex()


def overlapping_cover(dim: int) -> Cover:
    certs = []
    for k in range(dim):
        for s in (-1.0, 1.0):
            c = [0.0] * dim
            c[k] = s * 0.5
            shift = 0.01 * (k + 1) * s
            lo = Func.affine(tuple(0.2 + 0.1 * j for j in range(dim)), -0.05 + shift)
            up = Func.sum_of(Func.affine(tuple(0.2 + 0.1 * j for j in range(dim)), shift),
                             Func.constant(0.04, dim=dim))
            certs.append(LocalCert(Point(tuple(c)), 0.9, lo, up))
    return Cover(tuple(certs))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cover_aggregation_matches_reference(dim):
    agg = aggregate_cover(overlapping_cover(dim))
    cert = agg.to_envelope_cert(1.0)
    pts = list(Grid(dim, 1.0, 0.05 if dim < 3 else 0.125).points())
    X = rows(pts)
    assert hexes(cert.lower.values(X)) == hexes(agg.lower(p) for p in pts)
    assert hexes(cert.upper.values(X)) == hexes(agg.upper(p) for p in pts)
    cyl = Cylinder(1.0, 1.0)
    step = 0.05 if dim < 3 else 0.125
    assert envelope_width_bound(cert, cyl, step).delta.hex() == \
        naive_width(cert, cyl, step).hex()


def test_constructions_scans_match_reference():
    queries = (Point.of(-0.3, 0.2), Point.of(0.4, -0.1), Point.of(0.0, 0.6))
    grid = Grid(2, 1.0, 1.0 / 16)
    best_key, best_p = None, None
    for p in grid.points():
        key = (min(p.dist(q) for q in queries), -p.norm())
        if best_key is None or key > best_key:
            best_key, best_p = key, p
    assert _auto_peak(1.0, queries, 1.0 / 16) == best_p

    X = rows(grid.points())
    for s in (FinitePointSet(queries), ClosedBall(Point.of(0.1, 0.2), 0.3)):
        assert hexes(dist_to_set_rows(X, s)) == hexes(dist_to_set(p, s) for p in grid.points())


def test_falsification_matches_reference():
    f = Func.sum_of(Func.quadratic(1.0, dim=2), Func.bump(Point.of(0.5, 0.0), 0.3, -0.2))
    growth = GrowthCert(2.0, 1.0, FinitePointSet((Point.of(0.0, 0.0),)), 0.0)
    report = falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), 0.05)
    expected = []
    for p in Grid(2, 1.0, 0.05).points():
        gap = f(p) - 0.0
        d = dist_to_set(p, growth.argmin_set)
        required = 0.5 * 2.0 * d * d
        if gap < required - TAU:
            expected.append(("growth", p, gap.hex(), required.hex()))
    got = [(v.kind, v.point, v.observed_gap.hex(), v.required.hex()) for v in report.violations]
    assert got == expected and expected
    assert report.points_checked == len(list(Grid(2, 1.0, 0.05).points()))


# ---------------------------------------------------------------------------
# Error parity: first failing point in lattice order, same type and message
# ---------------------------------------------------------------------------


def test_values_error_parity():
    huge = Func.affine((1e308,), 0.0, label="huge")
    inner = Func.quadratic(1.0, domain_radius=0.5, label="inner")
    cases = [
        # DomainError: outside the ball, and from a nested term
        (Func.quadratic(1.0, domain_radius=1.0, label="q"), [0.5, 1.0, 1.5, 2.0]),
        (dataclasses.replace(Func.sum_of(inner, Func.constant(1.0)), domain_radius=2.0),
         [0.25, 0.75, 1.0]),
        # EvaluationError: non-finite value
        (Func.quadratic(1e300, label="big"), [1.0, 1e5, 1e6]),
        (Func.scaled(huge, 10.0), [0.5, 1.0, -1.0]),
        (Func(lambda p: math.nan if p.coords[0] > 0.5 else 1.0, label="user"), [0.0, 0.6, 0.7]),
        # PreconditionError from pos_part (base - shift overflows)
        (Func.clamp_shift(huge, -1.7e308), [0.0, 1.0, 2.0]),
        # PreconditionError from pos_part inside a bump (distance overflows)
        (Func.bump(Point.of(0.0), 0.5, 1.0, label="far"), [0.0, 1e200]),
        # OverflowError from fsum's intermediate overflow
        (Func.sum_of(huge, huge), [0.5, 1.0]),
    ]
    for f, xs in cases:
        pts = [Point.of(x) for x in xs]
        got = outcome(f.values, rows(pts))
        want = outcome(naive_values, f, pts)
        assert got[0] is want[0] and got[1] == want[1], (f.label, got, want)
        assert got[0] != "ok"


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_domain_ball_boundary_parity(dim):
    f = Func.sum_of(Func.quadratic(1.0, dim=dim), Func.constant(1.0, dim=dim),
                    label="unit-ball")
    f = dataclasses.replace(f, domain_radius=1.0)
    inside = []
    for k in range(dim):
        for r in (1.0, 1.0 + 5e-13, -1.0):
            c = [0.0] * dim
            c[k] = r
            inside.append(Point(tuple(c)))
    assert hexes(f.values(rows(inside))) == hexes(naive_values(f, inside))
    outside = inside + [Point(tuple([1.0 + 1e-11] + [0.0] * (dim - 1)))] + inside
    got = outcome(f.values, rows(outside))
    want = outcome(naive_values, f, outside)
    assert got[0] is DomainError and got == want


def test_kernel_error_is_first_in_lattice_order():
    f = Func(lambda p: math.nan if p.coords[0] > 0.5 else 0.0, label="late")
    g = Func.affine((1e308,), 0.0, label="early")  # overflows for |x| > 1
    grid = Grid(1, 2.0, 0.25)
    got = outcome(grid_sup_abs_diff, f, g, grid)
    want = outcome(naive_sup, f, g, grid)
    assert got[0] is EvaluationError and got == want
    assert "early" in got[1]


def test_tolerance_violation_parity():
    cyl = Cylinder(1.0, 1.0)
    fields = [
        ToleranceField.radial_affine(-0.1, 0.2, cyl, 2),
        ToleranceField(lambda p, t: 0.1 - p.norm() * abs(t), cyl, 2),
        ToleranceField(lambda p, t: math.inf if t > 0.5 else 0.0, cyl, 2),
    ]
    for tf in fields:
        got = outcome(gauge_from_tolerance_field, tf, 0.125, 0.25)
        want = outcome(naive_tolerance, tf, 0.125, 0.25)
        assert got[0] is CertificateViolationError and got[1] == want[1]


def test_envelope_violation_parity():
    # The validation lattice (step 1/16) misses the bump; the scan (1/64) hits it.
    lower = Func.bump(Point.of(0.03125), 0.02, 1.0, label="spike")
    upper = Func.constant(0.0)
    cert = EnvelopeCert(1.0, lower, upper)
    cyl = Cylinder(1.0, 1.0)
    got = outcome(envelope_width_bound, cert, cyl, 1.0 / 64)
    want = outcome(naive_width, cert, cyl, 1.0 / 64)
    assert got[0] is CertificateViolationError and got[1] == want[1]

    crossed = Func.affine((1.0,), -0.5)
    got = outcome(EnvelopeCert, 1.0, crossed, Func.constant(0.0))
    want = outcome(naive_crossing, crossed, Func.constant(0.0),
                   Grid(1, 1.0, 1.0 / 16).points(), "envelope certificate")
    assert got[0] is CertificateViolationError and got[1] == want[1]

    center = Point.of(0.25, -0.5)
    offsets = Grid(2, 0.5, 0.5 / 16).points()
    shifted = [Point(tuple(c + o for c, o in zip(center.coords, off.coords)))
               for off in offsets]
    lo = Func.affine((1.0, 0.0), -0.5)
    got = outcome(LocalCert, center, 0.5, lo, Func.constant(0.0, dim=2))
    want = outcome(naive_crossing, lo, Func.constant(0.0, dim=2), shifted, "local certificate")
    assert got[0] is CertificateViolationError and got[1] == want[1]


def test_cover_error_parity():
    gap_cover = Cover((
        LocalCert(Point.of(-0.6), 0.3, Func.constant(-1.0), Func.constant(1.0)),
        LocalCert(Point.of(0.6), 0.5, Func.constant(-1.0), Func.constant(1.0)),
    ))
    crossing_cover = Cover((
        LocalCert(Point.of(-0.4), 0.7, Func.constant(0.5), Func.constant(1.0)),
        LocalCert(Point.of(0.4), 0.7, Func.constant(-1.0), Func.constant(0.0)),
    ))
    for cover, kind in ((gap_cover, CoverageError), (crossing_cover, InconsistentCoverError)):
        agg = aggregate_cover(cover)
        got = outcome(agg.to_envelope_cert, 1.0)
        want = outcome(naive_values, lambda p: agg.evaluate(p),
                       Grid(1, 1.0, 1.0 / 16).points())
        assert got[0] is kind and got[1] == want[1]


def test_signed_zero_ties_resolve_in_lattice_order():
    # The first minimum met in lattice order is +0.0, later ones are -0.0.
    f = Func(lambda p: 0.0 if p.coords[0] < 0.5 else -0.0, label="zeros")
    for step in (0.01, 1e-5):  # one block, several blocks
        grid = Grid(1, 1.0, step)
        result = grid_argmin(f, grid)
        points, value = naive_argmin(f, grid)
        assert result.value.hex() == value.hex() == (0.0).hex()
        assert result.points == points

    # Aggregated envelopes take the first extremum in certificate order.
    cover = Cover((
        LocalCert(Point.of(-0.2), 0.9, Func.constant(0.0), Func.constant(-0.0)),
        LocalCert(Point.of(0.2), 0.9, Func.constant(-0.0), Func.constant(0.0)),
    ))
    agg = aggregate_cover(cover)
    cert = agg.to_envelope_cert(1.0)
    pts = list(Grid(1, 1.0, 0.05).points())
    assert hexes(cert.lower.values(rows(pts))) == hexes(agg.lower(p) for p in pts)
    assert hexes(cert.upper.values(rows(pts))) == hexes(agg.upper(p) for p in pts)


def test_threads_argument_is_ignored():
    fam = build_sharpness_pair(2.0, 0.02)
    grid = Grid(1, 1.0, 1e-3)
    assert grid_argmin(fam.g, grid, threads=1) == grid_argmin(fam.g, grid, threads=8)
    with pytest.raises(DomainError):
        grid_sup_abs_diff(Func.quadratic(1.0, domain_radius=0.5), fam.g, grid)
