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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epigauge import (
    TAU,
    AggregatedEnvelope,
    ArgminResult,
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
    OracleCapError,
    Point,
    PreconditionError,
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
)
from epigauge.cli import main
from epigauge.constructions import (
    _auto_peak,
    build_impossibility_pair,
    build_sharpness_pair,
    build_strictness_pair,
)
from epigauge import oracle
from epigauge.core import (_pos_part_rows, _read_only, ball_mask, distances, evaluated,
                           in_closed_ball, last_block_memo, lattice_point, norms, pos_part)
from epigauge.oracle import BLOCK_CELLS, dist_to_set_rows, grid_pair_scan
from epigauge.stability import GrowthScan

from helpers import axis_of, clamp_to_band, pair_scan, random_analytic, random_point_in_ball
from test_golden_output import COVER_1D, PROBLEMS


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


def naive_growth(f, growth, R, step):
    """The growth check point by point: ``(points checked, violations,
    worst row)`` over the lattice of the ball of ``min(R, growth.radius)``
    in lattice order, then the listed minimizers in that ball that are no
    lattice point; the worst row, the largest shortfall met first, as
    ``(coordinate hexes, gap hex, required hex)``."""
    radius = min(R, growth.radius)
    points = list(Grid(f.dim, radius, step).points())
    if isinstance(growth.argmin_set, FinitePointSet):
        lattice = set(points)
        points += [p for p in growth.argmin_set.points
                   if in_closed_ball(p, radius) and p not in lattice]
    count, worst, largest = 0, None, -math.inf
    for p in points:
        gap = f(p) - growth.inf_value
        d = dist_to_set(p, growth.argmin_set)
        required = 0.5 * growth.mu * d * d
        if gap < required - TAU:
            shortfall = required - gap
        elif d <= TAU and abs(gap) > TAU:
            shortfall = abs(gap)
        else:
            continue
        count += 1
        if shortfall > largest:
            largest, worst = shortfall, (hexes(p.coords), gap.hex(), required.hex())
    return len(points), count, worst


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


def naive_tolerance(tf, step):
    best = 0.0
    for p in Grid(tf.dim, tf.cylinder.R, step).points():
        v = float(tf.eta.eval(p))
        if not math.isfinite(v) or v < 0:
            raise CertificateViolationError(
                f"tolerance field returned {v!r} at {p}; "
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
        # ||x - c|| / rho overflows off the center: amplitude * 0.0 there
        "bump_subnormal_rho": Func.bump(c, 1e-310, 0.75),
        "bump_subnormal_rho_neg_amp": Func.bump(c, 1e-310, -2.0),
        "clamp_shift": Func.clamp_shift(quad, 0.3),
        "clamp_shift_neg": Func.clamp_shift(neg_bump, -0.5),
        # base - shift rounds to -inf from a finite base: clipped to +0.0
        "clamp_shift_to_neg_inf": Func.clamp_shift(Func.affine((0.0,) * dim, -1e308), 1e308),
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
def test_blocks_are_lattice_order_and_bounded(dim, step, monkeypatch):
    grid = Grid(dim, 1.0, step)
    kmax = int(math.floor((1.0 / step) * (1.0 + TAU) + TAU))
    bound = 1.0 * (1.0 + TAU) + TAU
    axis = [k * step for k in range(-kmax, kmax + 1) if abs(k * step) <= bound]
    assert hexes(axis_of(Grid(1, 1.0, step))) == hexes(axis)
    expected = [c for c in itertools.product(axis, repeat=dim)
                if dim == 1 or math.sqrt(sum(x * x for x in c)) <= bound]
    block = BLOCK_CELLS // 4096
    monkeypatch.setattr(oracle, "BLOCK_CELLS", block)
    blocks = list(grid.blocks())
    assert len(blocks) > 1
    assert all(len(X) <= block for X in blocks)
    coords = [tuple(r) for X in blocks for r in X.tolist()]
    assert [hexes(c) for c in coords] == [hexes(c) for c in expected]
    assert [p.coords for p in grid.points()] == expected


def divmod_blocks(grid: Grid, block: int = BLOCK_CELLS) -> list[np.ndarray]:
    """The reference lattice construction: unravel every cube node of a
    block of ``block`` nodes by ``divmod``, then keep the rows with
    ``norms(X) <= bound``."""
    kmax = int(math.floor((grid.radius / grid.step) * (1.0 + TAU) + TAU))
    bound = grid.radius * (1.0 + TAU) + TAU
    axis = np.arange(-kmax, kmax + 1) * grid.step
    axis = axis[np.abs(axis) <= bound]
    size, step = len(axis) ** grid.dim, block
    out = []
    for start in range(0, size, step):
        idx = np.arange(start, min(start + step, size))
        X = np.empty((len(idx), grid.dim))
        for k in range(grid.dim - 1, -1, -1):
            idx, r = np.divmod(idx, len(axis))
            X[:, k] = axis[r]
        if grid.dim > 1:
            X = X[norms(X) <= bound]
        if len(X):
            out.append(X)
    return out


# (dim, radius, step): radius on the lattice, then off it, each with a cube
# in one block and one over BLOCK_CELLS nodes.  The ball of radius 0.5 - 1e-10
# just misses the lattice points of norm 0.5, such as (0.3, 0.4).
DIFFERENTIAL_LATTICES = [
    (1, 1.0, 0.01), (1, 0.7, 0.03), (1, 1.0, 1e-5), (1, 0.7, 1.3e-5),
    (2, 1.0, 0.1), (2, 0.5 - 1e-10, 0.1), (2, 1.0, 1.0 / 128), (2, 1.0, 0.0077),
    (3, 1.0, 0.125), (3, 0.9, 0.07), (3, 1.0, 0.05), (3, 1.0, 0.048),
]


# Each lattice at the block size and at a 21st of it (the block size is
# read when ``blocks`` is called).
@pytest.mark.parametrize("divisor", [1, 21])
@pytest.mark.parametrize("dim,radius,step", DIFFERENTIAL_LATTICES)
def test_blocks_match_the_divmod_construction(dim, radius, step, divisor, monkeypatch):
    block = BLOCK_CELLS // divisor
    monkeypatch.setattr(oracle, "BLOCK_CELLS", block)
    grid = Grid(dim, radius, step)
    got = list(grid.blocks())
    want = divmod_blocks(grid, block)
    assert len(got) == len(want)
    for X, Y in zip(got, want):
        assert X.dtype == np.float64 and X.shape == Y.shape and X.tobytes() == Y.tobytes()
        assert not X.flags.writeable
    # each block comes from at most ``block`` cube nodes
    n = len(axis_of(Grid(1, radius, step)))
    nodes = [np.ravel_multi_index(tuple((np.rint(X / step).astype(np.intp) + n // 2).T),
                                  (n,) * dim) for X in got]
    assert all(v[-1] - v[0] < block for v in nodes)
    assert all(a[-1] < b[0] for a, b in zip(nodes, nodes[1:]))
    if grid.cube_size() > block:
        assert len(got) > 1


# ---------------------------------------------------------------------------
# Kernels against reference loops
# ---------------------------------------------------------------------------


def kernel_pairs():
    rng = np.random.default_rng(2024)
    pairs = []
    for dim in (1, 2, 3):
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


def assert_pass_matches_kernels(f, g, grid, M):
    """``grid_pair_scan`` and the argmin summary it feeds against the three
    kernels they replace, bit for bit."""
    gauge, sup, argmin = pair_scan(f, g, grid, M)
    assert gauge.hex() == grid_gauge(f, g, grid, M).hex()
    assert sup.hex() == grid_sup_abs_diff(f, g, grid).hex()
    expected = grid_argmin(g, grid)
    assert argmin.value.hex() == expected.value.hex()
    assert argmin.count == len(expected.rows)
    assert hexes(argmin.first) == hexes(expected.rows[0])


def test_oracle_kernels_match_reference_loops():
    for f, g in kernel_pairs():
        grid = Grid(f.dim, 1.0, {1: 0.01, 2: 0.05, 3: 0.125}[f.dim])
        lgrid = LevelGrid(2.0, 0.1)
        assert grid_sup_abs_diff(f, g, grid).hex() == naive_sup(f, g, grid).hex()
        assert grid_gauge(f, g, grid, lgrid.M).hex() == naive_gauge(f, g, grid, lgrid).hex()
        for h in (f, g):
            result = grid_argmin(h, grid, threads=3)
            points, value = naive_argmin(h, grid)
            assert result.value.hex() == value.hex()
            assert result.points == points
        assert_pass_matches_kernels(f, g, grid, lgrid.M)


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
        for tf in (ToleranceField.constant(0.25, cyl, dim),
                   ToleranceField.radial_affine(0.01, 0.3, cyl, dim),
                   ToleranceField(Func(lambda p: 0.01 + 1.5 * p.norm(), dim=dim), cyl),
                   ToleranceField(Func(lambda p: 0.01 + 1.5 * p.norm(), dim=dim,
                                       batch=lambda X: 0.01 + 1.5 * norms(X)), cyl),
                   ToleranceField(Func(lambda p: 0.3 + p.coords[0] * p.coords[0], dim=dim,
                                       batch=lambda X: 0.3 + X[:, 0] * X[:, 0]), cyl)):
            assert gauge_from_tolerance_field(tf, step).delta.hex() == \
                naive_tolerance(tf, step).hex()


@st.composite
def closed_form_fields(draw, radius):
    """A ``constant`` or ``radial_affine`` field on a cylinder of base
    radius ``radius`` in dims 1-3: base >= 0, and a slope of either sign
    with base + slope >= 0."""
    dim = draw(st.integers(1, 3))
    cyl = Cylinder(radius, 1.0)
    base = draw(st.floats(0.0, 4.0))
    if draw(st.booleans()):
        return ToleranceField.constant(base, cyl, dim)
    slope = draw(st.floats(-base, 4.0))
    return ToleranceField.radial_affine(base, slope, cyl, dim)


@st.composite
def rim_lattices(draw):
    """A field and a base step whose lattice has a node of norm exactly R:
    a power-of-two step and R an integer multiple of it, so every node
    and its norm are exact."""
    step = draw(st.sampled_from((1.0, 0.5, 0.25, 1.0 / 64)))
    n = draw(st.integers(1, 4 if step == 1.0 / 64 else 8))
    return draw(closed_form_fields(n * step)), step


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rim_lattices())
def test_closed_form_tolerance_is_the_lattice_max_on_a_rim_lattice(case):
    tf, step = case
    assert any(p.norm() == tf.cylinder.R for p in Grid(tf.dim, tf.cylinder.R, step).points())
    bound = gauge_from_tolerance_field(tf, step)
    assert bound.certified and "closed form" in bound.detail
    assert bound.delta.hex() == naive_tolerance(tf, step).hex()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.floats(0.1, 2.0).flatmap(
    lambda R: st.tuples(closed_form_fields(R), st.floats(R / 6, 2 * R))))
@example((ToleranceField.radial_affine(0.0, 1.0, Cylinder(0.3, 1.0), 1), 0.1))
def test_closed_form_tolerance_bounds_every_node_in_the_base_ball(case):
    # Nodes whose norm rounds past R (0.30000000000000004 at step 0.1 on
    # R = 0.3) are in the lattice by the ball slack but outside B_R, which
    # is all the closed form bounds; naive_tolerance reads them too.
    tf, step = case
    R = tf.cylinder.R
    bound = gauge_from_tolerance_field(tf, step)
    inside = [tf.eta(p) for p in Grid(tf.dim, R, step).points() if p.norm() <= R]
    assert bound.certified and bound.delta >= max(inside)


def test_closed_form_tolerance_evaluates_no_cell():
    def no_call(*args):
        raise AssertionError("a closed-form field was evaluated")

    for dim in (1, 2, 3):
        cyl = Cylinder(1.0, 1.0)
        for tf, sup in ((ToleranceField.constant(0.25, cyl, dim), 0.25),
                        (ToleranceField.radial_affine(0.5, 0.25, cyl, dim), 0.75),
                        (ToleranceField.radial_affine(0.5, -0.25, cyl, dim), 0.5)):
            object.__setattr__(tf, "eta", Func(no_call, dim=dim, batch=no_call))
            bound = gauge_from_tolerance_field(tf, 0.125)
            assert bound.delta == sup and bound.certified
            with pytest.raises(OracleCapError):  # the cap still comes first
                gauge_from_tolerance_field(tf, 1e-9)
            with pytest.raises(AssertionError, match="was evaluated"):
                # dataclasses.replace drops the range, so the copy is scanned
                gauge_from_tolerance_field(dataclasses.replace(tf), 0.125)


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
    best_key, best_p = None, None
    for p in Grid(2, 1.0, 1.0 / 64).points():  # the search lattice of step R/64
        key = (min(p.dist(q) for q in queries), -p.norm())
        if best_key is None or key > best_key:
            best_key, best_p = key, p
    assert _auto_peak(1.0, queries) == best_p

    grid = Grid(2, 1.0, 1.0 / 16)
    X = rows(grid.points())
    for s in (FinitePointSet(queries), ClosedBall(Point.of(0.1, 0.2), 0.3)):
        assert hexes(dist_to_set_rows(X, s)) == hexes(dist_to_set(p, s) for p in grid.points())


def growth_outcome(report):
    """A report as ``naive_growth`` gives it."""
    worst = None if report.worst_point is None else (
        hexes(report.worst_point.coords), report.worst_gap.hex(), report.worst_required.hex())
    return report.points_checked, report.violations, worst


def test_falsification_matches_reference():
    f = Func.sum_of(Func.quadratic(1.0, dim=2), Func.bump(Point.of(0.5, 0.0), 0.3, -0.2))
    growth = GrowthCert(2.0, 1.0, FinitePointSet((Point.of(0.0, 0.0),)), 0.0)
    report = falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), 0.05)
    want = naive_growth(f, growth, 1.0, 0.05)
    assert growth_outcome(report) == want
    assert report.falsified and want[0] == len(list(Grid(2, 1.0, 0.05).points()))


GROWTH_CLAIMS = [  # (mu, growth radius, minimizer set, inf_value) at the centre c
    lambda c: (1.0, 1.0, FinitePointSet((c,)), 0.0),  # holds: no violation
    lambda c: (2.0, 1.0, FinitePointSet((c,)), 0.0),
    lambda c: (2.5, 0.6, FinitePointSet((c,)), 0.0),
    lambda c: (1.5, 0.7, FinitePointSet((c, Point(tuple(-x for x in c.coords)))), 0.01),
    lambda c: (2.0, 1.0, FinitePointSet((Point((0.0,) * c.dim),)), -0.05),
    lambda c: (0.5, 0.8, ClosedBall(c, 0.2), 0.0),
    lambda c: (3.0, 0.45, ClosedBall(c, 0.1), 0.02),
]


@pytest.mark.parametrize("dim,step", [(1, 0.01), (2, 0.05), (3, 0.125)])
@pytest.mark.parametrize("claim", range(len(GROWTH_CLAIMS)))
@pytest.mark.parametrize("block", [None, 7])
def test_growth_check_paths_agree(dim, step, claim, block, monkeypatch):
    # ||x - c||^2 plus a bump, with c off the lattice: the walk, the reducer
    # certify feeds from its pair scan of B_R, and the point loop agree.
    c = Point(tuple(0.013 * (k + 1) for k in range(dim)))
    f = Func.sum_of(Func.quadratic(1.0, dim=dim),
                    Func.affine(tuple(-2.0 * x for x in c.coords), c.norm() ** 2),
                    Func.bump(Point((0.4,) + (0.0,) * (dim - 1)), 0.3, -0.05))
    mu, radius, argmin_set, inf_value = GROWTH_CLAIMS[claim](c)
    growth = GrowthCert(mu, radius, argmin_set, inf_value)
    if block is not None:
        monkeypatch.setattr(oracle, "BLOCK_CELLS", block)
    want = naive_growth(f, growth, 1.0, step)
    assert growth_outcome(falsify_quadratic_growth(f, growth, Cylinder(1.0, 1.0), step)) == want
    scan = GrowthScan(growth, 1.0)
    grid_pair_scan(f, Func.constant(0.0, dim=dim), Grid(dim, 1.0, step), 1.0, f_reader=scan)
    assert growth_outcome(scan.report(f, step)) == want


# ---------------------------------------------------------------------------
# Error parity: first failing point in lattice order, same type and message
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.floats(), min_size=1, max_size=40))
@example([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, -1.0, 2.5])
def test_pos_part_rows_is_pos_part_or_nan_where_it_raises(values):
    got = _pos_part_rows(np.array(values, dtype=np.float64)).tolist()
    for r, v in zip(values, got):
        try:
            want = pos_part(r)
        except PreconditionError:
            assert math.isnan(v)
        else:
            assert v.hex() == want.hex()


def test_values_error_parity():
    huge = Func.affine((1e308,), 0.0, label="huge")
    neg = Func.affine((-1e308,), 0.0, label="neg")
    inner = dataclasses.replace(Func.quadratic(1.0, label="inner"), domain_radius=0.5)
    cases = [
        # DomainError: outside the ball, and from a nested term
        (dataclasses.replace(Func.quadratic(1.0, label="q"), domain_radius=1.0),
         [0.5, 1.0, 1.5, 2.0]),
        (dataclasses.replace(Func.sum_of(inner, Func.constant(1.0)), domain_radius=2.0),
         [0.25, 0.75, 1.0]),
        # EvaluationError: non-finite value
        (Func.quadratic(1e300, label="big"), [1.0, 1e5, 1e6]),
        (Func.scaled(huge, 10.0), [0.5, 1.0, -1.0]),
        (Func(lambda p: math.nan if p.coords[0] > 0.5 else 1.0, label="user"), [0.0, 0.6, 0.7]),
        # EvaluationError: base - shift overflows to +inf
        (Func.clamp_shift(huge, -1.7e308), [0.0, 1.0, 2.0]),
        # EvaluationError: a bump's distance overflows
        (Func.bump(Point.of(0.0), 0.5, 1.0, label="far"), [0.0, 1e200]),
        # EvaluationError: fsum's intermediate overflow makes the sum NaN
        (Func.sum_of(huge, huge), [0.5, 1.0]),
        # ... and with three terms, which fsum adds row by row
        (Func.sum_of(huge, huge, Func.constant(1.0)), [0.5, 1.0]),
        # EvaluationError: a term of a three-term sum reaches inf
        (Func.sum_of(huge, neg, huge), [0.5, 1.0, 1.5, 2.0]),
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


def evaluated_rows(X: np.ndarray, *funcs: Func):
    """The values ``evaluated`` yields on the block ``X``, one hex tuple per
    row, and the ``(type, message)`` it raises after them (or None)."""
    got = []
    try:
        for Y, values in evaluated([X], *funcs):
            assert np.array_equal(Y, X[:len(Y)])
            got += zip(*(hexes(v) for v in values))
    except Exception as error:
        return got, (type(error), str(error))
    return got, None


def scalar_rows(X: np.ndarray, *funcs: Func):
    """The same from the loop ``for x in rows: for f in funcs: f(x)``."""
    got = []
    try:
        for row in X.tolist():
            x = Point(tuple(row))
            got.append(tuple(hexes(f(x) for f in funcs)))
    except Exception as error:
        return got, (type(error), str(error))
    return got, None


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinate_raises_at_its_row_after_the_cut_block(bad):
    X = np.array([[0.1 * i, 0.05 - 0.02 * i] for i in range(9)])
    X[5, 1] = bad
    # constant batches stay finite at the bad row: only the coordinate check sees it
    funcs = (Func.constant(2.0, dim=2), Func.constant(-1.0, dim=2))
    got = evaluated_rows(read_only(X), *funcs)
    assert got == scalar_rows(X, *funcs)
    assert len(got[0]) == 5 and got[1][0] is PreconditionError


@pytest.mark.parametrize("writeable", [False, True])
def test_batch_returning_a_shared_array_is_replayed_not_written(writeable):
    shared = np.array([1.0, math.nan, 3.0, math.inf])
    shared.setflags(write=writeable)
    replayed = []

    def scalar(p: Point) -> float:
        replayed.append(p.coords[0])
        return p.coords[0]

    f = Func(scalar, label="shared", batch=lambda X: shared)
    X = read_only([[1.0], [2.0], [3.0], [4.0]])
    for _ in range(2):
        assert hexes(f.values(X)) == hexes([1.0, 2.0, 3.0, 4.0])
    assert replayed == [2.0, 4.0, 2.0, 4.0]
    assert hexes(shared) == hexes([1.0, math.nan, 3.0, math.inf])
    assert shared.flags.writeable == writeable


def test_a_read_only_batch_array_is_never_written():
    own = read_only([1.0, 2.0, 3.0, 4.0])
    f = Func(lambda p: 4.0 * p.coords[0], label="own", batch=lambda X: own)
    # g's batch sends its last two rows to the scalar call, which raises at the last
    g = Func(lambda p: p.coords[0] if p.coords[0] < 0.9 else math.inf, label="replayed",
             batch=lambda X: np.where(X[:, 0] > 0.6, math.nan, X[:, 0]))
    X = read_only([[0.25], [0.5], [0.75], [1.0]])
    got = evaluated_rows(X, f, g)  # a write into ``own`` would raise ValueError
    assert got == scalar_rows(X, f, g)
    assert len(got[0]) == 3 and got[1][0] is EvaluationError
    assert hexes(own) == hexes([1.0, 2.0, 3.0, 4.0]) and not own.flags.writeable
    v = f.values(X)
    assert v.flags.writeable and hexes(v) == hexes(own)


def test_finite_domain_sends_out_of_domain_rows_to_the_scalar_call():
    f = dataclasses.replace(Func.quadratic(2.0, dim=2, label="disc"), domain_radius=1.0)
    g = Func.affine((1.0, -1.0), 0.25)  # an infinite domain
    X = read_only([[0.0, 0.5], [0.6, 0.6], [0.9, 0.9], [0.1, 0.0]])  # row 2 is outside
    got = evaluated_rows(X, g, f)
    assert got == scalar_rows(X, g, f)
    assert len(got[0]) == 2 and got[1][0] is DomainError


def test_kernel_error_is_first_in_lattice_order():
    f = Func(lambda p: math.nan if p.coords[0] > 0.5 else 0.0, label="late")
    g = Func.affine((1e308,), 0.0, label="early")  # overflows for |x| > 1
    grid = Grid(1, 2.0, 0.25)
    got = outcome(grid_sup_abs_diff, f, g, grid)
    want = outcome(naive_sup, f, g, grid)
    assert got[0] is EvaluationError and got == want
    assert "early" in got[1]
    # The one pass raises what grid_gauge raises, also mid-lattice in a later block.
    assert outcome(grid_pair_scan, f, g, grid, 1.0) == outcome(grid_gauge, f, g, grid, 1.0) \
        == want
    late = _steps([(0.5, 2.0, math.inf)], batched=True)
    for f, g in ((Func.quadratic(1.0), late), (late, Func.quadratic(1.0))):
        grid = Grid(1, 1.0, 1e-5)
        got = outcome(grid_pair_scan, f, g, grid, 1.0)
        assert got[0] is EvaluationError and got == outcome(grid_gauge, f, g, grid, 1.0)
        assert "0.50001" in got[1]


def test_overflowing_differences_match_the_scalar_scans():
    # Finite values whose difference rounds to inf: no RuntimeWarning escapes.
    f = Func.quadratic(1e308)
    g = Func.scaled(f, -1.0)
    grid, lgrid, cyl = Grid(1, 1.0, 0.5), LevelGrid(1.0, 0.5), Cylinder(1.0, 1.0)
    assert grid_sup_abs_diff(f, g, grid) == naive_sup(f, g, grid) == math.inf
    assert grid_gauge(f, g, grid, lgrid.M) == naive_gauge(f, g, grid, lgrid) == 1e308
    assert_pass_matches_kernels(f, g, grid, lgrid.M)
    assert naive_width(EnvelopeCert(1.0, g, f), cyl, 0.5) == math.inf
    with pytest.raises(PreconditionError, match="must be finite"):
        envelope_width_bound(EnvelopeCert(1.0, g, f), cyl, 0.5)


def test_tolerance_violation_parity():
    cyl = Cylinder(1.0, 1.0)
    fields = [
        ToleranceField.radial_affine(-0.1, 0.2, cyl, 2),
        ToleranceField(Func(lambda p: 0.1 - p.norm(), dim=2), cyl),
        ToleranceField(Func(lambda p: math.inf if p.coords[0] > 0.5 else 0.0, dim=2), cyl),
        # batches with a NaN or negative row
        ToleranceField(Func(lambda p: math.nan if p.norm() > 0.5 else 0.1, dim=2,
                            batch=lambda X: np.where(norms(X) > 0.5, math.nan, 0.1)), cyl),
        ToleranceField(Func(lambda p: 0.1 - p.norm(), dim=2, batch=lambda X: 0.1 - norms(X)),
                       cyl),
        ToleranceField(Func(lambda p: -1.0 if p.coords[1] > 0.5 else 0.0, dim=2,
                            batch=lambda X: np.where(X[:, 1] > 0.5, -1.0, 0.0)), cyl),
    ]
    for tf in fields:
        got = outcome(gauge_from_tolerance_field, tf, 0.125)
        want = outcome(naive_tolerance, tf, 0.125)
        assert got[0] is CertificateViolationError and got[1] == want[1]


@st.composite
def tolerance_scan_cases(draw):
    """A callable tolerance field ``base + slope * ||x||`` in dims 1-3 with
    up to two nodes set to a bad (or signed-zero) value, and a batch that
    is absent, exact, or NaN at some rows so that ``eta`` replays them."""
    dim = draw(st.integers(1, 3))
    R = draw(st.sampled_from((0.5, 1.0, 1.5)))
    step = draw(st.sampled_from({1: (0.01, 0.1, 0.3), 2: (0.1, 0.25), 3: (0.25, 0.5)}[dim]))
    nodes = [p.coords for p in Grid(dim, R, step).points()]
    base, slope = draw(st.floats(0.0, 2.0)), draw(st.floats(-1.0, 1.0))
    bad = draw(st.dictionaries(st.sampled_from(nodes), st.sampled_from(
        (-1.0, -5e-324, -0.0, math.inf, -math.inf, math.nan)), max_size=2))
    mode = draw(st.sampled_from(("none", "exact", "holes")))
    holes = draw(st.sets(st.sampled_from(nodes), max_size=5)) if mode == "holes" else set()

    def eta(p):
        return bad.get(p.coords, base + slope * p.norm())

    def batch(X):
        v = base + slope * norms(X)
        for i, row in enumerate(X.tolist()):
            v[i] = math.nan if tuple(row) in holes else bad.get(tuple(row), v[i])
        return v

    tf = ToleranceField(Func(eta, dim=dim, batch=None if mode == "none" else batch),
                        Cylinder(R, 1.0), grid_exact=draw(st.booleans()))
    return tf, step


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tolerance_scan_cases())
def test_tolerance_scan_matches_the_scalar_loop(case):
    tf, step = case
    got = outcome(gauge_from_tolerance_field, tf, step)
    want = outcome(naive_tolerance, tf, step)
    if want[0] == "ok":
        assert got[0] == "ok" and got[1].delta.hex() == want[1].hex()
        assert got[1].certified == tf.grid_exact
    else:
        assert got == want and got[0] is CertificateViolationError


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1), st.floats(0.1, 3.0),
       st.sampled_from((0.1, 0.3, 1.0)))
def test_tolerance_of_the_clipped_difference_is_the_oracle_gauge(dim, seed, M, s):
    """eta(x) = |max(f, -M) - max(g, -M)| certifies exactly the oracle gauge
    on the same base lattice, which is the full level sweep's max."""
    rng = np.random.default_rng(seed)
    f, g = random_analytic(rng, dim), random_analytic(rng, dim)
    cyl = Cylinder(1.0, M)
    tf = ToleranceField(Func(
        lambda p: abs(max(f(p), -M) - max(g(p), -M)), dim=dim,
        batch=lambda X: np.abs(np.maximum(f.values(X), -M) - np.maximum(g.values(X), -M))),
        cyl, grid_exact=True)
    h = {1: 0.05, 2: 0.125, 3: 0.25}[dim]
    grid = Grid(dim, cyl.R, h)
    bound = gauge_from_tolerance_field(tf, h)
    assert bound.certified
    assert bound.delta.hex() == grid_gauge(f, g, grid, M).hex()
    _, swept = level_sweep_gauge(f, g, grid, LevelGrid(M, s))
    assert bound.delta >= swept


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


def _steps(pieces, batched):
    """``value`` on ``lo < x < hi`` for the first matching ``(lo, hi,
    value)``, else -1.0; with or without a ``batch``."""
    def f(p):
        for lo, hi, value in pieces:
            if lo < p.coords[0] < hi:
                return value
        return -1.0

    def batch(X):
        x, out = X[:, 0], np.full(len(X), -1.0)
        for lo, hi, value in reversed(pieces):
            out = np.where((lo < x) & (x < hi), value, out)
        return out

    return Func(f, label="steps", batch=batch if batched else None)


# Both inside one scan block.  The validation lattice (step 1/16) meets
# every piece; the width scan's pieces lie between its nodes.
EARLY, LATE = (-0.76, -0.49), (0.49, 1.01)
FINE_EARLY, FINE_LATE = (-0.75, -0.75 + 1 / 32), (0.5, 0.5 + 1 / 32)


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("first", ["crossing", "error"])
def test_crossing_and_error_in_one_block_meet_in_lattice_order(first, batched):
    crossing, error = (EARLY, LATE) if first == "crossing" else (LATE, EARLY)
    lower = _steps([(*crossing, 1.0), (*error, math.inf)], batched)
    upper = Func.constant(0.0)
    want_type = CertificateViolationError if first == "crossing" else EvaluationError

    got = outcome(EnvelopeCert, 1.0, lower, upper)
    want = outcome(naive_crossing, lower, upper, Grid(1, 1.0, 1.0 / 16).points(),
                   "envelope certificate")
    assert got[0] is want_type and got == want

    got = outcome(LocalCert, Point.of(0.0), 1.0, lower, upper)
    want = outcome(naive_crossing, lower, upper, Grid(1, 1.0, 1.0 / 16).points(),
                   "local certificate")
    assert got[0] is want_type and got == want

    crossing, error = (FINE_EARLY, FINE_LATE) if first == "crossing" else (FINE_LATE, FINE_EARLY)
    cert = EnvelopeCert(1.0, _steps([(*crossing, 1.0), (*error, math.inf)], batched), upper)
    cyl = Cylinder(1.0, 1.0)
    got = outcome(envelope_width_bound, cert, cyl, 1.0 / 64)
    want = outcome(naive_width, cert, cyl, 1.0 / 64)
    assert got[0] is want_type and got == want


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
        *_, argmin = pair_scan(Func.constant(-0.0), f, grid, 1.0)
        assert argmin.value.hex() == value.hex()
        assert (argmin.count, hexes(argmin.first)) == (len(result.rows), hexes(result.rows[0]))

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
        grid_sup_abs_diff(dataclasses.replace(Func.quadratic(1.0), domain_radius=0.5),
                          fam.g, grid)


# ---------------------------------------------------------------------------
# Lowest-level gauge scan and array-valued argmin ties
# ---------------------------------------------------------------------------


def level_sweep_gauge(f, g, grid, lgrid):
    """The full base x level scan: ``pointwise_discrepancy`` at every
    lattice point and every level, as one ``(n, L)`` array, and its max
    under the scan's rule (start at ``0.0``, replace on ``>``)."""
    pts = list(grid.points())
    disc = np.array([[pointwise_discrepancy(f(p), g(p), t) for t in lgrid.values]
                     for p in pts])
    assert disc.shape == (len(pts), len(lgrid.values))
    return disc, max(0.0, float(disc.max()))


def gauge_pairs(dim: int):
    rng = np.random.default_rng(300 + dim)
    quad = Func.quadratic(1.0, dim=dim)
    pairs = [(random_analytic(rng, dim), random_analytic(rng, dim)) for _ in range(4)]
    f = random_analytic(rng, dim)
    pairs.append((f, clamp_to_band(random_analytic(rng, dim), f, 0.2)))
    pairs += [
        (quad, quad),  # lo == hi everywhere
        (quad, Func.clamp_shift(quad, 0.1)),  # ties on a plateau around the origin
        (Func.constant(0.1, dim=dim), Func.constant(0.2, dim=dim)),  # on lattice levels
        (Func.constant(-0.3, dim=dim), Func.constant(0.3, dim=dim)),  # on +/-M
        (Func.constant(0.0, dim=dim), Func.constant(-0.0, dim=dim)),  # signed zeros
        (Func.scaled(quad, -0.0), Func.constant(0.0, dim=dim)),
        (Func.constant(-5.0, dim=dim), Func.quadratic(-2.0, dim=dim)),  # below the band
        (Func.constant(5.0, dim=dim), Func.sum_of(quad, Func.constant(4.0, dim=dim))),
    ]
    return pairs


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lowest_level_gauge_matches_full_level_sweep(dim):
    grid = Grid(dim, 1.0, {1: 0.02, 2: 0.125, 3: 0.25}[dim])
    lgrids = (LevelGrid(0.3, 0.1), LevelGrid(2.0, 0.1), LevelGrid(1.0, 0.3),
              LevelGrid(4.5, 1.5))
    # The band endpoint is not on the lattice (3 * 0.1 overshoots it); the levels start at -M.
    assert lgrids[0].values[0] == -0.3
    for f, g in gauge_pairs(dim):
        for lgrid in lgrids:
            disc, expected = level_sweep_gauge(f, g, grid, lgrid)
            # The claim behind the scan: each row is nonincreasing in the level.
            assert np.all(np.diff(disc, axis=1) <= 0.0)
            assert grid_gauge(f, g, grid, lgrid.M).hex() == expected.hex()
            assert grid_gauge(g, f, grid, lgrid.M).hex() == expected.hex()


@st.composite
def band_cases(draw):
    """A level band ``(M, step_t)``, often one whose lattice overshoots
    ``M``, and two tables of 9 values below, at and above ``-M``."""
    M = draw(st.floats(0.01, 10.0))
    step_t = draw(st.one_of(st.integers(1, 40).map(lambda n: M / n),
                            st.floats(M / 40, 2 * M)))
    near = st.sampled_from([-M, math.nextafter(-M, -math.inf), math.nextafter(-M, math.inf)])
    value = st.one_of(near, st.floats(-3 * M, 3 * M), st.sampled_from([0.0, -0.0]))
    tables = [draw(st.lists(value, min_size=9, max_size=9)) for _ in range(2)]
    return M, step_t, tables


@settings(max_examples=200, deadline=None, derandomize=True)
@given(band_cases())
@example((0.3, 0.1, [[-5.0] * 9, [-0.3 + 0.1 * k for k in range(9)]]))
def test_level_grid_stays_in_the_band_and_the_gauge_reads_it(case):
    M, step_t, tables = case
    lgrid = LevelGrid(M, step_t)
    assert all(-M <= t <= M for t in lgrid.values)
    assert lgrid.values[0] == -M
    grid = Grid(1, 1.0, 0.25)  # 9 points, one per table entry
    points = [p.coords for p in grid.points()]
    f, g = (Func(lambda p, _v=dict(zip(points, table)): _v[p.coords]) for table in tables)
    _, expected = level_sweep_gauge(f, g, grid, lgrid)
    assert grid_gauge(f, g, grid, M).hex() == expected.hex()


@pytest.mark.parametrize("M", [0.0, -1.0, math.nan, math.inf])
def test_gauge_kernels_reject_a_band_half_width_that_is_not_finite_and_positive(M):
    grid, f = Grid(1, 1.0, 0.25), Func.quadratic(1.0)
    for kernel in (grid_gauge, grid_pair_scan):
        with pytest.raises(PreconditionError, match="level bound M must be finite and > 0"):
            kernel(f, f, grid, M)


def test_gauge_has_no_level_cap():
    # 200,001 base points, a lattice that 2,001 levels once took over the cap
    grid = Grid(1, 1.0, 1e-5)
    assert grid_gauge(Func.constant(0.0), Func.constant(0.3), grid, 1.0) == 0.3


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False),
       st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=6))
def test_discrepancy_is_nonincreasing_in_the_level(fa, fb, levels):
    disc = [pointwise_discrepancy(fa, fb, t) for t in sorted(levels)]
    assert all(a >= b >= 0.0 for a, b in zip(disc, disc[1:]))
    assert disc[0] <= abs(fa - fb)


def argmin_cases():
    fam = build_sharpness_pair(2.0, 0.5)
    zeros = Func(lambda p: 0.0 if p.coords[0] < 0.5 else -0.0, label="zeros")
    return [
        (fam.g, Grid(1, 1.0, 2e-5)),  # a plateau of ties across both blocks
        (zeros, Grid(1, 1.0, 0.01)),
        (Func.constant(0.5, dim=2), Grid(2, 1.0, 0.125)),  # every point ties
        (Func.clamp_shift(Func.quadratic(1.0, dim=2), 0.05), Grid(2, 1.0, 0.05)),
        (Func.clamp_shift(Func.quadratic(1.0, dim=3), 0.1), Grid(3, 1.0, 0.1)),
        (Func.quadratic(1.0, dim=3), Grid(3, 1.0, 0.3)),  # a single minimizer
    ]


def test_argmin_rows_are_lattice_ordered_float64_array():
    for f, grid in argmin_cases():
        result = grid_argmin(f, grid)
        points, value = naive_argmin(f, grid)
        assert result.rows.dtype == np.float64
        assert result.rows.shape == (len(points), grid.dim)
        assert not result.rows.flags.writeable
        assert hexes(result.rows.ravel()) == hexes(c for p in points for c in p.coords)
        assert result.value.hex() == value.hex()
        # ``points`` is built from ``rows``, bit for bit and in the same order.
        assert [hexes(p.coords) for p in result.points] == [hexes(r) for r in result.rows]
        assert result.points == points
        # Lattice order is lexicographic order of the coordinates.
        assert [tuple(r) for r in result.rows.tolist()] == sorted(map(tuple, result.rows.tolist()))


def test_argmin_result_equality():
    f, grid = argmin_cases()[3]
    a, b = grid_argmin(f, grid), grid_argmin(f, grid, threads=4)
    assert a == b and hash(a) == hash(b)
    assert a != ArgminResult(rows=a.rows[:-1], value=a.value)
    assert a != ArgminResult(rows=a.rows, value=a.value + 1.0)
    assert a != ArgminResult(rows=a.rows[::-1], value=a.value)
    assert a != grid_argmin(Func.constant(0.0, dim=1), Grid(1, 1.0, 0.5))
    assert a != a.points


@pytest.mark.parametrize("seed", range(6))
def test_argmin_ties_within_tau_across_many_blocks(monkeypatch, seed):
    # Values a fraction of TAU apart on a falling trend, over blocks of 8
    # points: block minima tie, fall by less and by more than TAU, and
    # climb again, so held blocks are kept, filtered again and dropped.
    step, n = 0.01, 201
    table = np.random.default_rng(seed).integers(0, 6, n) * 0.45 * TAU
    table -= np.arange(n) // 16 * [0.0, 0.7, 1.3, 0.2][seed % 4] * TAU

    def index(x):
        return np.rint((x + 1.0) / step).astype(int)

    f = Func(lambda p: float(table[index(p.coords[0])]), label="near-tau",
             batch=lambda X: table[index(X[:, 0])])
    monkeypatch.setattr(oracle, "BLOCK_CELLS", 8)
    grid = Grid(1, 1.0, step)
    assert len(list(grid.blocks())) == 26
    result = grid_argmin(f, grid)
    points, value = naive_argmin(f, grid)
    assert result.value.hex() == value.hex()
    assert hexes(result.rows.ravel()) == hexes(c for p in points for c in p.coords)
    assert _read_only(result.rows)  # nor the array it views


def test_argmin_holds_the_running_ties_and_at_most_one_block_more(monkeypatch):
    # A staircase falling to its one minimizer at x = 1, 66,667 points a
    # step: a scan that kept every block's lowest step would hold 1,474,230
    # rows for a single tie.
    def held(argmin) -> int:
        return sum(len(c[1]) for c in argmin.candidates)

    stair = Func(lambda p: -math.floor((p.coords[0] + 1.0) * 15.0), label="stair",
                 batch=lambda X: -np.floor((X[:, 0] + 1.0) * 15.0))
    add, result = oracle._TieList.add, oracle._TieList.result
    seen: list[np.ndarray] = []
    excess: list[int] = []
    final: list[tuple[int, int]] = []

    def tracking_add(self, X, v):
        add(self, X, v)
        seen.append(v.copy())
        running_ties = sum(int(np.count_nonzero(w <= self.best + TAU)) for w in seen)
        excess.append(held(self) - running_ties)

    def tracking_result(self):
        out = result(self)
        final.append((held(self), len(out.rows)))
        return out

    monkeypatch.setattr(oracle._TieList, "add", tracking_add)
    monkeypatch.setattr(oracle._TieList, "result", tracking_result)
    grid = Grid(1, 1.0, 1e-6)
    got = grid_argmin(stair, grid)
    monkeypatch.undo()
    assert len(seen) == 31 and sum(map(len, seen)) == 2_000_001
    assert max(excess) <= BLOCK_CELLS
    [(rows_held, ties)] = final
    assert rows_held <= ties + BLOCK_CELLS
    X = np.concatenate(list(grid.blocks()))
    v = stair.batch(X)
    assert got.value == v.min() == -30.0
    assert hexes(got.rows.ravel()) == hexes(X[v <= v.min() + TAU].ravel())


# ---------------------------------------------------------------------------
# Reuse: one aggregation per cover block, one build per one-block lattice
# ---------------------------------------------------------------------------


def count_rows(monkeypatch) -> list[int]:
    """Record the row count of every ``AggregatedEnvelope._rows`` call."""
    calls: list[int] = []
    original = AggregatedEnvelope._rows

    def counting(self, X):
        calls.append(len(X))
        return original(self, X)

    monkeypatch.setattr(AggregatedEnvelope, "_rows", counting)
    return calls


def block_sizes(grid: Grid) -> list[int]:
    return [len(X) for X in grid.blocks()]


@pytest.mark.parametrize("dim,step", [(1, 0.05), (1, 1e-5), (2, 0.05), (3, 0.125)])
def test_cover_scans_aggregate_once_per_block(monkeypatch, dim, step):
    agg = aggregate_cover(overlapping_cover(dim))
    calls = count_rows(monkeypatch)
    cert = agg.to_envelope_cert(1.0)
    assert calls == block_sizes(Grid(dim, 1.0, 1.0 / 16))
    calls.clear()
    cyl = Cylinder(1.0, 1.0)
    width = envelope_width_bound(cert, cyl, step)
    sizes = block_sizes(Grid(dim, 1.0, step))
    assert calls == sizes
    if step == 1e-5:
        assert len(sizes) > 1  # streamed blocks share the aggregation too
    monkeypatch.undo()
    assert width.delta.hex() == naive_width(cert, cyl, step).hex()


CERTIFY_PAIR = """\
dimension = {dim}
[function F]
family = quadratic
coeff = 1.0
[function B]
family = quadratic
coeff = 1.0
[function G]
family = clamp_shift
base = B
shift = 0.02
[cylinder]
R = 1.0
M = 1.0
[pair]
f = F
g = G
[tolerance]
family = constant
value = 0.02
grid_exact = true
[growth]
mu = 2.0
radius = 1.0
inf_value = 0.0
argmin_kind = points
argmin_points = {origin}
[grid]
level_step = 0.5
"""


@pytest.mark.parametrize("dim,step", [(1, 1e-3), (1, 1e-5), (2, 1.0 / 64)])
def test_certify_evaluates_its_pair_once_per_block(monkeypatch, tmp_path, capsys, dim, step):
    spec = tmp_path / "pair.prob"
    spec.write_text(CERTIFY_PAIR.format(dim=dim, origin=" ".join(["0.0"] * dim)))
    calls: dict[str, list[int]] = {"F": [], "G": []}
    original = Func._rows

    def counting(self, X):
        calls.get(self.label, []).append(len(X))
        return original(self, X)

    monkeypatch.setattr(Func, "_rows", counting)
    assert main(["certify", "--spec", str(spec), "--grid-step", repr(step)]) == 0
    monkeypatch.undo()
    assert "valid = true" in capsys.readouterr().out
    sizes = block_sizes(Grid(dim, 1.0, step))
    if step == 1e-5:
        assert len(sizes) > 1
    assert calls == {"F": sizes, "G": sizes}


def aggregated_halves(cert, X: np.ndarray) -> tuple[list[str], list[str]]:
    pts = [Point(tuple(r)) for r in X.tolist()]
    return (hexes(cert.lower.eval(p) for p in pts), hexes(cert.upper.eval(p) for p in pts))


def read_only(X: np.ndarray) -> np.ndarray:
    X = np.array(X, dtype=np.float64)
    X.setflags(write=False)
    return X


def test_shared_aggregation_matches_scalar_bits():
    agg = aggregate_cover(overlapping_cover(2))
    cert = agg.to_envelope_cert(1.0)
    rng = np.random.default_rng(606)
    A = read_only(rows(Grid(2, 1.0, 0.1).points()))
    B = read_only(rng.uniform(-0.7, 0.7, size=(50, 2)))
    C = read_only(rng.uniform(-0.7, 0.7, size=(50, 2)))  # the shape of B
    want = {id(X): aggregated_halves(cert, X) for X in (A, B, C)}

    def check(half, X):
        f = cert.lower if half == 0 else cert.upper
        assert hexes(f.values(X)) == want[id(X)][half]

    # alternating blocks, either half first, repeats of one half
    for half, X in [(0, A), (0, B), (1, A), (1, B), (1, A), (0, A), (0, A), (1, A),
                    (1, C), (0, B), (1, B), (0, C), (1, C), (0, C)]:
        check(half, X)

    # a writeable block, and a read-only view of one, changed in place
    # between the lower and the upper call
    for make_view in (False, True):
        W = np.array(B)
        X = W.view() if make_view else W
        if make_view:
            X.setflags(write=False)
        assert hexes(cert.lower.values(X)) == want[id(B)][0]
        W[:] = C
        assert hexes(cert.upper.values(X)) == want[id(C)][1]
        assert hexes(cert.lower.values(X)) == want[id(C)][0]


def test_last_block_memo_recomputes_a_writeable_block():
    calls: list[int] = []

    def total(X):
        calls.append(len(X))
        return float(X.sum())

    memo = last_block_memo(total)
    R = read_only([[1.0], [2.0]])
    assert (memo(R), memo(R)) == (3.0, 3.0) and calls == [2]
    W = np.array([[1.0], [2.0], [3.0]])
    assert memo(W) == 6.0
    W[0, 0] = 5.0  # changed in place between two calls
    assert memo(W) == 10.0
    V = W.view()  # a read-only view of a writeable block
    V.setflags(write=False)
    assert memo(V) == 10.0
    W[1, 0] = 4.0
    assert memo(V) == 12.0
    assert calls == [2, 3, 3, 3, 3]
    assert memo(R) == 3.0 and len(calls) == 5  # writeable blocks displace nothing

    # a shared function under a drop, as the sweep builds it
    f = Func.quadratic(0.5, label="q")
    shared = dataclasses.replace(f, batch=last_block_memo(f.batch))
    g, want = Func.clamp_shift(shared, 0.01), Func.clamp_shift(f, 0.01)
    W = np.array([[0.1], [0.2], [-0.3]])
    for _ in range(2):
        assert hexes(g.values(W)) == hexes(want.values(W))
        assert hexes(shared.values(W)) == hexes(f.values(W))
        W *= 1.5


def test_shared_aggregation_keeps_scalar_errors():
    # A alone covers the origin; A and B cross where they overlap; points far
    # from both are uncovered.
    cover = Cover((
        LocalCert(Point.of(-0.5, 0.0), 0.6, Func.constant(0.5, dim=2), Func.constant(1.0, dim=2)),
        LocalCert(Point.of(0.5, 0.5), 0.6, Func.constant(-1.0, dim=2), Func.constant(0.0, dim=2)),
    ))
    cert = aggregate_cover(cover).to_envelope_cert(0.05)
    lower = dataclasses.replace(cert.lower, domain_radius=2.0)
    upper = dataclasses.replace(cert.upper, domain_radius=2.0)
    crossing_first = read_only([[0.0, 0.0], [-0.5, 0.1], [0.0, 0.3], [0.9, -0.9]])
    gap_first = read_only([[0.0, 0.0], [-0.5, 0.1], [0.9, -0.9], [0.0, 0.3]])
    for X, kind in ((crossing_first, InconsistentCoverError), (gap_first, CoverageError)):
        pts = [Point(tuple(r)) for r in X.tolist()]
        for f in (lower, upper, upper, lower):
            got = outcome(f.values, X)
            want = outcome(naive_values, f, pts)
            assert got[0] is want[0] is kind and got[1] == want[1]


ONE_BLOCK_LATTICES = [(1, 1.0, 0.01), (2, 1.0, 1.0 / 32), (3, 0.9, 0.9 / 16), (3, 1.0, 0.3),
                      (4, 0.5, 0.25)]


def expected_rows(dim: int, radius: float, step: float) -> list[tuple[str, ...]]:
    kmax = int(math.floor((radius / step) * (1.0 + TAU) + TAU))
    bound = radius * (1.0 + TAU) + TAU
    axis = [k * step for k in range(-kmax, kmax + 1) if abs(k * step) <= bound]
    return [tuple(hexes(c)) for c in itertools.product(axis, repeat=dim)
            if dim == 1 or math.sqrt(sum(x * x for x in c)) <= bound]


def test_one_block_lattices_are_built_once_and_read_only():
    oracle._one_block_lattice.cache_clear()
    for dim, radius, step in ONE_BLOCK_LATTICES:
        want = expected_rows(dim, radius, step)
        first = list(Grid(dim, radius, step).blocks())
        again = list(Grid(dim, radius, step).blocks())
        assert len(first) == 1 and again[0] is first[0]
        for X in (first[0], again[0]):
            assert X.dtype == np.float64 and X.shape == (len(want), dim)
            assert [tuple(hexes(r)) for r in X.tolist()] == want
            assert not X.flags.writeable
            with pytest.raises(ValueError):
                X[0, 0] = 1.0
    info = oracle._one_block_lattice.cache_info()
    assert info.hits == info.misses == len(ONE_BLOCK_LATTICES) and info.currsize == 1


def test_lattices_over_one_block_are_streamed_read_only_and_not_stored(monkeypatch):
    oracle._one_block_lattice.cache_clear()
    for grid, divisor in ((Grid(1, 1.0, 1e-5), 1),  # 200,001 points
                          (Grid(3, 1.0, 0.125), 4096),  # one block at the full block size
                          (Grid(2, 1.0, 1.0 / 64), 21)):
        monkeypatch.setattr(oracle, "BLOCK_CELLS", BLOCK_CELLS // divisor)
        first = list(grid.blocks())
        again = list(grid.blocks())
        assert len(first) > 1
        assert all(X is not Y and np.array_equal(X, Y) for X, Y in zip(first, again))
        assert all(not X.flags.writeable for X in first)
        assert oracle._one_block_lattice.cache_info().currsize == 0
    monkeypatch.undo()
    list(Grid(3, 1.0, 0.125).blocks())
    assert oracle._one_block_lattice.cache_info().currsize == 1


def test_lattice_cache_is_bounded():
    oracle._one_block_lattice.cache_clear()
    assert oracle._one_block_lattice.cache_info().maxsize == 1
    for k in range(5):
        X = next(Grid(2, 1.0, 1.0 / (4 + k)).blocks())
        assert oracle._one_block_lattice.cache_info().currsize == 1
        assert len(X) == len(expected_rows(2, 1.0, 1.0 / (4 + k)))
    list(Grid(2, 1.0, 1.0 / 4).blocks())  # evicted by the later lattices: built again
    assert oracle._one_block_lattice.cache_info()[:2] == (0, 6)


@pytest.mark.parametrize("argv,hits,misses", [
    (["certify", "--spec", str(PROBLEMS / "sharpness.prob"), "--out", "record.txt"], 0, 1),
    (["demo", "sharpness"], 5, 1),
    (["gauge", "--spec", "cover.prob"], 1, 3),
], ids=["certify", "demo-sharpness", "gauge-cover"])
def test_each_command_reuses_only_the_lattice_it_scanned_last(argv, hits, misses, tmp_path,
                                                             monkeypatch):
    # one cache slot suffices: these are every hit an unbounded cache would give
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cover.prob").write_text(COVER_1D)
    oracle._one_block_lattice.cache_clear()
    assert main(argv) == 0
    assert oracle._one_block_lattice.cache_info()[:2] == (hits, misses)


def test_equal_radius_local_certs_report_their_own_crossing():
    radius = 0.9
    offsets = list(Grid(3, radius, radius / 16).points())
    LocalCert(Point.of(0.1, 0.0, 0.0), radius, Func.constant(0.0, dim=3),
              Func.constant(1.0, dim=3))
    center = Point.of(-0.05, 0.2, 0.0)
    lower = Func.affine((1.0, 0.0, 0.0), 0.0)
    upper = Func.constant(0.5, dim=3)
    pts = [Point(tuple(c + o for c, o in zip(center.coords, off.coords))) for off in offsets]
    got = outcome(LocalCert, center, radius, lower, upper)
    want = outcome(naive_crossing, lower, upper, pts, "local certificate")
    assert got[0] is want[0] is CertificateViolationError and got[1] == want[1]


# ---------------------------------------------------------------------------
# Column-major blocks: the kernels give the same bits in either layout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("divisor", [1, 21])
@pytest.mark.parametrize("dim,radius,step", DIFFERENTIAL_LATTICES)
def test_blocks_are_read_only_and_column_major(dim, radius, step, divisor, monkeypatch):
    oracle._one_block_lattice.cache_clear()
    monkeypatch.setattr(oracle, "BLOCK_CELLS", BLOCK_CELLS // divisor)
    grid = Grid(dim, radius, step)
    want = divmod_blocks(grid, BLOCK_CELLS // divisor)
    for _ in range(2):  # built, then served from the cache or streamed again
        got = list(grid.blocks())
        assert len(got) == len(want)
        for X, Y in zip(got, want):
            assert X.flags.f_contiguous and not X.flags.writeable
            assert X.shape == Y.shape and X.tobytes() == Y.tobytes()


def test_derived_blocks_stay_column_major():
    layouts = []

    def recording(dim: int, value: float) -> Func:
        def batch(X):
            layouts.append(X.flags.f_contiguous)
            return np.full(len(X), value)
        return Func(lambda p: value, math.inf, dim, batch=batch)

    for dim in (2, 3):
        cover = Cover(tuple(
            LocalCert(Point(tuple(s * 0.3 if k == 0 else 0.0 for k in range(dim))), 0.9,
                      recording(dim, 0.0), recording(dim, 1.0))
            for s in (-1.0, 1.0)))
        cert = aggregate_cover(cover).to_envelope_cert(0.5)
        envelope_width_bound(cert, Cylinder(0.5, 1.0), 0.05)
    assert len(layouts) > 8 and all(layouts)


_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 0.25, -0.5, 0.7, 1e-310, 1e155, -1e200, 1e300]),
    st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False),
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def layout_cases(draw):
    """A ``(rows, dim, cover)`` case: rows that mix signed zeros, huge values
    and (now and then) a non-finite coordinate, and a cover of 1-6 local
    certificates that may leave gaps, may cross where certificates overlap
    and may have a lower envelope without batch."""
    dim = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(_COORDS, min_size=dim, max_size=dim), min_size=2,
                         max_size=12))
    for row in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        rows[row][draw(st.integers(0, dim - 1))] = draw(_NON_FINITE)
    certs = []
    for _ in range(draw(st.integers(1, 6))):
        center = Point(tuple(draw(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5]))
                             for _ in range(dim)))
        slope = tuple(draw(st.sampled_from([0.0, -0.0, 0.5, -1.0])) for _ in range(dim))
        base = draw(st.sampled_from([-0.5, -0.0, 0.0, 0.25]))
        width = draw(st.sampled_from([0.0, 0.125, 1.0]))
        lower = Func.affine(slope, base)
        upper = Func.sum_of(Func.affine(slope, base), Func.constant(width, dim=dim))
        # a callable without batch, whose every row replays (validated point by
        # point, so kept to the 33- and 797-point lattices of dimensions 1 and 2)
        if dim < 3 and draw(st.integers(0, 3)) == 0:
            lower = Func(lower.eval, lower.domain_radius, dim, "user lower")
        certs.append(LocalCert(center, draw(st.sampled_from([0.2, 0.5, 0.9])), lower, upper))
    return rows, dim, Cover(tuple(certs))


def layout_outcome(fn, *args):
    """``outcome(fn, *args)`` with an array result as a list of hex strings
    (floats) or bools."""
    got = outcome(fn, *args)
    if got[0] != "ok":
        return got
    return ("ok", [v if isinstance(v, bool) else float(v).hex()
                   for v in np.asarray(got[1]).tolist()])


def scalar_values(f: Func, X: np.ndarray) -> list[float]:
    """The point-by-point loop: each row becomes a ``Point`` (which rejects a
    non-finite coordinate) and is evaluated before the next row is read."""
    return [f(Point(tuple(r))) for r in X.tolist()]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(layout_cases())
@example(([[0.0, -0.0], [1e300, 0.5], [math.nan, 0.0], [-0.0, -0.0]], 2,
          Cover((LocalCert(Point.of(0.0, 0.0), 0.5, Func.constant(-0.0, dim=2),
                           Func.constant(0.0, dim=2)),
                 LocalCert(Point.of(0.25, 0.0), 0.9, Func.constant(0.0, dim=2),
                           Func.constant(0.125, dim=2))))))
def test_kernels_give_the_same_bits_in_either_layout(case):
    rows_, dim, cover = case
    C = np.array(rows_, dtype=np.float64)
    F = np.asfortranarray(C)
    assert C.flags.c_contiguous and F.flags.f_contiguous
    points = [lattice_point(tuple(r)) for r in C.tolist()]  # unchecked: rows may be non-finite
    center = cover.certs[-1].center
    checks = [
        (norms, (), [p.norm() for p in points]),
        (distances, (center,), [p.dist(center) for p in points]),
        (ball_mask, (0.5, center), [in_closed_ball(p, 0.5, center) for p in points]),
        (ball_mask, (1.0,), [in_closed_ball(p, 1.0) for p in points]),
    ]
    # dist_to_set is defined on points, which have finite coordinates
    finite = [i for i, p in enumerate(points) if all(map(math.isfinite, p.coords))]
    sets = (FinitePointSet(tuple(c.center for c in cover.certs)), ClosedBall(center, 0.25))
    with np.errstate(all="ignore"):  # huge rows overflow to inf, as the scalar loops do
        for fn, args, scalar in checks:
            got = layout_outcome(fn, C, *args)
            assert got == layout_outcome(fn, F, *args)
            assert got == layout_outcome(lambda: scalar)
        for argmin_set in sets:
            got = layout_outcome(dist_to_set_rows, C, argmin_set)
            assert got == layout_outcome(dist_to_set_rows, F, argmin_set)
            assert [got[1][i] for i in finite] == \
                [dist_to_set(points[i], argmin_set).hex() for i in finite]

    # The aggregated envelopes on a domain that holds every row of norm below
    # 2: the huge rows meet the domain check, the others a gap, a crossing or
    # a value.  (``to_envelope_cert`` would reject a gapped or crossing cover.)
    agg = aggregate_cover(cover)
    envelopes = [Func(lambda p, _h=half: agg.evaluate(p)[_h], 2.0, dim, f"aggregated {half}",
                      batch=lambda X, _h=half: agg._rows(X)[_h]) for half in (0, 1)]
    for f in [*family_zoo(dim).values(), *envelopes]:
        got = layout_outcome(f.values, C)
        assert got == layout_outcome(f.values, F), f.label
        assert got == layout_outcome(scalar_values, f, C), f.label
        # The first error hides the values of the other rows: the rows the
        # scalar path evaluates are compared again, in both layouts.
        good = C[[i for i in range(len(C)) if outcome(scalar_values, f, C[i:i + 1])[0] == "ok"]]
        want = layout_outcome(scalar_values, f, good)
        assert layout_outcome(f.values, good) == want, f.label
        assert layout_outcome(f.values, np.asfortranarray(good)) == want, f.label
