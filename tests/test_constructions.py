"""The three closed-form constructions and the displacement sweep."""

from __future__ import annotations

import argparse
import dataclasses
import io
import math
import re

import numpy as np
import pytest

from epigauge import (
    TAU,
    ConstructionError,
    FinitePointSet,
    Func,
    OracleCapError,
    Grid,
    LevelGrid,
    Point,
    PreconditionError,
    build_impossibility_pair,
    build_sharpness_pair,
    build_strictness_pair,
    dist_to_set,
    grid_argmin,
    grid_gauge,
    grid_sup_abs_diff,
    pointwise_discrepancy,
    sharpness_sweep,
)
from epigauge import cli, constructions
from epigauge.constructions import sweep_lattice
from epigauge.oracle import BLOCK_CELLS
from epigauge.stability import square_root_rule


# ---------------------------------------------------------------------------
# Sharpness family
# ---------------------------------------------------------------------------


def test_sharpness_canonical_instance():
    fam = build_sharpness_pair(2.0, 0.02)
    assert abs(fam.argmin_radius - 0.1414213562373095) <= 1e-15
    assert dist_to_set(Point.of(fam.argmin_radius), FinitePointSet((Point.origin(1),))) \
        == fam.argmin_radius
    assert square_root_rule(fam.delta, fam.mu)[0] == 0.2


def test_sharpness_shrinks_with_delta():
    radii = [build_sharpness_pair(2.0, d).argmin_radius for d in (1e-2, 1e-4, 1e-6)]
    assert radii == sorted(radii, reverse=True)
    assert radii[-1] < 1e-2


def test_sharpness_pointwise_sandwich():
    fam = build_sharpness_pair(2.0, 0.02)
    rng = np.random.default_rng(808)
    for x in rng.uniform(-3.0, 3.0, size=1000):
        p = Point.of(float(x))
        diff = fam.f(p) - fam.g(p)
        assert 0.0 <= diff <= fam.delta + TAU


def test_sharpness_plateau_membership_matches_closed_form():
    fam = build_sharpness_pair(2.0, 0.02)
    rng = np.random.default_rng(909)
    edge = fam.argmin_radius
    for x in rng.uniform(-0.5, 0.5, size=1000):
        p = Point.of(float(x))
        assert (fam.g(p) == 0.0) == (abs(x) <= edge)


def test_sharpness_gauge_bounded_for_any_window():
    fam = build_sharpness_pair(1.0, 0.05)
    for R, M in ((0.5, 0.25), (1.0, 1.0), (3.0, 2.0)):
        val = grid_gauge(fam.f, fam.g, Grid(1, R, 0.02), M)
        assert val <= fam.delta + TAU


def test_sharpness_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        build_sharpness_pair(0.0, 0.1)
    with pytest.raises(PreconditionError):
        build_sharpness_pair(1.0, 0.0)


# ---------------------------------------------------------------------------
# Strictness pair
# ---------------------------------------------------------------------------


def test_strictness_canonical_instance():
    pair = build_strictness_pair(1.0, 2.0, 5.0)
    assert pair.f_level == -3.0 and pair.g_level == -8.0
    assert pair.f(Point.of(0.3)) == -3.0
    assert pair.g(Point.of(0.3)) == -8.0
    grid = Grid(1, 1.0, 0.01)
    assert grid_gauge(pair.f, pair.g, grid, 2.0) == 0.0
    assert grid_sup_abs_diff(pair.f, pair.g, grid) == 5.0


def test_strictness_every_cylinder_sample_is_exactly_zero():
    pair = build_strictness_pair(1.0, 2.0, 5.0)
    for t in LevelGrid(2.0, 0.25).values:
        assert pointwise_discrepancy(pair.f_level, pair.g_level, t) == 0.0


def test_strictness_boundary_level():
    pair = build_strictness_pair(1.0, 2.0, 5.0)
    assert pointwise_discrepancy(pair.f_level, pair.g_level, -2.0) == 0.0


def test_strictness_tiny_gap_collapses():
    pair = build_strictness_pair(1.0, 2.0, 1e-9)
    grid = Grid(1, 1.0, 0.1)
    assert grid_gauge(pair.f, pair.g, grid, 2.0) == 0.0
    assert abs(grid_sup_abs_diff(pair.f, pair.g, grid) - 1e-9) <= TAU


def test_strictness_rejects_bad_parameters():
    with pytest.raises(PreconditionError):
        build_strictness_pair(1.0, 2.0, 0.0)


# Below the float spacing at -(M+1) the parked levels round, and the pair
# would falsify its own gap A: the command exits 3 before any scan.
@pytest.mark.parametrize("argv, gap", [
    (["--M", "1e6", "--A", "1e-9"], "1.0477378964424133e-09, not A = 1e-09, at M = 1000000.0"),
    (["--M", "1e8", "--A", "1e-9"], "0.0, not A = 1e-09, at M = 100000000.0"),
    (["--M", "1e16"], "4.0, not A = 5.0, at M = 1e+16"),
], ids=["spacing-1e6", "spacing-1e8", "default-A-1e16"])
def test_strictness_levels_that_lose_the_gap_exit_3_before_any_scan(argv, gap, capsys,
                                                                      monkeypatch):
    monkeypatch.setattr(cli, "grid_pair_scan", None)  # a scan would raise TypeError
    assert cli.main(["demo", "strictness", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"precondition failure: strictness levels -(M+1) and -(M+1)-A differ by {gap}\n"


def test_strictness_levels_that_keep_the_gap_within_tau_pass(capsys):
    assert cli.main(["demo", "strictness", "--M", "1e4", "--A", "1e-9"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "PASS uniform_gap_equals_A: oracle sup |f-g| = 1.000444171950221e-09 " in out


# ---------------------------------------------------------------------------
# Impossibility pair
# ---------------------------------------------------------------------------


def test_impossibility_canonical_instance():
    queries = (Point.of(-0.5), Point.of(0.5))
    pair = build_impossibility_pair(1.0, queries, 10.0, y=Point.of(0.0))
    assert pair.rho == 0.25
    assert pair.g(Point.of(0.0)) == 10.0
    for q in queries:
        assert pair.f(q) == 0.0
        assert pair.g(q) == 0.0  # bit-exact: footprint is strictly inside clearance


def test_impossibility_zero_amplitude_degenerates():
    pair = build_impossibility_pair(1.0, (Point.of(0.5),), 0.0, y=Point.of(-0.5))
    for x in np.linspace(-1, 1, 21):
        assert pair.g(Point.of(float(x))) == 0.0


def test_impossibility_auto_peak_prefers_central_point():
    pair = build_impossibility_pair(1.0, (Point.of(-0.5), Point.of(0.5)), 10.0)
    assert pair.y == Point.of(0.0)
    assert pair.rho == 0.25


def test_impossibility_lipschitz_slope_scan():
    pair = build_impossibility_pair(1.0, (Point.of(-0.5), Point.of(0.5)), 10.0,
                                    y=Point.of(0.0))
    grid = Grid(1, 1.0, 0.01)
    xs = [p.coords[0] for p in grid.points()]
    vals = [pair.g(p) for p in grid.points()]
    slopes = [abs(vb - va) / (xb - xa)
              for (xa, va), (xb, vb) in zip(zip(xs, vals), zip(xs[1:], vals[1:]))]
    assert max(slopes) <= pair.lipschitz_bound() + TAU


def test_impossibility_interpolation_residual_bit_exact_many_queries():
    rng = np.random.default_rng(616)
    queries = tuple(Point.of(float(x)) for x in rng.uniform(-0.9, 0.9, size=12))
    pair = build_impossibility_pair(1.0, queries, 3.0)
    for q in queries:
        assert pair.g(q) == 0.0 and pair.f(q) == 0.0
    assert pair.g(pair.y) == 3.0


def test_impossibility_rejects_query_outside_ball():
    with pytest.raises(PreconditionError):
        build_impossibility_pair(1.0, (Point.of(1.5),), 1.0)


@pytest.mark.parametrize("R, ok", [(1e153, True), (6.7e153, True), (6.71e153, False),
                                   (1e300, False)])
def test_impossibility_rejects_an_R_whose_squared_diameter_overflows(R, ok):
    # (2R)^2 is finite up to about 6.7e153; beyond it squared distances
    # across the ball round to inf, so R is named at once
    queries = (Point.of(R),)
    if ok:
        pair = build_impossibility_pair(R, queries, 1.0)
        assert math.isfinite(pair.rho) and pair.g(pair.y) == 1.0
    else:
        with pytest.raises(PreconditionError, match=r"^R is too large: \(2R\)\^2 overflows"):
            build_impossibility_pair(R, queries, 1.0)


def test_impossibility_peak_on_query_is_construction_error():
    with pytest.raises(ConstructionError):
        build_impossibility_pair(1.0, (Point.of(0.25),), 1.0, y=Point.of(0.25))


@pytest.mark.parametrize("R, ok", [(1e-150, True), (1e-152, True), (1e-155, False),
                                   (1e-160, False), (1e-170, False)])
def test_impossibility_rejects_an_R_whose_squared_search_step_is_subnormal(R, ok):
    # (R/64)^2 is a normal float down to about R = 9.5e-153; below it squared
    # distances on the search lattice round to subnormals, so R is named at once
    queries = (Point.of(0.0),)
    if ok:
        pair = build_impossibility_pair(R, queries, 1.0)
        assert pair.rho > 0 and pair.g(pair.y) == 1.0
    else:
        with pytest.raises(PreconditionError,
                           match=rf"^R is too small: \(R/64\)\^2 is subnormal, got {R!r}$"):
            build_impossibility_pair(R, queries, 1.0)


def test_impossibility_saturated_grid_reports_failure():
    # queries at all 129 nodes of the search lattice of step R/64: no clearance anywhere
    queries = tuple(Point.of(k / 64.0) for k in range(-64, 65))
    with pytest.raises(ConstructionError, match="fill the search lattice of step R/64$"):
        build_impossibility_pair(1.0, queries, 1.0)


@pytest.mark.parametrize("R", ["1e-155", "1e-160", "1e-170"])
def test_impossibility_with_a_subnormal_search_step_exits_3_before_any_scan(R, capsys,
                                                                           monkeypatch):
    # subnormal squared distances would falsify the construction's slope
    # check, so the command exits 3 before any scan
    monkeypatch.setattr(constructions, "_auto_peak", None)  # a scan would raise TypeError
    monkeypatch.setattr(cli, "grid_sup_abs_diff", None)
    step = repr(float(R) / 4.0)
    assert cli.main(["demo", "impossibility", "--R", R, "--queries=0", "--grid-step", step]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"precondition failure: R is too small: (R/64)^2 is subnormal, got {R}\n"


@pytest.mark.parametrize("R", ["1e-150", "1e-152"])
def test_impossibility_with_a_normal_search_step_passes(R, capsys):
    step = repr(float(R) / 4.0)
    assert cli.main(["demo", "impossibility", "--R", R, "--queries=0", "--grid-step", step]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "FAIL" not in out


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------


def test_sweep_single_delta_matches_closed_form_within_h():
    h = 1e-3
    sweep = sharpness_sweep(2.0, [0.02], h)
    assert len(sweep.rows) == 1
    row = sweep.rows[0]
    assert abs(row.dist - math.sqrt(0.02)) <= h
    assert math.isnan(sweep.slope)


@pytest.mark.parametrize("argv", [["--num-deltas", "1"], ["--delta-max", "1e-4"]],
                         ids=["one-drop", "six-equal-drops"])
def test_sharpness_with_one_distinct_drop_exits_3_before_the_sweep(argv, capsys, monkeypatch):
    # one distinct drop leaves the log-log slope undefined, so the command
    # exits 3 before the sweep
    monkeypatch.setattr(cli, "sharpness_sweep", None)  # a sweep would raise TypeError
    assert cli.main(["demo", "sharpness", *argv]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "precondition failure: the slope fit needs two distinct drops, all are 0.0001\n"


@pytest.mark.parametrize("delta_max,slope", [("1.0000000000000002e-4", "nan"),
                                             ("1.001e-4", "3.1754611637869566e-13"),
                                             ("1.03e-4", "0.3366283509006172")])
def test_sharpness_with_an_unresolved_slope_exits_3(delta_max, slope, capsys):
    # every extreme argmin lies within h of its plateau half-width, so the fit
    # misses 1/2 through the lattice alone: the drops are too close for h
    assert cli.main(["demo", "sharpness", "--num-deltas", "2", "--delta-max", delta_max]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("precondition failure: grid step 0.0001 does not resolve the log-log slope "
                   f"of these drops: fitted slope = {slope} with every extreme argmin within h "
                   "of sqrt(2 delta/mu)\n")


@pytest.mark.parametrize("argv,code,out", [
    (["--num-deltas", "2", "--delta-max", "2e-4"], 0, "5/5 properties passed\n"),
    # a slope miss beside other failing properties is still a falsification
    (["--delta-min", "1e-200", "--delta-max", "1e-198", "--grid-step", "1e-103"], 1,
     "2/5 properties passed\n"),
], ids=["resolved", "falsified"])
def test_sharpness_slope_is_judged_as_before_elsewhere(argv, code, out, capsys):
    assert cli.main(["demo", "sharpness", *argv]) == code
    captured = capsys.readouterr()
    assert captured.out.endswith(out)
    assert "loglog_slope_one_half" in captured.out


def test_sweep_with_one_drop_reports_a_nan_slope_and_exits_0(capsys):
    assert cli.main(["sweep", "--mu", "2", "--num-deltas", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "slope = nan\n" and out.startswith("delta,argmin,dist,bound,slack\n")


def test_sweep_bound_dominates_dist():
    sweep = sharpness_sweep(2.0, [1e-4, 1e-3, 1e-2], 1e-4)
    for row in sweep.rows:
        assert row.dist <= row.bound
        assert row.slack == 2e-4


def test_sweep_slope_near_one_half():
    deltas = [float(d) for d in np.logspace(-4, -2, 6)]
    sweep = sharpness_sweep(2.0, deltas, 1e-4)
    assert 0.48 <= sweep.slope <= 0.52


def test_sweep_rejects_coarse_grid():
    # need h < sqrt(2*min_delta/mu)/10
    with pytest.raises(PreconditionError):
        sharpness_sweep(2.0, [1e-5], 1e-3)


def test_sweep_over_the_lattice_cap_builds_no_family(monkeypatch):
    def no_family(*args):
        raise AssertionError("a family was built")

    monkeypatch.setattr(constructions, "build_sharpness_pair", no_family)
    # radius 1.5*sqrt(2*1e-2/2) = 0.15 at step 1e-8: 30,000,001 points a drop
    with pytest.raises(OracleCapError, match="sweep of 4 drops x 30000001 points"):
        sharpness_sweep(2.0, [1e-3, 1e-3, 1e-2, 1e-2], 1e-8)
    with pytest.raises(AssertionError, match="a family was built"):  # 3 drops pass the cap
        sharpness_sweep(2.0, [1e-3, 1e-3, 1e-2], 1e-8)


def test_sweep_builds_one_family(monkeypatch):
    built = []
    build = constructions.build_sharpness_pair

    def counted(mu, delta):
        built.append(delta)
        return build(mu, delta)

    monkeypatch.setattr(constructions, "build_sharpness_pair", counted)
    deltas = [float(d) for d in np.logspace(-4, -2, 6)]
    assert len(sharpness_sweep(2.0, deltas, 1e-4).rows) == 6
    assert built == deltas[:1]  # the smallest drop's, for the plateau check and f


def test_sweep_rejects_unsorted_deltas():
    with pytest.raises(PreconditionError):
        sharpness_sweep(2.0, [1e-2, 1e-3], 1e-4)


def test_sweep_csv_shape():
    sweep = sharpness_sweep(2.0, [1e-3, 1e-2], 1e-4)
    buf = io.StringIO()
    sweep.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "delta,argmin,dist,bound,slack"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 1e-3
    # '.' decimal separator, no locale artifacts
    assert all("," not in cell or cell == "" for cell in first)


SWEEPS = [(2.0, [1e-4, 1e-3, 1e-2], 1e-4),  # one block
          (8.0, [2e-3, 2e-3, 5e-2], 2e-6),  # 3 blocks a drop, a repeated drop
          (3.0, [1e-3, 1e-3, 1e-3], 1e-5),  # one block, every drop the same
          (2.0, [1e-4, 1e-3, 1e-2], 2e-6)]  # 3 blocks a drop


def counting_pairs(monkeypatch) -> list[int]:
    """Make every sharpness family count the rows of each run of its
    quadratic's batch, inside its ``g`` too."""
    runs: list[int] = []
    build = constructions.build_sharpness_pair

    def counted(mu, delta):
        fam = build(mu, delta)

        def batch(X, _b=fam.f.batch):
            runs.append(len(X))
            return _b(X)

        f = dataclasses.replace(fam.f, batch=batch)
        return dataclasses.replace(fam, f=f, g=Func.clamp_shift(f, delta, label=fam.g.label))

    monkeypatch.setattr(constructions, "build_sharpness_pair", counted)
    return runs


@pytest.mark.parametrize("mu,deltas,h", SWEEPS)
def test_sweep_gaps_are_the_sandwich_extremes_of_one_scan_per_drop(monkeypatch, mu, deltas, h):
    calls: dict[str, int] = {}
    rows = constructions.Func._rows

    def counted(self, X):
        calls[self.label] = calls.get(self.label, 0) + 1
        return rows(self, X)

    runs = counting_pairs(monkeypatch)
    monkeypatch.setattr(constructions.Func, "_rows", counted)
    sweep = sharpness_sweep(mu, deltas, h)
    monkeypatch.undo()
    grid = Grid(1, sweep.radius, h)
    sizes = [len(X) for X in grid.blocks()]
    # f's batch runs once per sweep on a one-block lattice, whose one block
    # every drop scans again, and once per drop and block on a streamed one
    assert runs == (sizes if len(sizes) == 1 else sizes * len(deltas))
    # each drop's g once per block, and f inside each g
    f = build_sharpness_pair(mu, deltas[0]).f
    assert calls.pop(f.label) == len(sizes) * len(deltas)
    assert calls == {build_sharpness_pair(mu, d).g.label: len(sizes) * deltas.count(d)
                     for d in deltas}
    fv = f.values(np.concatenate(list(grid.blocks())))
    for row in sweep.rows:
        diff = fv - build_sharpness_pair(mu, row.delta).g.values(np.concatenate(list(grid.blocks())))
        assert (row.gap_min.hex(), row.gap_max.hex()) == (float(diff.min()).hex(),
                                                          float(diff.max()).hex())
        assert 0.0 <= row.gap_min <= row.gap_max <= row.delta + TAU


def reference_sweep(mu: float, deltas: list[float], h: float) -> list[list[str]]:
    """Every ``SweepRow`` field and the slope as hex, each drop from a fresh
    family, a plain ``grid_argmin`` of its ``g`` and a scalar extreme pick."""
    grid = sweep_lattice(mu, deltas[-1], h, len(deltas))
    X = np.concatenate(list(grid.blocks()))
    target = FinitePointSet((Point.origin(1),))
    out = []
    for delta in deltas:
        fam = build_sharpness_pair(mu, delta)
        # the farthest tie, then the lexicographically last
        dist, p = max((dist_to_set(p, target), p) for p in grid_argmin(fam.g, grid).points)
        diff = fam.f.values(X) - fam.g.values(X)
        bound, slack = square_root_rule(delta, mu, h)
        out.append([delta, p.coords[0], dist, bound, slack, diff.min(), diff.max()])
    coeffs, _, rank, _, _ = np.polyfit(np.log([r[0] for r in out]),
                                       np.log([r[2] for r in out]), 1, full=True)
    slope = float(coeffs[0]) if rank == 2 else math.nan
    return [[float(v).hex() for v in r] for r in out] + [[slope.hex(), grid.radius.hex()]]


@pytest.mark.parametrize("mu,deltas,h", SWEEPS + [(2.0, [0.02], 1e-3)])
def test_sweep_matches_a_sweep_of_fresh_families(mu, deltas, h):
    sweep = sharpness_sweep(mu, deltas, h)
    got = [[float(getattr(r, k)).hex() for k in ("delta", "argmin", "dist", "bound", "slack",
                                                 "gap_min", "gap_max")] for r in sweep.rows]
    assert got + [[sweep.slope.hex(), sweep.radius.hex()]] == reference_sweep(mu, deltas, h)


@pytest.mark.parametrize("h", [1e-4, 2e-6], ids=["one-block", "streamed"])
@pytest.mark.parametrize("mu", [0.5, 2.0, 7.0])
def test_demo_gauge_is_the_oracle_gauge_over_the_last_drop(mu, h):
    args = argparse.Namespace(mu=mu, delta_min=1e-4, delta_max=1e-2, num_deltas=3, grid_step=h)
    props, sweep = cli._demo_sharpness(args)
    detail = {p.name: p.detail for p in props}["gauge_bounded_by_delta"]
    printed = float(re.match(r"oracle gauge = (\S+) ", detail).group(1))
    fam = build_sharpness_pair(mu, sweep.rows[-1].delta)
    grid = Grid(1, sweep.radius, h)
    assert (grid.cube_size() > BLOCK_CELLS) == (h == 2e-6)
    assert printed.hex() == grid_gauge(fam.f, fam.g, grid, 1.0).hex()
