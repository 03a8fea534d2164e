"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

from __future__ import annotations

import math
import time
from importlib import resources

import numpy as np
import pytest

from epigauge import (
    Cylinder,
    Grid,
    gauge_from_value_bound,
    grid_gauge,
    grid_sup_abs_diff,
    pointwise_discrepancy,
    value_gap_from_gauge,
    window_check,
)
from epigauge.certificates import Cover, LocalCert, aggregate_cover
from epigauge.constructions import (
    build_impossibility_pair,
    build_strictness_pair,
    sharpness_sweep,
)
from epigauge.core import Func, Point
from epigauge.cli import main

from helpers import clamp_to_band, random_analytic, random_point_in_ball, random_polyquad

MU = 2.0
SWEEP_H = 2e-5  # within the h <= 1e-4 budget; chosen so criteria 1 AND 2 hold


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} [{name}]: {status}{suffix}")


@pytest.fixture(scope="module")
def sweep_result():
    deltas = [float(d) for d in np.logspace(-5, -2, 8)]
    t0 = time.perf_counter()
    sweep = sharpness_sweep(MU, deltas, SWEEP_H)
    elapsed = time.perf_counter() - t0
    return sweep, elapsed


def test_criterion_1_sharpness_exponent(sweep_result):
    sweep, elapsed = sweep_result
    per_delta_ok = all(
        abs(row.dist - math.sqrt(2.0 * row.delta / MU)) <= SWEEP_H
        for row in sweep.rows
    )
    slope_ok = 0.48 <= sweep.slope <= 0.52
    runtime_ok = elapsed <= 60.0
    ok = per_delta_ok and slope_ok and runtime_ok and len(sweep.rows) >= 8
    _report(1, "sharpness exponent reproduction", ok,
            f"slope={sweep.slope:.4f}, runtime={elapsed:.2f}s, "
            f"{len(sweep.rows)} deltas, h={SWEEP_H}")
    assert per_delta_ok, "grid argmin distance does not match sqrt(2 delta/mu) within h"
    assert slope_ok, f"log-log slope {sweep.slope} outside [0.48, 0.52]"
    assert runtime_ok, f"sweep took {elapsed:.1f}s > 60s"


def test_criterion_2_displacement_bound_never_violated(sweep_result):
    sweep, _ = sweep_result
    bound_ok = all(
        row.dist <= 2.0 * math.sqrt(row.delta / MU) + 2.0 * SWEEP_H
        for row in sweep.rows
    )
    target = 1.0 / math.sqrt(2.0)
    ratios = [row.dist / row.bound for row in sweep.rows]
    ratio_ok = all(abs(r - target) <= 0.01 for r in ratios)
    ok = bound_ok and ratio_ok
    _report(2, "displacement bound never violated; ratio -> 1/sqrt(2)", ok,
            f"worst ratio error={max(abs(r - target) for r in ratios):.5f}")
    assert bound_ok, "dist exceeded 2 sqrt(delta/mu) + 2h at some delta"
    assert ratio_ok, f"ratios {ratios} stray more than 0.01 from 1/sqrt(2)"


def test_criterion_3_strictness_exact():
    pair = build_strictness_pair(R=1.0, M=2.0, A=5.0)
    grid = Grid(1, 1.0, 0.01)
    gauge = grid_gauge(pair.f, pair.g, grid, 2.0)
    sup = grid_sup_abs_diff(pair.f, pair.g, grid)
    ok = gauge == 0.0 and sup == 5.0
    _report(3, "strictness: gauge exactly 0, value gap exactly 5", ok,
            f"gauge={gauge!r}, sup={sup!r}")
    assert gauge == 0.0
    assert sup == 5.0


def test_criterion_4_impossibility_bit_exact():
    queries = (Point.of(-0.5), Point.of(0.5))
    pair = build_impossibility_pair(1.0, queries, 10.0, y=Point.of(0.0))
    interp_ok = all(pair.f(q) == 0.0 and pair.g(q) == 0.0 for q in queries)
    sup_ok = True
    for step in (0.125, 0.02, 0.005):  # every one of these lattices contains y=0
        sup = grid_sup_abs_diff(pair.f, pair.g, Grid(1, 1.0, step))
        sup_ok = sup_ok and sup >= 10.0 - 1e-12
    ok = interp_ok and sup_ok
    _report(4, "impossibility: bit-exact interpolation, sup >= A", ok,
            f"rho={pair.rho!r}")
    assert interp_ok, "query values not bit-exactly zero"
    assert sup_ok, "lattice containing the peak missed the gap"


def test_criterion_5_value_control_randomized_10k():
    rng = np.random.default_rng(160920)
    violations = 0
    checked_in_window = 0
    for _ in range(10_000):
        R = float(rng.uniform(0.5, 2.0))
        M = float(rng.uniform(0.5, 3.0))
        delta = float(rng.uniform(0.0, 0.5))
        cyl = Cylinder(R, M)
        f = random_analytic(rng)
        g = clamp_to_band(random_analytic(rng), f, delta)
        gauge = gauge_from_value_bound(delta, cyl)
        check = window_check(f, g, random_point_in_ball(rng, R), cyl)
        res = value_gap_from_gauge(gauge, check)
        if res.valid:
            checked_in_window += 1
            if abs(check.f_value - check.g_value) > res.bound + 1e-12:
                violations += 1
    ok = violations == 0 and checked_in_window > 0
    _report(5, "pointwise value control, 10^4 randomized instances", ok,
            f"{checked_in_window} in-window, {violations} violations")
    assert checked_in_window > 1000
    assert violations == 0


def test_criterion_6_lipschitz_transfer_fuzz_100k():
    rng = np.random.default_rng(271828)
    u = rng.uniform(-100.0, 100.0, size=100_000)
    v = rng.uniform(-100.0, 100.0, size=100_000)
    t = rng.uniform(-100.0, 100.0, size=100_000)
    violations = sum(
        1 for ui, vi, ti in zip(u, v, t)
        if pointwise_discrepancy(ui, vi, ti) > abs(ui - vi)
    )
    ok = violations == 0
    _report(6, "1-Lipschitz level transfer, 10^5 triples, zero tolerance", ok,
            f"{violations} violations")
    assert violations == 0


def test_criterion_7_oracle_consistency_100_pairs():
    rng = np.random.default_rng(577215)
    dominated = True
    monotone = True
    for _ in range(100):
        f = random_analytic(rng)
        g = random_analytic(rng)
        grid = Grid(1, 1.0, 0.2)
        prev_gauge = grid_gauge(f, g, grid, 1.0)
        prev_sup = grid_sup_abs_diff(f, g, grid)
        dominated = dominated and prev_gauge <= prev_sup
        for _ in range(3):
            grid = grid.refine()
            cur_gauge = grid_gauge(f, g, grid, 1.0)
            cur_sup = grid_sup_abs_diff(f, g, grid)
            monotone = monotone and cur_gauge >= prev_gauge and cur_sup >= prev_sup
            dominated = dominated and cur_gauge <= cur_sup
            prev_gauge, prev_sup = cur_gauge, cur_sup
    ok = dominated and monotone
    _report(7, "oracle domination (exact) and refinement monotonicity", ok)
    assert dominated, "grid gauge exceeded grid sup |f-g| on a shared lattice"
    assert monotone, "a halved lattice decreased a scan supremum"


def test_criterion_8_aggregation_100_covers():
    rng = np.random.default_rng(141421)
    brackets = True
    tightens = True
    for _ in range(100):
        truth = random_polyquad(rng)
        certs = []
        for _ in range(int(rng.integers(1, 6))):
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
        agg = aggregate_cover(Cover(tuple(certs)))
        for _ in range(1000):
            i = int(rng.integers(0, len(certs)))
            cert = certs[i]
            x = Point.of(cert.center.coords[0]
                         + float(rng.uniform(-cert.radius, cert.radius)))
            lo, hi = agg.evaluate(x)
            if not (lo <= truth(x) <= hi):
                brackets = False
            for j in agg.active(x):
                if lo < certs[j].lower(x) or hi > certs[j].upper(x):
                    tightens = False
    ok = brackets and tightens
    _report(8, "cover aggregation brackets truth and tightens local certs", ok)
    assert brackets
    assert tightens


def test_criterion_9_determinism_serial_vs_threaded(tmp_path, capsys):
    spec = resources.files("epigauge") / "problems" / "sharpness.prob"
    out1 = tmp_path / "record1.txt"
    out2 = tmp_path / "record2.txt"
    rc1 = main(["certify", "--spec", str(spec), "--out", str(out1)])
    rc2 = main(["certify", "--spec", str(spec), "--threads", "4", "--out", str(out2)])
    capsys.readouterr()

    def strip_timestamp(text: str) -> str:
        return "\n".join(l for l in text.splitlines()
                         if not l.startswith("generated_utc"))

    same = strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())
    ok = same and rc1 == 0 and rc2 == 0
    _report(9, "certify record identical: serial vs --threads 4", ok,
            f"exit codes {rc1}/{rc2}")
    assert rc1 == 0 and rc2 == 0
    assert same, "records differ beyond the timestamp"
