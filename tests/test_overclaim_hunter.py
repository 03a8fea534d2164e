"""Random problems whose truths have closed forms, checked against what the
library and ``certify`` claim of them.

The class here: targets f = C||x||^2 + (<a, x> + b), written as a ``sum``
of a ``quadratic`` and an ``affine`` term, in dimensions 1-3.  Its
minimizer set is {-a/(2C)}, drawn inside B_R, its infimum is
b - ||a||^2/(4C), and its sharp quadratic-growth modulus is mu = 2C.  The
growth check must find no violation at mu = 2C and at least one at
mu = 1.01 * 2C, where ``certify`` must exit 3.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigauge import (Cylinder, FinitePointSet, Func, GrowthCert, Point,
                      falsify_quadratic_growth)
from epigauge.cli import main

R = 1.0
STEPS = {1: 0.01, 2: 0.05, 3: 0.125}


def closed_form(C: float, xstar: tuple[float, ...], b: float):
    """``(a, X* point, inf)`` of C||x||^2 + <a, x> + b with a = -2C x*."""
    a = tuple(-2.0 * C * x for x in xstar)
    return (a, Point(tuple(-ai / (2.0 * C) for ai in a)),
            b - math.fsum(ai * ai for ai in a) / (4.0 * C))


def problem_text(C: float, a: tuple[float, ...], b: float, mu: float, point: Point,
                 inf_value: float) -> str:
    def coords(xs) -> str:
        return " ".join(repr(x) for x in xs)

    return f"""dimension = {len(a)}
[function Q]
family = quadratic
coeff = {C!r}
[function A]
family = affine
slope = {coords(a)}
intercept = {b!r}
[function F]
family = sum
terms = Q, A
[cylinder]
R = {R!r}
M = 100.0
[pair]
f = F
g = F
[tolerance]
family = constant
value = 0.0
grid_exact = true
[growth]
mu = {mu!r}
radius = {R!r}
inf_value = {inf_value!r}
argmin_kind = points
argmin_points = {coords(point.coords)}
[grid]
step = {STEPS[len(a)]!r}
"""


RAN = {1: 0, 2: 0, 3: 0}


@pytest.fixture(scope="module", autouse=True)
def report_case_counts():
    yield
    print(f"\nclosed-form quadratic targets run per dimension: {RAN}")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 3), st.floats(0.25, 4.0),
       st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3), st.floats(-2.0, 2.0))
def test_the_growth_check_finds_the_sharp_modulus(dim, C, xstar, b):
    a, point, inf_value = closed_form(C, tuple(xstar[:dim]), b)
    f = Func.sum_of(Func.quadratic(C, dim=dim), Func.affine(a, b))
    cyl = Cylinder(R, 100.0)
    for mu, falsified in ((2.0 * C, False), (1.01 * 2.0 * C, True)):
        growth = GrowthCert(mu, R, FinitePointSet((point,)), inf_value)
        report = falsify_quadratic_growth(f, growth, cyl, STEPS[dim])
        assert report.falsified is falsified, (mu, report)
        assert (report.violations > 0) is falsified
    RAN[dim] += 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_certify_exits_3_only_on_an_inflated_modulus(dim, tmp_path, capsys):
    rng = random.Random(dim)
    C, b = rng.uniform(0.25, 4.0), rng.uniform(-2.0, 2.0)
    a, point, inf_value = closed_form(C, tuple(rng.uniform(-0.5, 0.5) for _ in range(dim)), b)
    spec = tmp_path / "p.prob"
    for mu, code, falsified in ((2.0 * C, 0, "false"), (1.01 * 2.0 * C, 3, "true")):
        spec.write_text(problem_text(C, a, b, mu, point, inf_value), encoding="utf-8")
        assert main(["certify", "--spec", str(spec)]) == code
        out, err = capsys.readouterr()
        assert f"\nfalsified = {falsified}\n" in out and "\nvalid = true\n" in out
        assert err == ("" if code == 0 else
                       "certificate check failed: falsified = true in the record\n")
