"""Shared test utilities: deterministic random analytic function families."""

from __future__ import annotations

import math

import numpy as np

from epigauge import Func, Grid, Point


def random_polyquad(rng: np.random.Generator, dim: int = 1) -> Func:
    """Random quadratic-plus-affine function: ``a*||x||^2 + <s, x> + c``."""
    a = float(rng.uniform(-2.0, 2.0))
    s = tuple(float(v) for v in rng.uniform(-2.0, 2.0, size=dim))
    c = float(rng.uniform(-2.0, 2.0))

    def _eval(p: Point, _a=a, _s=s, _c=c) -> float:
        acc = _c
        n2 = 0.0
        for si, ci in zip(_s, p.coords):
            acc += si * ci
            n2 += ci * ci
        return acc + _a * n2

    return Func(_eval, math.inf, dim, f"quad(a={a:.3f})")


def random_analytic(rng: np.random.Generator, dim: int = 1) -> Func:
    """Random member of the analytic families used across the tests."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return Func.constant(float(rng.uniform(-2.0, 2.0)), dim=dim)
    if kind == 1:
        return Func.quadratic(float(rng.uniform(-2.0, 2.0)), dim=dim)
    if kind == 2:
        center = Point(tuple(float(v) for v in rng.uniform(-0.5, 0.5, size=dim)))
        return Func.bump(center, float(rng.uniform(0.1, 1.0)),
                         float(rng.uniform(-2.0, 2.0)))
    return random_polyquad(rng, dim)


def clamp_to_band(base: Func, reference: Func, delta: float) -> Func:
    """Clip ``base`` into the band ``[reference - delta, reference + delta]``."""

    def _eval(p: Point) -> float:
        r = reference(p)
        v = base(p)
        lo = r - delta
        hi = r + delta
        return lo if v < lo else hi if v > hi else v

    return Func(_eval, min(base.domain_radius, reference.domain_radius), base.dim,
                f"clamp({base.label}, {reference.label} +/- {delta:.3g})")


def axis_of(grid: Grid) -> tuple[float, ...]:
    """The lattice of a 1-d ``grid``, which is its axis."""
    return tuple(x for X in grid.blocks() for x in X[:, 0].tolist())


def random_point_in_ball(rng: np.random.Generator, radius: float, dim: int = 1) -> Point:
    while True:
        coords = tuple(float(v) for v in rng.uniform(-radius, radius, size=dim))
        if math.sqrt(sum(c * c for c in coords)) <= radius:
            return Point(coords)
