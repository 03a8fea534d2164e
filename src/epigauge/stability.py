"""Value-gap and minimizer-displacement certificates.

The pipeline implemented here:

1. a gauge bound ``delta`` over a cylinder, valid at points whose base norm
   and both function values fall inside the window, bounds the pointwise
   value gap ``|f(x) - g(x)|`` by ``delta`` (``value_gap_from_gauge``);
2. if additionally ``f`` grows quadratically away from its minimizer set
   (parameter ``mu``), any minimizer of ``g`` over the base ball is within
   ``2 * sqrt(delta / mu)`` of that set, plus ``2 * grid_step`` when it
   was found by a lattice scan (``square_root_rule``, ``displacement_bound``).

The quadratic growth hypothesis is never estimated from data; it can only
be *falsified* on a lattice, by a reducer with one block's memory
(``GrowthScan``) that ``falsify_quadratic_growth`` and ``certify``'s pair
scan feed; zero violations is explicitly not a certificate.

Claims are always derived from stored raw values, never asserted by
callers: a ``DisplacementCert`` stores its gauge bound, growth certificate,
window checks and grid step, and derives ``bound``, ``slack``,
``bound_with_slack``, ``valid`` and ``detail`` from them.  So ``valid`` can
be recomputed from the record alone: ``epigauge certify`` writes every
input of it, the ``in_base``/``in_level`` flags of both window sections,
``cylinder_R`` and ``growth_radius``, and ``valid`` holds exactly when all
four flags are true and ``cylinder_R <= slack_radius(growth_radius)``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .core import (
    TAU,
    ArgminSet,
    ClosedBall,
    Cylinder,
    FinitePointSet,
    Func,
    GaugeBound,
    Point,
    ball_mask,
    evaluated,
    in_closed_ball,
    record,
    require_positive,
    slack_radius,
)
from .errors import PreconditionError
from .oracle import Grid, dist_to_set, dist_to_set_rows

__all__ = [
    "GrowthCert",
    "WindowCheck",
    "ValueGapResult",
    "DisplacementCert",
    "GrowthFalsificationReport",
    "window_check",
    "value_gap_from_gauge",
    "displacement_bound",
    "falsify_quadratic_growth",
]


@record
class GrowthCert:
    """Claimed quadratic growth of a target function: on the ball of
    ``radius``, ``f(x) - inf_value >= (mu/2) * dist(x, argmin_set)^2``.

    ``inf_value`` is a stored certificate input, never recomputed: a finite
    scan cannot certify an infimum, and pretending otherwise would launder
    an assumption into a certificate.  Consistency of listed minimizers
    with ``inf_value`` is checked wherever the function itself is available
    (falsification scans and the displacement pipeline).
    """

    mu: float
    radius: float
    argmin_set: ArgminSet
    inf_value: float

    def __post_init__(self) -> None:
        require_positive(self.mu, "growth parameter mu")
        require_positive(self.radius, "growth radius")
        if not isinstance(self.argmin_set, (FinitePointSet, ClosedBall)):
            raise PreconditionError(
                f"unsupported minimizer-set representation: {type(self.argmin_set).__name__}"
            )
        if not math.isfinite(self.inf_value):
            raise PreconditionError(f"inf_value must be finite, got {self.inf_value!r}")


@record
class WindowCheck:
    """Raw evaluations of a function pair at one point, plus the cylinder
    they are checked against.

    ``in_base`` and ``in_level`` are computed properties of the stored
    values: there is no way to construct a check whose flags disagree with
    its data.
    """

    point: Point
    f_value: float
    g_value: float
    cylinder: Cylinder

    @property
    def in_base(self) -> bool:
        return in_closed_ball(self.point, self.cylinder.R)

    @property
    def in_level(self) -> bool:
        M = self.cylinder.M
        return abs(self.f_value) <= M and abs(self.g_value) <= M

    def failing_condition(self) -> Optional[str]:
        if not self.in_base:
            return f"base window: ||x|| = {self.point.norm()!r} > R = {self.cylinder.R!r}"
        if not self.in_level:
            return (
                f"level window: f={self.f_value!r}, g={self.g_value!r} "
                f"not both in [-{self.cylinder.M!r}, {self.cylinder.M!r}]"
            )
        return None


def window_check(f: Func, g: Func, x: Point, cylinder: Cylinder) -> WindowCheck:
    """Evaluate both functions at ``x`` and record the window data."""
    return WindowCheck(point=x, f_value=f(x), g_value=g(x), cylinder=cylinder)


@record
class ValueGapResult:
    """Outcome of converting a gauge bound into a pointwise value bound:
    either a bound, or the name of the failing window condition."""

    valid: bool
    bound: Optional[float]
    reason: str


def value_gap_from_gauge(gauge: GaugeBound, check: WindowCheck) -> ValueGapResult:
    """Pointwise value control from vertical control.

    If the point lies in the base ball and both stored values lie in the
    level band, the gauge bound ``delta`` bounds ``|f(x) - g(x)|``.
    Otherwise the conversion is invalid and the failing condition is named
    (no bound is fabricated for out-of-window points).
    """
    if check.cylinder != gauge.cylinder:
        raise PreconditionError(
            f"window check cylinder {check.cylinder} does not match gauge cylinder "
            f"{gauge.cylinder}"
        )
    failing = check.failing_condition()
    if failing is not None:
        return ValueGapResult(valid=False, bound=None, reason=failing)
    return ValueGapResult(valid=True, bound=gauge.delta, reason="")


def square_root_rule(delta: float, mu: float,
                     grid_step: Optional[float] = None) -> tuple[float, float]:
    """The displacement bound ``2 * sqrt(delta / mu)`` and its lattice
    slack: ``2 * grid_step`` for a minimizer found by a lattice scan of that
    step, 0 for an exact one (``grid_step=None``)."""
    return 2.0 * math.sqrt(delta / mu), 0.0 if grid_step is None else 2.0 * grid_step


@record
class DisplacementCert:
    """The final displacement certificate.

    Stored: the gauge bound, the growth certificate, the window checks at
    the target and surrogate minimizers, and the step of the lattice scan
    that found the surrogate minimizer (``None``: caller-certified exact).
    Derived: ``bound`` and ``slack`` (``square_root_rule``), their sum
    ``bound_with_slack``, ``detail``, and ``valid``, recomputed on every read:
    both points lie in the base ball, all four stored values lie in the
    level band, and the growth ball contains the base ball (otherwise the
    growth claim says nothing about a surrogate minimizer outside it).
    """

    gauge: GaugeBound
    growth: GrowthCert
    window_checks: tuple[WindowCheck, WindowCheck]  # (target minimizer, surrogate minimizer)
    grid_step: Optional[float]

    def __post_init__(self) -> None:
        if self.grid_step is not None and not (self.grid_step > 0):
            raise PreconditionError(f"grid_step must be > 0, got {self.grid_step!r}")

    @property
    def bound(self) -> float:
        return square_root_rule(self.gauge.delta, self.growth.mu)[0]

    @property
    def slack(self) -> float:
        return square_root_rule(self.gauge.delta, self.growth.mu, self.grid_step)[1]

    @property
    def bound_with_slack(self) -> float:
        return self.bound + self.slack

    @property
    def growth_covers_base(self) -> bool:
        """The growth ball (radius ``growth.radius``) contains the base ball
        (radius ``gauge.cylinder.R``), with the usual closed-ball slack."""
        return self.gauge.cylinder.R <= slack_radius(self.growth.radius)

    @property
    def valid(self) -> bool:
        """The validity flag, recomputed from the stored raw values."""
        return self.growth_covers_base and all(c.in_base and c.in_level
                                               for c in self.window_checks)

    @property
    def detail(self) -> str:
        h = self.grid_step
        if h is None:
            detail = "surrogate minimizer caller-certified exact; no grid slack"
        else:
            detail = (f"surrogate minimizer from lattice scan (step={h!r}); default slack "
                      f"2h={self.slack!r}")
        if not self.growth_covers_base:
            detail += (f"; growth radius {self.growth.radius!r} does not cover the base ball "
                       f"of radius {self.gauge.cylinder.R!r}: no displacement claim")
        return detail


def displacement_bound(gauge: GaugeBound, growth: GrowthCert, xstar: Point,
                       xtilde: Point, f: Func, g: Func,
                       grid_step: Optional[float] = None) -> DisplacementCert:
    """Displacement certificate for a surrogate minimizer.

    ``xstar`` must belong to the claimed minimizer set of ``f`` (checked
    against the set representation and against ``inf_value`` within TAU);
    ``xtilde`` is a minimizer of ``g`` over the base ball, either exact
    (caller-certified, ``grid_step=None``) or found by a lattice scan with
    the given step.  The slack convention (``square_root_rule``) is a
    reporting decision spelled out in ``detail``.
    """
    R = gauge.cylinder.R
    if not in_closed_ball(xstar, R):
        raise PreconditionError(
            f"target minimizer {xstar} lies outside the base ball of radius {R!r}"
        )
    dist = dist_to_set(xstar, growth.argmin_set)
    if dist > TAU:
        raise PreconditionError(
            f"point {xstar} is not in the claimed minimizer set (distance {dist!r})")
    f_at_star = f(xstar)
    if abs(f_at_star - growth.inf_value) > TAU:
        raise PreconditionError(
            f"claimed minimizer value {f_at_star!r} differs from inf_value "
            f"{growth.inf_value!r} by more than {TAU}"
        )
    cyl = gauge.cylinder
    checks = (WindowCheck(xstar, f_at_star, g(xstar), cyl), window_check(f, g, xtilde, cyl))
    return DisplacementCert(gauge, growth, checks, grid_step)


class GrowthScan:
    """The falsification scan's reducer, fed the lattice of the base ball of
    radius ``R`` block by block with f's values.  It checks the rows in the
    ball of ``growth.radius`` and keeps ``points_checked``, the number of
    ``violations`` and the worst one, the largest shortfall first in lattice
    order: a gap ``f(x) - inf_value`` more than ``TAU`` below ``(mu/2) *
    dist(x, X*)^2`` falls short by the difference, one within ``TAU`` of X*
    and more than ``TAU`` off 0 by its size."""

    def __init__(self, growth: GrowthCert, R: float) -> None:
        self.growth, self.radius, self._clip = growth, min(R, growth.radius), growth.radius < R
        self.points_checked = self.violations = 0
        self.worst = (-math.inf, None, None, None)  # (shortfall, point, gap, required)

    def add(self, X: np.ndarray, fv: np.ndarray) -> None:
        with np.errstate(over="ignore"):  # rounds to inf, as the scalar arithmetic does
            if self._clip:
                keep = ball_mask(X, self.radius)
                X, fv = X.compress(keep, axis=0), fv.compress(keep)
            d = dist_to_set_rows(X, self.growth.argmin_set)
            gap = fv - self.growth.inf_value
            required = 0.5 * self.growth.mu * d * d
            low = gap < required - TAU
            bad = np.flatnonzero(low | ((d <= TAU) & (np.abs(gap) > TAU)))
            shortfall = np.where(low[bad], required[bad] - gap[bad], np.abs(gap[bad]))
        self.points_checked += len(X)
        self.violations += len(bad)
        if len(bad) and shortfall.max() > self.worst[0]:
            j = int(np.argmax(shortfall))  # the first of equal maxima
            i = bad[j]
            self.worst = (float(shortfall[j]), Point(tuple(X[i].tolist())), float(gap[i]),
                          float(required[i]))

    def report(self, f: Func, grid_step: float) -> GrowthFalsificationReport:
        """The report, once the listed minimizers the lattice misses are fed
        to ``add`` (so it is read once, after the walk)."""
        if isinstance(self.growth.argmin_set, FinitePointSet):
            off = [p for p in self.growth.argmin_set.points if in_closed_ball(p, self.radius)
                   and any(c != round(c / grid_step) * grid_step for c in p.coords)]
            if off:
                self.add(np.array([p.coords for p in off]), np.array([f(p) for p in off]))
        _, *worst = self.worst
        return GrowthFalsificationReport(self.points_checked, self.violations, *worst)


@record
class GrowthFalsificationReport:
    """A ``GrowthScan``'s counts and worst violation (``None`` without one).
    Zero violations is NOT a certificate of quadratic growth: ``header``
    says so, so that the caveat travels with the data."""

    points_checked: int
    violations: int
    worst_point: Optional[Point]
    worst_gap: Optional[float]
    worst_required: Optional[float]
    header: str = ("lattice falsification scan; zero violations means not falsified on this "
                   "lattice and is NOT a certificate of quadratic growth")

    @property
    def falsified(self) -> bool:
        return self.violations > 0


def falsify_quadratic_growth(f: Func, growth: GrowthCert, cyl: Cylinder,
                             grid_step: float) -> GrowthFalsificationReport:
    """``GrowthScan`` over the lattice of the ball of radius ``min(cyl.R,
    growth.radius)``, where the claim is made."""
    if not (grid_step > 0):
        raise PreconditionError(f"grid_step must be > 0, got {grid_step!r}")
    scan = GrowthScan(growth, min(cyl.R, growth.radius))
    for X, (fv,) in evaluated(Grid(f.dim, scan.radius, grid_step).blocks(), f):
        scan.add(X, fv)
    return scan.report(f, grid_step)
