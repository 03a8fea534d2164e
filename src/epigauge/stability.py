"""Value-gap and minimizer-displacement certificates.

The pipeline implemented here:

1. a gauge bound ``delta`` over a cylinder, valid at points whose base norm
   and both function values fall inside the window, bounds the pointwise
   value gap ``|f(x) - g(x)|`` by ``delta`` (``value_gap_from_gauge``);
2. if additionally ``f`` grows quadratically away from its minimizer set
   (parameter ``mu``), any minimizer of ``g`` over the base ball is within
   ``2 * sqrt(delta / mu)`` of that set (``displacement_bound``).

The quadratic growth hypothesis is never estimated from data; it can only
be *falsified* on a lattice (``falsify_quadratic_growth``), and an empty
falsification report is explicitly not a certificate.

Window flags are always derived from stored raw values, never asserted by
callers, so a certificate's ``valid`` flag can be re-verified from the
record alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    eval_rows,
    in_closed_ball,
)
from .errors import PreconditionError
from .oracle import Grid, dist_to_set, dist_to_set_rows

__all__ = [
    "GrowthCert",
    "WindowCheck",
    "ValueGapResult",
    "DisplacementCert",
    "GrowthViolation",
    "GrowthFalsificationReport",
    "window_check",
    "value_gap_from_gauge",
    "displacement_bound",
    "falsify_quadratic_growth",
    "suboptimality_gap",
]


@dataclass(frozen=True)
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
        if not (self.mu > 0) or not math.isfinite(self.mu):
            raise PreconditionError(f"growth parameter mu must be finite and > 0, got {self.mu!r}")
        if not (self.radius > 0) or not math.isfinite(self.radius):
            raise PreconditionError(f"growth radius must be finite and > 0, got {self.radius!r}")
        if not isinstance(self.argmin_set, (FinitePointSet, ClosedBall)):
            raise PreconditionError(
                f"unsupported minimizer-set representation: {type(self.argmin_set).__name__}"
            )
        if not math.isfinite(self.inf_value):
            raise PreconditionError(f"inf_value must be finite, got {self.inf_value!r}")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ValueGapResult:
    """Outcome of converting a gauge bound into a pointwise value bound:
    either a bound, or the name of the failing window condition."""

    valid: bool
    bound: Optional[float]
    reason: str

    def __bool__(self) -> bool:
        return self.valid


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


@dataclass(frozen=True)
class DisplacementCert:
    """The final displacement certificate.

    ``bound`` is ``2 * sqrt(delta / mu)``.  When the surrogate minimizer
    was found by a lattice scan (``grid_step`` set), the reported
    ``bound_with_slack`` adds the explicit grid slack ``2 * grid_step``;
    the exact-minimizer case carries zero slack.  ``valid`` is True only
    when both points lie in the base ball, all four stored values lie in
    the level band, and the growth ball contains the base ball (otherwise
    the growth claim says nothing about a surrogate minimizer outside it);
    these conditions re-verify from the stored checks and certificates.
    """

    bound: float
    gauge: GaugeBound
    growth: GrowthCert
    window_checks: tuple[WindowCheck, WindowCheck]  # (target minimizer, surrogate minimizer)
    valid: bool
    grid_step: Optional[float]
    slack: float
    bound_with_slack: float
    detail: str = ""

    @property
    def growth_covers_base(self) -> bool:
        """The growth ball (radius ``growth.radius``) contains the base ball
        (radius ``gauge.cylinder.R``), with the usual closed-ball slack."""
        return _growth_covers(self.growth, self.gauge.cylinder.R)

    def reverify(self) -> bool:
        """Recompute the validity flag from stored raw values."""
        return self.growth_covers_base and all(c.in_base and c.in_level
                                               for c in self.window_checks)


def _growth_covers(growth: GrowthCert, R: float) -> bool:
    return R <= growth.radius * (1.0 + TAU) + TAU


def displacement_bound(gauge: GaugeBound, growth: GrowthCert, xstar: Point,
                       xtilde: Point, f: Func, g: Func,
                       grid_step: Optional[float] = None) -> DisplacementCert:
    """Displacement certificate for a surrogate minimizer.

    ``xstar`` must belong to the claimed minimizer set of ``f`` (checked
    against the set representation and against ``inf_value`` within TAU);
    ``xtilde`` is a minimizer of ``g`` over the base ball, either exact
    (caller-certified, ``grid_step=None``) or found by a lattice scan with
    the given step, in which case the explicit default slack ``2 *
    grid_step`` is added to the reported bound.  The slack convention is a
    reporting decision and is spelled out in ``detail``; a sharper
    growth-aware slack ``2h * (1 + sqrt(mu/delta) * h)`` is recorded there
    for reference when ``delta > 0``.
    """
    if not (growth.mu > 0):
        raise PreconditionError(f"mu must be > 0, got {growth.mu!r}")
    if gauge.delta < 0:
        raise PreconditionError(f"delta must be >= 0, got {gauge.delta!r}")
    R = gauge.cylinder.R
    if not in_closed_ball(xstar, R):
        raise PreconditionError(
            f"target minimizer {xstar} lies outside the base ball of radius {R!r}"
        )
    if dist_to_set(xstar, growth.argmin_set) > TAU:
        raise PreconditionError(
            f"point {xstar} is not in the claimed minimizer set "
            f"(distance {dist_to_set(xstar, growth.argmin_set)!r})"
        )
    f_at_star = f(xstar)
    if abs(f_at_star - growth.inf_value) > TAU:
        raise PreconditionError(
            f"claimed minimizer value {f_at_star!r} differs from inf_value "
            f"{growth.inf_value!r} by more than {TAU}"
        )

    bound = 2.0 * math.sqrt(gauge.delta / growth.mu)
    checks = (
        window_check(f, g, xstar, gauge.cylinder),
        window_check(f, g, xtilde, gauge.cylinder),
    )
    covers = _growth_covers(growth, R)
    valid = covers and all(c.in_base and c.in_level for c in checks)

    if grid_step is None:
        slack = 0.0
        detail = "surrogate minimizer caller-certified exact; no grid slack"
    else:
        if not (grid_step > 0):
            raise PreconditionError(f"grid_step must be > 0, got {grid_step!r}")
        slack = 2.0 * grid_step
        if gauge.delta > 0:
            aware = 2.0 * grid_step * (1.0 + math.sqrt(growth.mu / gauge.delta) * grid_step)
            detail = (
                f"surrogate minimizer from lattice scan (step={grid_step!r}); default slack "
                f"2h={slack!r}; growth-aware slack 2h*(1+sqrt(mu/delta)*h)={aware!r}"
            )
        else:
            detail = (
                f"surrogate minimizer from lattice scan (step={grid_step!r}); default slack "
                f"2h={slack!r} (delta=0: growth-aware form degenerate)"
            )

    if not covers:
        detail += (f"; growth radius {growth.radius!r} does not cover the base ball of "
                   f"radius {R!r}: no displacement claim")
    return DisplacementCert(
        bound=bound,
        gauge=gauge,
        growth=growth,
        window_checks=checks,
        valid=valid,
        grid_step=grid_step,
        slack=slack,
        bound_with_slack=bound + slack,
        detail=detail,
    )


@dataclass(frozen=True)
class GrowthViolation:
    """One lattice point contradicting the growth claim.

    ``kind`` is ``"growth"`` (gap below the required quadratic) or
    ``"argmin_value"`` (a point of the claimed minimizer set whose value
    differs from ``inf_value``)."""

    kind: str
    point: Point
    observed_gap: float
    required: float


@dataclass(frozen=True)
class GrowthFalsificationReport:
    """Lattice falsification scan result.

    An empty violation list means the claim survived this lattice; it is
    NOT a certificate of quadratic growth (stated in ``header`` so the
    caveat travels with the data).
    """

    header: str
    violations: tuple[GrowthViolation, ...]
    points_checked: int
    grid_step: float

    @property
    def falsified(self) -> bool:
        return bool(self.violations)


def falsify_quadratic_growth(f: Func, growth: GrowthCert, cyl: Cylinder,
                             grid_step: float) -> GrowthFalsificationReport:
    """Scan the base lattice for points violating the growth inequality
    beyond TAU, and for claimed minimizers whose value is off ``inf_value``.

    The scan covers the ball of radius ``min(cyl.R, growth.radius)`` (the
    claim is only made there).
    """
    if not (grid_step > 0):
        raise PreconditionError(f"grid_step must be > 0, got {grid_step!r}")
    radius = min(cyl.R, growth.radius)
    grid = Grid(f.dim, radius, grid_step)
    violations: list[GrowthViolation] = []
    checked = 0
    for X in grid.blocks():
        (fv,), stop, error = eval_rows((f,), X)
        if stop > 0:  # the scalar loop takes dist_to_set(x) right after f(x)
            d = dist_to_set_rows(X, growth.argmin_set)
        if error is not None:
            raise error
        checked += len(X)
        gap = fv - growth.inf_value
        required = 0.5 * growth.mu * d * d
        low = gap < required - TAU
        off = ~low & (d <= TAU) & (np.abs(gap) > TAU)
        for i in np.flatnonzero(low | off).tolist():
            p = Point(tuple(X[i].tolist()))
            if low[i]:
                violations.append(GrowthViolation("growth", p, float(gap[i]),
                                                  float(required[i])))
            else:
                violations.append(GrowthViolation("argmin_value", p, float(gap[i]), 0.0))
    if isinstance(growth.argmin_set, FinitePointSet):
        for p in growth.argmin_set.points:
            if not in_closed_ball(p, radius):
                continue
            gap = f(p) - growth.inf_value
            if abs(gap) > TAU:
                violations.append(GrowthViolation("argmin_value", p, gap, 0.0))
    header = (
        "lattice falsification scan; an empty report means not falsified on this "
        "lattice and is NOT a certificate of quadratic growth"
    )
    return GrowthFalsificationReport(header=header, violations=tuple(violations),
                                     points_checked=checked, grid_step=grid_step)


def suboptimality_gap(f: Func, x: Point, inf_value: float) -> float:
    """``f(x) - inf_value``: how far above the claimed infimum a point sits."""
    if not math.isfinite(inf_value):
        raise PreconditionError(f"inf_value must be finite, got {inf_value!r}")
    return f(x) - inf_value
