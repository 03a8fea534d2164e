"""Certificate patterns that yield computable gauge bounds.

Three patterns are supported, each turning certified side information into
a scalar bound on the cylinder gauge:

- bracketing envelopes ``lower <= target <= upper`` on a ball around the
  origin (``EnvelopeCert``): the width supremum bounds the gauge for every
  level band;
- neighborhood-wise envelopes on a union of balls (``LocalCert`` /
  ``Cover``), aggregated pointwise into a single envelope pair;
- a nonnegative tolerance field on the base ball (``ToleranceField``):
  ``eta(x)`` bounds the discrepancy at every level, so its supremum
  bounds the gauge.

The envelope width and the tolerance field are each a nonnegative
per-point certificate whose sup over the base ball is the gauge bound; one
scan, ``_certified_sup``, computes both.  Honesty rules baked in: the
``constant`` and ``radial_affine`` tolerance fields are certified by their
closed-form sup, with no scan.  Any other grid supremum is *certified*
only for a family declared grid-exact (the supremum is attained on lattice
nodes, e.g. constants or affine pieces with lattice breakpoints); anything
else is recorded as a grid estimate.
Inconsistent input certificates are surfaced as errors, never repaired,
because repairing would fabricate a certificate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import field
from typing import Iterable, Optional

import numpy as np

from .core import (
    Cylinder,
    Func,
    GaugeBound,
    Point,
    Provenance,
    ball_mask,
    evaluated,
    in_closed_ball,
    last_block_memo,
    norms,
    record,
    require_positive,
    slack_radius,
)
from .errors import (
    CertificateViolationError,
    CoverageError,
    InconsistentCoverError,
    PreconditionError,
)
from .oracle import Grid

__all__ = [
    "EnvelopeCert",
    "LocalCert",
    "Cover",
    "ToleranceField",
    "AggregatedEnvelope",
    "envelope_width_bound",
    "aggregate_cover",
    "gauge_from_tolerance_field",
]

_VALIDATION_POINTS = 16  # per-axis resolution of the construction-time sanity grid


def _validation_step(radius: float) -> float:
    return radius / _VALIDATION_POINTS


def _check_not_crossed(lower: Func, upper: Func, blocks: Iterable[np.ndarray],
                       what: str) -> None:
    """Raise on the first lattice point where ``lower > upper``, or where
    evaluating ``lower`` then ``upper`` raises."""
    for X, (lo, hi) in evaluated(blocks, lower, upper):
        crossed = np.flatnonzero(lo > hi)
        if crossed.size:
            i = crossed[0]
            raise CertificateViolationError(
                f"{what} inconsistent: lower={float(lo[i])!r} > upper={float(hi[i])!r} "
                f"at {Point(tuple(X[i].tolist()))}"
            )


@record
class EnvelopeCert:
    """Certified bracketing pair ``lower <= target <= upper`` on the ball
    ``||x|| <= region_radius``.

    Construction checks ``lower <= upper`` on a coarse validation lattice
    and rejects violations outright; it cannot (and does not claim to)
    verify the bracketing of the unknown target itself.

    ``grid_exact`` declares that both envelopes attain their width supremum
    on lattice nodes for any lattice this certificate will be scanned with
    (piecewise constant / affine families with lattice breakpoints).  Only
    then is a scanned width bound reported as certified.
    """

    region_radius: float
    lower: Func
    upper: Func
    grid_exact: bool = False

    def __post_init__(self) -> None:
        require_positive(self.region_radius, "region_radius")
        if self.lower.dim != self.upper.dim:
            raise PreconditionError("lower/upper envelopes must share a dimension")
        for f in (self.lower, self.upper):
            if self.region_radius > slack_radius(f.domain_radius):
                raise PreconditionError(
                    f"region_radius {self.region_radius!r} exceeds domain radius of "
                    f"envelope {f.label or '<unnamed>'}"
                )
        grid = Grid(self.lower.dim, self.region_radius, _validation_step(self.region_radius))
        _check_not_crossed(self.lower, self.upper, grid.blocks(), "envelope certificate")

    @property
    def dim(self) -> int:
        return self.lower.dim


@record
class LocalCert:
    """Bracketing pair certified on the closed ball of ``radius`` around
    ``center`` (one query's neighborhood)."""

    center: Point
    radius: float
    lower: Func
    upper: Func

    def __post_init__(self) -> None:
        require_positive(self.radius, "local cert radius")
        if self.lower.dim != self.upper.dim or self.lower.dim != self.center.dim:
            raise PreconditionError("local cert center and envelopes must share a dimension")
        # Domain must contain the ball around center (Func domains are centered
        # at the origin, so ||center|| + radius suffices).
        needed = self.center.norm() + self.radius
        for f in (self.lower, self.upper):
            if needed > slack_radius(f.domain_radius):
                raise PreconditionError(
                    f"envelope {f.label or '<unnamed>'} domain radius {f.domain_radius!r} "
                    f"does not contain the local ball (needs {needed!r})"
                )
        step = _validation_step(self.radius)
        offsets = Grid(self.center.dim, self.radius, step)
        center = np.asarray(self.center.coords)
        _check_not_crossed(self.lower, self.upper, (center + off for off in offsets.blocks()),
                           "local certificate")


@record
class Cover:
    """A nonempty collection of local certificates.  The covered region is
    exactly the union of their closed balls."""

    certs: tuple[LocalCert, ...]

    def __post_init__(self) -> None:
        certs = tuple(self.certs)
        if not certs:
            raise PreconditionError("cover must contain at least one local certificate")
        dim = certs[0].center.dim
        if any(c.center.dim != dim for c in certs):
            raise PreconditionError("cover certificates must share a dimension")
        object.__setattr__(self, "certs", certs)

    @property
    def dim(self) -> int:
        return self.certs[0].center.dim


@record
class ToleranceField:
    """A certified pointwise bound ``eta(x) >= 0`` on the vertical
    discrepancy at every level of the band above ``x``: the discrepancy
    never increases with the level, so this is a bound on it at
    ``t = -M``.  ``eta`` is a ``Func`` on the base ball; a negative or
    non-finite value of it is a certificate violation, not data to be
    clamped.

    The ``constant`` and ``radial_affine`` constructors also record the
    exact range ``(min, max)`` of ``eta`` over the base ball, so their
    sup is certified in closed form, with no scan and whatever
    ``grid_exact`` says.  Only those constructors set it: a field built
    from any other ``Func``, or rebuilt by ``dataclasses.replace``, has
    none, and its lattice max is certified only when declared
    ``grid_exact``.
    """

    eta: Func
    cylinder: Cylinder
    grid_exact: bool = False
    _range: Optional[tuple[float, float]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not isinstance(self.eta, Func):
            raise PreconditionError(f"eta must be a Func, got {type(self.eta).__name__}")

    @property
    def dim(self) -> int:
        return self.eta.dim

    @classmethod
    def constant(cls, value: float, cylinder: Cylinder, dim: int = 1) -> "ToleranceField":
        """``eta(x) = value``; its sup is ``value``, ``+0.0`` for a zero, as
        a scanned sup reads."""
        value = float(value) + 0.0  # -0.0 + 0.0 is +0.0; every other value is kept
        eta = Func(lambda p, _v=value: _v, math.inf, dim, "",
                   lambda X, _v=value: np.full(len(X), _v))
        tf = cls(eta, cylinder)
        object.__setattr__(tf, "_range", (value, value))
        return tf

    @classmethod
    def radial_affine(cls, base: float, slope: float, cylinder: Cylinder,
                      dim: int = 1) -> "ToleranceField":
        """``eta(x) = base + slope * ||x|| / R`` with ``R`` the cylinder's
        base radius; its sup over the base ball is ``base + max(slope, 0)``,
        ``+0.0`` for a zero."""
        base, slope, R = float(base), float(slope), cylinder.R
        rim = base + slope * (R / R)  # eta's own operations at a node of norm R
        eta = Func(lambda p, _b=base, _s=slope, _R=R: _b + _s * (p.norm() / _R), math.inf, dim,
                   "", lambda X, _b=base, _s=slope, _R=R: _b + _s * (norms(X) / _R))
        # a NaN end compares false and stays in the range, which then fails the check
        ends = (base, rim) if base <= rim else (rim, base)
        tf = cls(eta, cylinder)
        object.__setattr__(tf, "_range", (ends[0] + 0.0, ends[1] + 0.0))
        return tf


# ---------------------------------------------------------------------------
# Certified suprema
# ---------------------------------------------------------------------------

# kind -> (provenance, the family a grid-exact declaration names, the message
# for a bad value v at p, the largest good value: an overflowing width is an
# inf delta, which ``GaugeBound`` rejects, while a tolerance must be finite)
_SUP_KINDS = {
    "width": (Provenance.ENVELOPE, "envelope family",
              "envelope width negative ({v!r}) at {p}: certificate inconsistent", math.inf),
    "tolerance": (Provenance.TOLERANCE_FIELD, "tolerance field",
                  "tolerance field returned {v!r} at {p}; a vertical tolerance must be finite "
                  "and >= 0", sys.float_info.max),
}


def _certified_sup(h: Func, cylinder: Cylinder, grid_step: float, kind: str,
                   grid_exact: bool, closed: Optional[tuple[float, float]] = None
                   ) -> GaugeBound:
    """The sup of the certificate ``h >= 0`` over the base ball of
    ``cylinder``, as a gauge bound of the ``kind`` in ``_SUP_KINDS``; the
    base lattice is held to the oracle's cap first, whatever path follows.

    A closed-form range ``(min, max)`` that is finite and nonnegative gives
    its max, certified, without evaluating ``h``.  Otherwise one
    ``evaluated`` walk scans ``h``: the first value, in lattice order, that
    is negative, NaN or above the kind's largest good value raises, and the
    lattice max is certified only when declared ``grid_exact``.  A range
    that fails the check raises even where no lattice node sees it.
    """
    provenance, family, message, top = _SUP_KINDS[kind]
    grid = Grid(h.dim, cylinder.R, grid_step)
    if closed is not None and 0.0 <= closed[0] and math.isfinite(closed[1]):
        return GaugeBound(closed[1], cylinder, provenance, True,
                          f"{kind} sup over the base ball in closed form; certified, "
                          f"no lattice scan")
    best = 0.0
    for X, (v,) in evaluated(grid.blocks(), h, finite=False):
        bad = np.flatnonzero(~((v >= 0.0) & (v <= top)))
        if bad.size:
            i = bad[0]
            raise CertificateViolationError(
                message.format(v=float(v[i]), p=Point(tuple(X[i].tolist()))))
        m = float(v.max())
        if m > best:
            best = m
    if closed is not None:  # the bad value lies between the lattice nodes
        lo, hi = closed
        raise CertificateViolationError(
            f"{family} reaches {hi if 0.0 <= lo else lo!r} on the base ball (closed form, "
            f"between lattice nodes); a vertical tolerance must be finite and >= 0")
    note = (f"certified: {family} declared grid-exact" if grid_exact
            else "grid estimate; not a certificate")
    return GaugeBound(best, cylinder, provenance, grid_exact,
                      f"{kind} sup over base lattice (step={grid_step!r}); {note}")


# ---------------------------------------------------------------------------
# Gauge bounds from certificates, and bracketing validation
# ---------------------------------------------------------------------------


def _require_in_region(cert: EnvelopeCert, cyl: Cylinder) -> None:
    if cyl.R > slack_radius(cert.region_radius):
        raise PreconditionError(
            f"cylinder base radius {cyl.R!r} exceeds certified region radius "
            f"{cert.region_radius!r}"
        )


def envelope_width_bound(cert: EnvelopeCert, cyl: Cylinder, grid_step: float) -> GaugeBound:
    """The sup of the envelope width ``upper - lower`` over the base ball.

    The width supremum on the ball bounds the gauge for *every* level band,
    so the returned bound carries ``cyl`` unchanged.  Certified only when
    the certificate is declared grid-exact; otherwise the record is marked
    as a grid estimate.
    """
    _require_in_region(cert, cyl)
    upper, lower = cert.upper, cert.lower
    width = Func(lambda p: upper(p) - lower(p), math.inf, cert.dim, "envelope width",
                 lambda X: upper._rows(X) - lower._rows(X))
    return _certified_sup(width, cyl, grid_step, "width", cert.grid_exact)


def gauge_from_tolerance_field(tf: ToleranceField, grid_step: float) -> GaugeBound:
    """The sup of a tolerance field over the base ball, as a gauge bound:
    in closed form for a field from ``ToleranceField.constant`` or
    ``radial_affine`` whose range is finite and nonnegative, else scanned
    over the base lattice (see ``_certified_sup``)."""
    return _certified_sup(tf.eta, tf.cylinder, grid_step, "tolerance", tf.grid_exact, tf._range)


# ---------------------------------------------------------------------------
# Cover aggregation
# ---------------------------------------------------------------------------


@record
class AggregatedEnvelope:
    """Pointwise aggregation of a cover: at each covered point, the best
    lower envelope is the max of the active lower envelopes and the best
    upper envelope is the min of the active upper ones.

    Evaluation outside the covered region is a hard ``CoverageError``;
    aggregated lower > upper raises ``InconsistentCoverError`` (the input
    certificates cannot all be true, and the contradiction must surface).

    ``to_envelope_cert`` aggregates each scanned block once: the packaged
    lower and upper envelopes share one ``_rows`` result per read-only
    block (such as the blocks of ``Grid.blocks``), so a scan of the pair
    costs one masked aggregation per block, not two.
    """

    cover: Cover

    def active(self, x: Point) -> tuple[int, ...]:
        """The certificates whose closed ball holds ``x``, boundary included."""
        return tuple(i for i, c in enumerate(self.cover.certs)
                     if in_closed_ball(x, c.radius, c.center))

    def evaluate(self, x: Point) -> tuple[float, float]:
        idx = self.active(x)
        if not idx:
            raise CoverageError(f"point {x} is outside the covered region")
        lo = max(self.cover.certs[i].lower(x) for i in idx)
        hi = min(self.cover.certs[i].upper(x) for i in idx)
        if lo > hi:
            raise InconsistentCoverError(
                f"aggregated envelopes cross at {x}: lower={lo!r} > upper={hi!r}; "
                f"the input certificates are mutually inconsistent"
            )
        return lo, hi

    def _rows(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``evaluate`` at every row of ``X`` as ``(lower, upper)`` arrays,
        NaN wherever ``evaluate`` raises: masked max / min over the active
        certificates, taking the first extremum in certificate order as
        ``max`` / ``min`` do.

        Each certificate is evaluated on its active rows, gathered
        column-major, and merged into the running extremes at those rows
        only; a row stays NaN where a certificate fails, no certificate is
        active or the envelopes cross."""
        n = len(X)
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        covered, failed = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        for c in self.cover.certs:
            mask = ball_mask(X, c.radius, c.center)
            idx = np.flatnonzero(mask)
            if not idx.size:
                continue
            Y = X.T.take(idx, axis=1).T  # column-major, as the blocks are
            cl, cu = c.lower._rows(Y), c.upper._rows(Y)
            ok = np.isfinite(cl) & np.isfinite(cu)
            if not ok.all():
                failed[idx[~ok]] = True
            up = cl > lo[idx]
            lo[idx[up]] = cl[up]
            down = cu < hi[idx]
            hi[idx[down]] = cu[down]
            covered |= mask
        bad = failed | ~covered | (lo > hi)
        lo[bad] = np.nan
        hi[bad] = np.nan
        return lo, hi

    def lower(self, x: Point) -> float:
        return self.evaluate(x)[0]

    def upper(self, x: Point) -> float:
        return self.evaluate(x)[1]

    def to_envelope_cert(self, region_radius: float) -> EnvelopeCert:
        """Package the aggregation as a ball certificate, never ``grid_exact``:
        its envelopes jump wherever the active set changes.

        Valid only when the covered region contains the whole ball; any gap
        surfaces as a ``CoverageError`` during construction-time validation
        or a later scan.  The two envelopes' batches share one ``_rows``
        call per read-only block (``last_block_memo``); a writeable block
        could change between the two calls, so each half computes its own.
        """
        rows = last_block_memo(self._rows)
        dim = self.cover.dim
        lower = Func(self.lower, region_radius, dim, "cover-aggregated lower",
                     lambda X: rows(X)[0])
        upper = Func(self.upper, region_radius, dim, "cover-aggregated upper",
                     lambda X: rows(X)[1])
        return EnvelopeCert(region_radius, lower, upper)


def aggregate_cover(cover: Cover) -> AggregatedEnvelope:
    """Aggregate a cover into a single evaluable envelope pair on the
    covered region (closed active balls; boundaries count)."""
    return AggregatedEnvelope(cover=cover)
