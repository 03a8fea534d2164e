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

Honesty rules baked in: the ``constant`` and ``radial_affine`` tolerance
fields are certified by their closed-form sup, with no scan.  Any other
grid supremum is *certified* only for a family declared grid-exact (the
supremum is attained on lattice nodes, e.g. constants or affine pieces
with lattice breakpoints); anything else is recorded as a grid estimate.
Inconsistent input certificates are surfaced as errors, never repaired,
because repairing would fabricate a certificate.
"""

from __future__ import annotations

import math
from dataclasses import field
from typing import Callable, Iterable, Optional

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
    DomainError,
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
    "BracketingReport",
    "envelope_width_bound",
    "validate_bracketing",
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

    def is_active(self, x: Point) -> bool:
        """Closed-ball membership: boundary points count as covered."""
        return in_closed_ball(x, self.radius, self.center)


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
    ``t = -M``.  Negative values are a certificate violation, not data to
    be clamped.

    ``batch``, when present, computes ``eta`` on every row of an
    ``(n, dim)`` float64 array, as ``Func.batch`` does: it agrees with
    ``eta`` bit for bit wherever its result is finite, and a non-finite
    entry only means "ask ``eta``".  Without it, scans call ``eta`` point
    by point.

    The ``constant`` and ``radial_affine`` constructors also record the
    exact range ``(min, max)`` of ``eta`` over the base ball, so their
    sup is certified in closed form, with no scan and whatever
    ``grid_exact`` says.  Only those constructors set it: a field built
    from a callable, or rebuilt by ``dataclasses.replace``, has none, and
    its lattice max is certified only when declared ``grid_exact``.
    """

    eta: Callable[[Point], float]
    cylinder: Cylinder
    dim: int = 1
    grid_exact: bool = False
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False)
    _range: Optional[tuple[float, float]] = field(
        default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not callable(self.eta):
            raise PreconditionError("eta must be callable")
        if self.batch is not None and not callable(self.batch):
            raise PreconditionError("batch must be callable")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise PreconditionError(f"dim must be an integer >= 1, got {self.dim!r}")

    @classmethod
    def constant(cls, value: float, cylinder: Cylinder, dim: int = 1) -> "ToleranceField":
        """``eta(x) = value``; its sup is ``value``."""
        value = float(value)
        tf = cls(eta=lambda p, _v=value: _v, cylinder=cylinder, dim=dim,
                 batch=lambda X, _v=value: np.full(len(X), _v))
        object.__setattr__(tf, "_range", (value, value))
        return tf

    @classmethod
    def radial_affine(cls, base: float, slope: float, cylinder: Cylinder,
                      dim: int = 1) -> "ToleranceField":
        """``eta(x) = base + slope * ||x|| / R`` with ``R`` the cylinder's
        base radius; its sup over the base ball is ``base + max(slope, 0)``."""
        base, slope, R = float(base), float(slope), cylinder.R
        rim = base + slope * (R / R)  # eta's own operations at a node of norm R
        tf = cls(eta=lambda p, _b=base, _s=slope, _R=R: _b + _s * (p.norm() / _R),
                 cylinder=cylinder, dim=dim,
                 batch=lambda X, _b=base, _s=slope, _R=R: _b + _s * (norms(X) / _R))
        # a NaN end compares false and stays in the range, which then fails the check
        object.__setattr__(tf, "_range", (base, rim) if base <= rim else (rim, base))
        return tf


# ---------------------------------------------------------------------------
# Width bounds and bracketing validation
# ---------------------------------------------------------------------------


def _estimate_note(grid_exact: bool, what: str = "envelope family") -> str:
    if grid_exact:
        return f"certified: {what} declared grid-exact"
    return "grid estimate (lower bound of true sup); not a certificate"


def _require_in_region(cert: EnvelopeCert, cyl: Cylinder) -> None:
    if cyl.R > slack_radius(cert.region_radius):
        raise PreconditionError(
            f"cylinder base radius {cyl.R!r} exceeds certified region radius "
            f"{cert.region_radius!r}"
        )


def envelope_width_bound(cert: EnvelopeCert, cyl: Cylinder, grid_step: float) -> GaugeBound:
    """Scan the envelope width ``upper - lower`` over the base lattice.

    The width supremum on the ball bounds the gauge for *every* level band,
    so the returned bound carries ``cyl`` unchanged.  Certified only when
    the certificate is declared grid-exact; otherwise the record is marked
    as a grid estimate.
    """
    _require_in_region(cert, cyl)
    grid = Grid(cert.dim, cyl.R, grid_step)
    width = 0.0
    for X, (hi, lo) in evaluated(grid.blocks(), cert.upper, cert.lower):
        with np.errstate(over="ignore"):  # rounds to inf, as the scalar difference does
            w = hi - lo
        negative = np.flatnonzero(w < 0)
        if negative.size:
            i = negative[0]
            raise CertificateViolationError(
                f"envelope width negative ({float(w[i])!r}) at "
                f"{Point(tuple(X[i].tolist()))}: certificate inconsistent"
            )
        wm = float(w.max())
        if wm > width:
            width = wm
    return GaugeBound(
        delta=width,
        cylinder=cyl,
        provenance=Provenance.ENVELOPE,
        certified=cert.grid_exact,
        detail=f"width sup over base lattice (step={grid_step!r}); {_estimate_note(cert.grid_exact)}",
    )


@record
class BracketingReport:
    """Result of checking ``lower <= candidate <= upper`` on a lattice.
    Empty ``failures`` means the sandwich held at every checked point; that
    is a grid statement, not a certificate."""

    failures: tuple[tuple[Point, float, float, float], ...]  # (point, lower, value, upper)
    points_checked: int
    grid_step: float

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_bracketing(cert: EnvelopeCert, candidate: Func, cyl: Cylinder,
                        grid_step: float) -> BracketingReport:
    """Check a candidate surrogate against the envelope sandwich on the
    base lattice of the cylinder."""
    _require_in_region(cert, cyl)
    if candidate.dim != cert.dim:
        raise DomainError("candidate dimension does not match the certificate")
    if cyl.R > slack_radius(candidate.domain_radius):
        raise DomainError(
            f"candidate domain radius {candidate.domain_radius!r} does not cover the base disk"
        )
    grid = Grid(cert.dim, cyl.R, grid_step)
    failures = []
    checked = 0
    for X, (lo, hi, v) in evaluated(grid.blocks(), cert.lower, cert.upper, candidate):
        checked += len(X)
        for i in np.flatnonzero(~((lo <= v) & (v <= hi))).tolist():
            failures.append((Point(tuple(X[i].tolist())), float(lo[i]), float(v[i]),
                             float(hi[i])))
    return BracketingReport(failures=tuple(failures), points_checked=checked,
                            grid_step=grid_step)


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
        return tuple(i for i, c in enumerate(self.cover.certs) if c.is_active(x))

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
                     batch=lambda X: rows(X)[0])
        upper = Func(self.upper, region_radius, dim, "cover-aggregated upper",
                     batch=lambda X: rows(X)[1])
        return EnvelopeCert(region_radius=region_radius, lower=lower, upper=upper)


def aggregate_cover(cover: Cover) -> AggregatedEnvelope:
    """Aggregate a cover into a single evaluable envelope pair on the
    covered region (closed active balls; boundaries count)."""
    return AggregatedEnvelope(cover=cover)


# ---------------------------------------------------------------------------
# Tolerance fields
# ---------------------------------------------------------------------------


def gauge_from_tolerance_field(tf: ToleranceField, grid_step: float) -> GaugeBound:
    """The sup of a tolerance field over the base ball, as a gauge bound.

    ``eta`` must be finite and nonnegative everywhere on the base ball.
    The base lattice is held to the oracle's cap first, whatever path
    follows.  A field from ``ToleranceField.constant`` or ``radial_affine``
    whose recorded range is finite and nonnegative returns its closed-form
    max, certified, without evaluating ``eta`` or ``batch``.

    Any other field is scanned over the base lattice: rows the batch
    leaves non-finite or negative (every row without ``batch``) are
    replayed through ``eta``, the first non-finite or negative value
    raises, in lattice order, and the lattice max is certified only when
    the field is declared grid-exact.  A recorded range that fails the
    check raises too, even where no lattice node sees the bad value.
    """
    grid = Grid(tf.dim, tf.cylinder.R, grid_step)
    closed = tf._range  # (min, max); NaN fails both tests, and min <= max otherwise
    if closed is not None and 0.0 <= closed[0] and math.isfinite(closed[1]):
        return GaugeBound(
            delta=closed[1],
            cylinder=tf.cylinder,
            provenance=Provenance.TOLERANCE_FIELD,
            certified=True,
            detail="tolerance sup over the base ball in closed form; certified, no lattice scan",
        )
    best = 0.0
    for X in grid.blocks():
        V = np.full(len(X), np.nan)
        if tf.batch is not None:
            with np.errstate(all="ignore"):
                V[...] = tf.batch(X)
        for i in np.flatnonzero(~(np.isfinite(V) & (V >= 0.0))).tolist():
            p = Point(tuple(X[i].tolist()))
            v = float(tf.eta(p))
            if not math.isfinite(v) or v < 0:
                raise CertificateViolationError(
                    f"tolerance field returned {v!r} at {p}; "
                    f"a vertical tolerance must be finite and >= 0"
                )
            V[i] = v
        best = max(best, float(V.max()))
    if closed is not None:  # the bad value lies between the lattice nodes
        lo, hi = closed
        bad = hi if 0.0 <= lo else lo
        raise CertificateViolationError(
            f"tolerance field reaches {bad!r} on the base ball (closed form, between "
            f"lattice nodes); a vertical tolerance must be finite and >= 0"
        )
    return GaugeBound(
        delta=best,
        cylinder=tf.cylinder,
        provenance=Provenance.TOLERANCE_FIELD,
        certified=tf.grid_exact,
        detail=(
            f"tolerance sup over base lattice (step={grid_step!r}); "
            f"{_estimate_note(tf.grid_exact, 'tolerance field')}"
        ),
    )
