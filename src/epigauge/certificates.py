"""Certificate patterns that yield computable gauge bounds.

Three patterns are supported, each turning certified side information into
a scalar bound on the cylinder gauge:

- bracketing envelopes ``lower <= target <= upper`` on a ball around the
  origin (``EnvelopeCert``): the width supremum bounds the gauge for every
  level band;
- neighborhood-wise envelopes on a union of balls (``LocalCert`` /
  ``Cover``), aggregated pointwise into a single envelope pair;
- a direct nonnegative tolerance field on the cylinder
  (``ToleranceField``): its supremum bounds the gauge.

Honesty rules baked in: grid suprema are *certified* only for envelope
families declared grid-exact (the supremum is attained on lattice nodes,
e.g. constants or affine pieces with lattice breakpoints); anything else
is recorded as a grid estimate.  Inconsistent input certificates are
surfaced as errors, never repaired, because repairing would fabricate a
certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    TAU,
    Cylinder,
    Func,
    GaugeBound,
    Point,
    Provenance,
    ball_mask,
    eval_rows,
    in_closed_ball,
    norms,
)
from .errors import (
    CertificateViolationError,
    CoverageError,
    DomainError,
    InconsistentCoverError,
    PreconditionError,
)
from .oracle import Grid, LevelGrid

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


def _check_not_crossed(lower: Func, upper: Func, X: np.ndarray, what: str) -> None:
    """Raise on the first row of ``X`` (lattice order) where ``lower >
    upper``, or where evaluating ``lower`` then ``upper`` raises."""
    (lo, hi), stop, error = eval_rows((lower, upper), X)
    crossed = np.flatnonzero(lo[:stop] > hi[:stop])
    if crossed.size:
        i = crossed[0]
        raise CertificateViolationError(
            f"{what} inconsistent: lower={float(lo[i])!r} > upper={float(hi[i])!r} "
            f"at {Point(tuple(X[i].tolist()))}"
        )
    if error is not None:
        raise error


@dataclass(frozen=True)
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
        if not (self.region_radius > 0) or not math.isfinite(self.region_radius):
            raise PreconditionError(
                f"region_radius must be finite and > 0, got {self.region_radius!r}"
            )
        if self.lower.dim != self.upper.dim:
            raise PreconditionError("lower/upper envelopes must share a dimension")
        for f in (self.lower, self.upper):
            if self.region_radius > f.domain_radius * (1.0 + TAU) + TAU:
                raise PreconditionError(
                    f"region_radius {self.region_radius!r} exceeds domain radius of "
                    f"envelope {f.label or '<unnamed>'}"
                )
        grid = Grid(self.lower.dim, self.region_radius, _validation_step(self.region_radius))
        for X in grid.blocks():
            _check_not_crossed(self.lower, self.upper, X, "envelope certificate")

    @property
    def dim(self) -> int:
        return self.lower.dim


@dataclass(frozen=True)
class LocalCert:
    """Bracketing pair certified on the closed ball of ``radius`` around
    ``center`` (one query's neighborhood)."""

    center: Point
    radius: float
    lower: Func
    upper: Func

    def __post_init__(self) -> None:
        if not (self.radius > 0) or not math.isfinite(self.radius):
            raise PreconditionError(f"local cert radius must be finite and > 0, got {self.radius!r}")
        if self.lower.dim != self.upper.dim or self.lower.dim != self.center.dim:
            raise PreconditionError("local cert center and envelopes must share a dimension")
        # Domain must contain the ball around center (Func domains are centered
        # at the origin, so ||center|| + radius suffices).
        needed = self.center.norm() + self.radius
        for f in (self.lower, self.upper):
            if needed > f.domain_radius * (1.0 + TAU) + TAU:
                raise PreconditionError(
                    f"envelope {f.label or '<unnamed>'} domain radius {f.domain_radius!r} "
                    f"does not contain the local ball (needs {needed!r})"
                )
        step = _validation_step(self.radius)
        offsets = Grid(self.center.dim, self.radius, step)
        center = np.asarray(self.center.coords)
        for off in offsets.blocks():
            _check_not_crossed(self.lower, self.upper, center + off, "local certificate")

    def is_active(self, x: Point) -> bool:
        """Closed-ball membership: boundary points count as covered."""
        return in_closed_ball(x, self.radius, self.center)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ToleranceField:
    """A certified pointwise bound ``eta(x, t) >= 0`` on the vertical
    discrepancy over the cylinder.  Negative values found during a scan are
    a certificate violation, not data to be clamped.

    ``batch``, when present, maps base points ``X`` (``(n, dim)``) and
    levels ``T`` (``(L,)``) to an array broadcastable to ``(n, L)`` that
    agrees with ``eta`` bit for bit; the ``constant`` and ``radial_affine``
    constructors supply it.  Without it, scans call ``eta`` cell by cell.
    """

    eta: Callable[[Point, float], float]
    cylinder: Cylinder
    dim: int = 1
    grid_exact: bool = False
    batch: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not callable(self.eta):
            raise PreconditionError("eta must be callable")
        if self.batch is not None and not callable(self.batch):
            raise PreconditionError("batch must be callable")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise PreconditionError(f"dim must be an integer >= 1, got {self.dim!r}")

    @classmethod
    def constant(cls, value: float, cylinder: Cylinder, dim: int = 1,
                 grid_exact: bool = False) -> "ToleranceField":
        """``eta(x, t) = value``."""
        value = float(value)
        return cls(eta=lambda p, t, _v=value: _v, cylinder=cylinder, dim=dim,
                   grid_exact=grid_exact,
                   batch=lambda X, T, _v=value: np.full((len(X), 1), _v))

    @classmethod
    def radial_affine(cls, base: float, slope: float, cylinder: Cylinder, dim: int = 1,
                      grid_exact: bool = False) -> "ToleranceField":
        """``eta(x, t) = base + slope * ||x|| / R`` with ``R`` the cylinder's
        base radius."""
        base, slope, R = float(base), float(slope), cylinder.R
        return cls(eta=lambda p, t, _b=base, _s=slope, _R=R: _b + _s * (p.norm() / _R),
                   cylinder=cylinder, dim=dim, grid_exact=grid_exact,
                   batch=lambda X, T, _b=base, _s=slope, _R=R:
                       (_b + _s * (norms(X) / _R))[:, None])

    def _cells(self, X: np.ndarray, levels: Sequence[float]) -> np.ndarray:
        """``eta`` on the cells ``X x levels`` as an ``(n, L)`` array.
        Without ``batch``, cells are evaluated in lattice order and every
        cell from the first raising one on is NaN."""
        shape = (len(X), len(levels))
        if self.batch is not None:
            with np.errstate(all="ignore"):
                V = self.batch(X, np.asarray(levels, dtype=np.float64))
            return np.broadcast_to(np.asarray(V, dtype=np.float64), shape)
        out = np.full(shape, np.nan)
        for i, row in enumerate(X.tolist()):
            p = Point(tuple(row))
            for j, t in enumerate(levels):
                try:
                    out[i, j] = float(self.eta(p, t))
                except Exception:  # the scan replays this cell and raises
                    return out
        return out


# ---------------------------------------------------------------------------
# Width bounds and bracketing validation
# ---------------------------------------------------------------------------


def _estimate_note(grid_exact: bool, what: str = "envelope family") -> str:
    if grid_exact:
        return f"certified: {what} declared grid-exact"
    return "grid estimate (lower bound of true sup); not a certificate"


def envelope_width_bound(cert: EnvelopeCert, cyl: Cylinder, grid_step: float) -> GaugeBound:
    """Scan the envelope width ``upper - lower`` over the base lattice.

    The width supremum on the ball bounds the gauge for *every* level band,
    so the returned bound carries ``cyl`` unchanged.  Certified only when
    the certificate is declared grid-exact; otherwise the record is marked
    as a grid estimate.
    """
    if cyl.R > cert.region_radius * (1.0 + TAU) + TAU:
        raise PreconditionError(
            f"cylinder base radius {cyl.R!r} exceeds certified region radius "
            f"{cert.region_radius!r}"
        )
    grid = Grid(cert.dim, cyl.R, grid_step)
    width = 0.0
    for X in grid.blocks():
        (hi, lo), stop, error = eval_rows((cert.upper, cert.lower), X)
        w = hi[:stop] - lo[:stop]
        negative = np.flatnonzero(w < 0)
        if negative.size:
            i = negative[0]
            raise CertificateViolationError(
                f"envelope width negative ({float(w[i])!r}) at "
                f"{Point(tuple(X[i].tolist()))}: certificate inconsistent"
            )
        if error is not None:
            raise error
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


@dataclass(frozen=True)
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
    if cyl.R > cert.region_radius * (1.0 + TAU) + TAU:
        raise PreconditionError(
            f"cylinder base radius {cyl.R!r} exceeds certified region radius "
            f"{cert.region_radius!r}"
        )
    if candidate.dim != cert.dim:
        raise DomainError("candidate dimension does not match the certificate")
    if cyl.R > candidate.domain_radius * (1.0 + TAU) + TAU:
        raise DomainError(
            f"candidate domain radius {candidate.domain_radius!r} does not cover the base disk"
        )
    grid = Grid(cert.dim, cyl.R, grid_step)
    failures = []
    checked = 0
    for X in grid.blocks():
        (lo, hi, v), _, error = eval_rows((cert.lower, cert.upper, candidate), X)
        if error is not None:
            raise error
        checked += len(X)
        for i in np.flatnonzero(~((lo <= v) & (v <= hi))).tolist():
            failures.append((Point(tuple(X[i].tolist())), float(lo[i]), float(v[i]),
                             float(hi[i])))
    return BracketingReport(failures=tuple(failures), points_checked=checked,
                            grid_step=grid_step)


# ---------------------------------------------------------------------------
# Cover aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregatedEnvelope:
    """Pointwise aggregation of a cover: at each covered point, the best
    lower envelope is the max of the active lower envelopes and the best
    upper envelope is the min of the active upper ones.

    Evaluation outside the covered region is a hard ``CoverageError``;
    aggregated lower > upper raises ``InconsistentCoverError`` (the input
    certificates cannot all be true, and the contradiction must surface).
    """

    cover: Cover

    def active(self, x: Point) -> tuple[int, ...]:
        return tuple(i for i, c in enumerate(self.cover.certs) if c.is_active(x))

    def contains(self, x: Point) -> bool:
        return any(c.is_active(x) for c in self.cover.certs)

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
        ``max`` / ``min`` do."""
        n = len(X)
        lo, hi = np.full(n, np.nan), np.full(n, np.nan)
        covered, failed = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        for c in self.cover.certs:
            idx = np.flatnonzero(ball_mask(X, c.radius, c.center))
            if not idx.size:
                continue
            Y = X[idx]
            cl, cu = c.lower._rows(Y), c.upper._rows(Y)
            failed[idx] |= ~(np.isfinite(cl) & np.isfinite(cu))
            first = ~covered[idx]
            lo[idx] = np.where(first | (cl > lo[idx]), cl, lo[idx])
            hi[idx] = np.where(first | (cu < hi[idx]), cu, hi[idx])
            covered[idx] = True
        bad = failed | ~covered | (lo > hi)
        lo[bad] = np.nan
        hi[bad] = np.nan
        return lo, hi

    def lower(self, x: Point) -> float:
        return self.evaluate(x)[0]

    def upper(self, x: Point) -> float:
        return self.evaluate(x)[1]

    def to_envelope_cert(self, region_radius: float, grid_exact: bool = False) -> EnvelopeCert:
        """Package the aggregation as a ball certificate.

        Valid only when the covered region contains the whole ball; any gap
        surfaces as a ``CoverageError`` during construction-time validation
        or a later scan.
        """
        dim = self.cover.dim
        lower = Func(lambda p: self.evaluate(p)[0], region_radius, dim, "cover-aggregated lower",
                     batch=lambda X: self._rows(X)[0])
        upper = Func(lambda p: self.evaluate(p)[1], region_radius, dim, "cover-aggregated upper",
                     batch=lambda X: self._rows(X)[1])
        return EnvelopeCert(region_radius=region_radius, lower=lower, upper=upper,
                            grid_exact=grid_exact)


def aggregate_cover(cover: Cover) -> AggregatedEnvelope:
    """Aggregate a cover into a single evaluable envelope pair on the
    covered region (closed active balls; boundaries count)."""
    return AggregatedEnvelope(cover=cover)


# ---------------------------------------------------------------------------
# Tolerance fields
# ---------------------------------------------------------------------------


def gauge_from_tolerance_field(tf: ToleranceField, grid_step_x: float,
                               grid_step_t: float) -> GaugeBound:
    """Scan a tolerance field over the cylinder lattice and return its max
    as a gauge bound.

    ``eta`` must be nonnegative everywhere on the cylinder; a negative
    scanned value is a certificate violation.  Certified only when the
    field is declared grid-exact.
    """
    grid = Grid(tf.dim, tf.cylinder.R, grid_step_x)
    lgrid = LevelGrid(tf.cylinder.M, grid_step_t)
    levels = lgrid.values
    best = 0.0
    for X in grid.blocks(cells_per_point=len(levels)):
        V = tf._cells(X, levels)
        bad = np.flatnonzero(~(np.isfinite(V) & (V >= 0.0)))
        if bad.size:  # replay through eta, in lattice order
            V = np.array(V)
        for k in bad.tolist():
            i, j = divmod(k, len(levels))
            p, t = Point(tuple(X[i].tolist())), levels[j]
            v = float(tf.eta(p, t))
            if not math.isfinite(v) or v < 0:
                raise CertificateViolationError(
                    f"tolerance field returned {v!r} at ({p}, t={t!r}); "
                    f"a vertical tolerance must be finite and >= 0"
                )
            V[i, j] = v
        vm = float(V.max())
        if vm > best:
            best = vm
    return GaugeBound(
        delta=best,
        cylinder=tf.cylinder,
        provenance=Provenance.TOLERANCE_FIELD,
        certified=tf.grid_exact,
        detail=(
            f"tolerance sup over cylinder lattice (step_x={grid_step_x!r}, "
            f"step_t={grid_step_t!r}); {_estimate_note(tf.grid_exact, 'tolerance field')}"
        ),
    )
