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
from typing import Callable, Iterable, Optional, Sequence

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
from .oracle import BLOCK_CELLS, Grid, LevelGrid, _check_gauge_cap

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


@dataclass(frozen=True)
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
        """``eta`` on the cells ``X x levels`` as the batch returns it, an
        array that broadcasts to ``(n, L)`` (a level-free field stays
        ``(n, 1)``); one NaN without ``batch``."""
        if self.batch is None:
            return np.full((1, 1), np.nan)
        with np.errstate(all="ignore"):
            V = np.asarray(self.batch(X, np.asarray(levels, dtype=np.float64)),
                           dtype=np.float64)
        np.broadcast_to(V, (len(X), len(levels)))  # raises unless it broadcasts
        return V


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


@dataclass(frozen=True)
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
        column-major, and merged into full-length buffers under its ball
        mask; a row stays NaN where a certificate fails, no certificate is
        active or the envelopes cross."""
        n = len(X)
        lo, hi = np.full(n, -np.inf), np.full(n, np.inf)
        L, U = np.zeros(n), np.zeros(n)
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
            L[idx], U[idx] = cl, cu
            np.copyto(lo, L, where=mask & (L > lo))
            np.copyto(hi, U, where=mask & (U < hi))
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
        lower = Func(lambda p: self.evaluate(p)[0], region_radius, dim, "cover-aggregated lower",
                     batch=lambda X: rows(X)[0])
        upper = Func(lambda p: self.evaluate(p)[1], region_radius, dim, "cover-aggregated upper",
                     batch=lambda X: rows(X)[1])
        return EnvelopeCert(region_radius=region_radius, lower=lower, upper=upper)


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
    field is declared grid-exact.  The base x level lattice is held to the
    oracle's gauge cap before the first block.

    The scan walks the base lattice's own blocks (so a one-block lattice is
    the cached one the oracle scans) in consecutive row chunks of at most
    ``BLOCK_CELLS // len(levels)`` points, which bounds the cells held at
    once and keeps the lattice order of the replay.
    """
    grid = Grid(tf.dim, tf.cylinder.R, grid_step_x)
    lgrid = LevelGrid(tf.cylinder.M, grid_step_t)
    _check_gauge_cap(grid, lgrid)
    levels = lgrid.values
    rows = max(1, BLOCK_CELLS // len(levels))
    best = 0.0
    for X in (B[i:i + rows] for B in grid.blocks() for i in range(0, len(B), rows)):
        V = tf._cells(X, levels)  # checked and reduced as the batch returns it
        ok = np.isfinite(V) & (V >= 0.0)
        if not ok.all():  # replay the bad cells through eta, in lattice order
            shape = (len(X), len(levels))
            V = np.array(np.broadcast_to(V, shape))
            ok = np.broadcast_to(ok, shape)
        for k in np.flatnonzero(~ok).tolist():
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
