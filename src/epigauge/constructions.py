"""Canonical function constructions with exact closed forms.

Three families, each demonstrating one structural fact about vertical
epigraphic control, all built from exactly representable primitives so
their stated properties can be checked at zero or TAU tolerance:

- ``SharpnessFamily``: a quadratic and its clipped drop.  The vertical
  discrepancy never exceeds the drop ``delta``, yet the surrogate's
  minimizer plateau has half-width ``sqrt(2*delta/mu)``, so the
  square-root displacement rate cannot be improved.
- ``StrictnessPair``: two constants parked below the level band.  The
  cylinder gauge is exactly zero while the uniform value gap is ``A``:
  vertical control localized in both base and level is strictly weaker
  than uniform value control.
- ``ImpossibilityPair``: zero versus a tent bump vanishing at every query
  point.  Finitely many exact queries cannot distinguish the pair, whose
  uniform gap is at least ``A``: no finite transcript certifies a uniform
  sup without extra structure.

``sharpness_sweep`` drives the displacement experiment over a range of
drops and fits the log-log slope of observed displacement versus drop.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Optional, Sequence

import numpy as np

from .core import ClosedBall, FinitePointSet, Func, Point, in_closed_ball, norms
from .errors import ConstructionError, PreconditionError
from .oracle import Grid, dist_to_set, dist_to_set_rows, grid_argmin
from .stability import GrowthCert

__all__ = [
    "SharpnessFamily",
    "StrictnessPair",
    "ImpossibilityPair",
    "SweepRow",
    "SweepResult",
    "build_sharpness_pair",
    "build_strictness_pair",
    "build_impossibility_pair",
    "sharpness_sweep",
]


# ---------------------------------------------------------------------------
# Sharpness family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SharpnessFamily:
    """``f(x) = (mu/2) x^2`` on the line and ``g = max(f - delta, 0)``.

    ``g`` vanishes exactly on the plateau ``|x| <= sqrt(2*delta/mu)`` and
    the pair's vertical discrepancy is at most ``delta`` on any cylinder.
    ``argmin_radius`` is the plateau half-width; ``extreme_minimizer`` is
    the plateau's right endpoint, realizing the worst displacement.
    """

    mu: float
    delta: float
    f: Func
    g: Func

    @property
    def argmin_radius(self) -> float:
        return math.sqrt(2.0 * self.delta / self.mu)

    @property
    def extreme_minimizer(self) -> Point:
        return Point((self.argmin_radius,))

    @property
    def surrogate_argmin(self) -> ClosedBall:
        return ClosedBall(center=Point.origin(1), radius=self.argmin_radius)

    @property
    def target_argmin(self) -> FinitePointSet:
        return FinitePointSet((Point.origin(1),))

    def growth_cert(self, radius: float) -> GrowthCert:
        """Growth certificate of the target quadratic (exact: equality case)."""
        return GrowthCert(mu=self.mu, radius=radius, argmin_set=self.target_argmin,
                          inf_value=0.0)

    def displacement_bound_value(self) -> float:
        return 2.0 * math.sqrt(self.delta / self.mu)


def build_sharpness_pair(mu: float, delta: float) -> SharpnessFamily:
    if not (mu > 0) or not math.isfinite(mu):
        raise PreconditionError(f"mu must be finite and > 0, got {mu!r}")
    if not (delta > 0) or not math.isfinite(delta):
        raise PreconditionError(f"delta must be finite and > 0, got {delta!r}")
    f = Func.quadratic(mu / 2.0, dim=1, label=f"{mu / 2.0!r}*x^2")
    g = Func.clamp_shift(f, delta, label=f"pospart({mu / 2.0!r}*x^2 - {delta!r})")
    return SharpnessFamily(mu=mu, delta=delta, f=f, g=g)


# ---------------------------------------------------------------------------
# Strictness pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrictnessPair:
    """Constants ``f = -(M+1)`` and ``g = -(M+1) - A``: both graphs sit
    strictly below the level band ``[-M, M]``, so every vertical gap inside
    the cylinder is zero for both, while ``|f - g| = A`` everywhere."""

    R: float
    M: float
    A: float
    f: Func
    g: Func

    @property
    def f_level(self) -> float:
        return -(self.M + 1.0)

    @property
    def g_level(self) -> float:
        return -(self.M + 1.0) - self.A


def build_strictness_pair(R: float, M: float, A: float) -> StrictnessPair:
    for name, v in (("R", R), ("M", M), ("A", A)):
        if not (v > 0) or not math.isfinite(v):
            raise PreconditionError(f"{name} must be finite and > 0, got {v!r}")
    f_level = -(M + 1.0)
    g_level = f_level - A
    f = Func.constant(f_level, dim=1, label=f"const({f_level!r})")
    g = Func.constant(g_level, dim=1, label=f"const({g_level!r})")
    return StrictnessPair(R=R, M=M, A=A, f=f, g=g)


# ---------------------------------------------------------------------------
# Impossibility pair
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ImpossibilityPair:
    """``f = 0`` and ``g`` a tent bump of height ``A`` at ``y`` with
    footprint radius ``rho`` chosen strictly below half the clearance to
    the nearest query, so that ``g`` is exactly zero at every query point
    while ``sup |f - g| >= A``."""

    R: float
    queries: tuple[Point, ...]
    y: Point
    rho: float
    A: float
    f: Func
    g: Func

    def lipschitz_bound(self) -> float:
        """Slope bound of the bump: ``A / rho``."""
        return self.A / self.rho


def _min_query_distance(y: Point, queries: Sequence[Point]) -> float:
    return min(y.dist(q) for q in queries)


def _auto_peak(R: float, queries: Sequence[Point], search_step: float) -> Point:
    """Deterministic peak selection: lattice point of the ball maximizing
    the minimum distance to the queries; ties broken by smaller norm, then
    lexicographically."""
    dim = queries[0].dim
    grid = Grid(dim, R, search_step)
    best_key: Optional[tuple[float, float]] = None
    best_p: Optional[Point] = None
    for X in grid.blocks():
        clearance = dist_to_set_rows(X, FinitePointSet(tuple(queries)))
        neg_norm = -norms(X)
        # Lexicographic max of (clearance, -norm); the first such point in
        # lattice order is the lexicographically smallest.
        top = np.flatnonzero(clearance == clearance.max())
        i = top[np.argmax(neg_norm[top])]
        key = (float(clearance[i]), float(neg_norm[i]))
        if best_key is None or key > best_key:
            best_key, best_p = key, Point(tuple(X[i].tolist()))
    assert best_key is not None and best_p is not None
    if best_key[0] <= 0.0:
        raise ConstructionError(
            "no lattice point with positive clearance from the queries; the queries "
            "fill the search grid (try a finer search_step)"
        )
    return best_p


def build_impossibility_pair(R: float, queries: Sequence[Point], A: float,
                             y: Optional[Point] = None,
                             search_step: Optional[float] = None) -> ImpossibilityPair:
    """Build the indistinguishable-from-queries pair.

    With ``y=None`` the peak is picked on a search lattice (step defaults
    to ``R/64``) by maximizing the clearance to the queries.  The footprint
    radius is half the clearance, so the bump vanishes on a neighborhood of
    every query and the zero values there are bit-exact.
    """
    if not (R > 0) or not math.isfinite(R):
        raise PreconditionError(f"R must be finite and > 0, got {R!r}")
    if not (A >= 0) or not math.isfinite(A):
        raise PreconditionError(f"A must be finite and >= 0, got {A!r}")
    queries_t = tuple(queries)
    if not queries_t:
        raise PreconditionError("at least one query point is required")
    dim = queries_t[0].dim
    if any(q.dim != dim for q in queries_t):
        raise PreconditionError("query points must share a dimension")
    for q in queries_t:
        if not in_closed_ball(q, R):
            raise PreconditionError(f"query {q} lies outside the ball of radius {R!r}")

    if y is None:
        y = _auto_peak(R, queries_t, search_step if search_step is not None else R / 64.0)
    else:
        if y.dim != dim:
            raise PreconditionError("peak point dimension does not match the queries")
        if not in_closed_ball(y, R):
            raise PreconditionError(f"peak point {y} lies outside the ball of radius {R!r}")

    clearance = _min_query_distance(y, queries_t)
    rho = 0.5 * clearance
    if not (rho > 0):
        raise ConstructionError(
            f"peak point {y} coincides with a query; no positive footprint radius exists"
        )
    f = Func.constant(0.0, dim=dim, label="const(0.0)")
    g = Func.bump(y, rho, A, label=f"bump(y={y}, rho={rho!r}, A={A!r})")
    return ImpossibilityPair(R=R, queries=queries_t, y=y, rho=rho, A=A, f=f, g=g)


# ---------------------------------------------------------------------------
# Sharpness sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One drop size: the extreme lattice minimizer of the clipped
    surrogate, its distance to the target minimizer, the certified
    displacement bound, and the grid slack added when comparing the two."""

    delta: float
    argmin: float
    dist: float
    bound: float
    slack: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    slope: float
    mu: float
    grid_step: float
    radius: float

    CSV_COLUMNS = ("delta", "argmin", "dist", "bound", "slack")

    def to_csv(self, out: IO[str]) -> None:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([repr(r.delta), repr(r.argmin), repr(r.dist),
                             repr(r.bound), repr(r.slack)])


def sharpness_sweep(mu: float, deltas: Sequence[float], grid_step: float,
                    radius: Optional[float] = None, threads: int = 1) -> SweepResult:
    """Run the displacement experiment for each drop size.

    For each ``delta`` the surrogate's lattice argmin plateau is scanned;
    the extreme tied point (largest distance to the target minimizer, then
    lexicographically last) is tabulated against the certified bound
    ``2*sqrt(delta/mu)`` with grid slack ``2*grid_step``.  The returned
    slope is the least-squares fit of ``log(dist)`` versus ``log(delta)``.

    The step must resolve the smallest plateau: ``grid_step <
    sqrt(2*min(delta)/mu)/10`` is required, otherwise the scan error would
    swamp the quantity being measured.
    """
    if not (mu > 0) or not math.isfinite(mu):
        raise PreconditionError(f"mu must be finite and > 0, got {mu!r}")
    deltas_t = tuple(float(d) for d in deltas)
    if not deltas_t:
        raise PreconditionError("at least one delta is required")
    if any(not (d > 0) or not math.isfinite(d) for d in deltas_t):
        raise PreconditionError("all deltas must be finite and > 0")
    if any(b < a for a, b in zip(deltas_t, deltas_t[1:])):
        raise PreconditionError("deltas must be sorted ascending")
    if not (grid_step > 0):
        raise PreconditionError(f"grid_step must be > 0, got {grid_step!r}")
    smallest_plateau = math.sqrt(2.0 * deltas_t[0] / mu)
    if not (grid_step < smallest_plateau / 10.0):
        raise PreconditionError(
            f"grid step {grid_step!r} too coarse to resolve the smallest plateau "
            f"half-width {smallest_plateau!r} (need step < {smallest_plateau / 10.0!r})"
        )
    largest_plateau = math.sqrt(2.0 * deltas_t[-1] / mu)
    if radius is None:
        radius = max(1.5 * largest_plateau, 20.0 * grid_step)
    elif radius <= largest_plateau:
        raise PreconditionError(
            f"sweep radius {radius!r} does not contain the largest plateau "
            f"half-width {largest_plateau!r}"
        )

    target = FinitePointSet((Point.origin(1),))
    grid = Grid(1, radius, grid_step)
    rows = []
    for delta in deltas_t:
        family = build_sharpness_pair(mu, delta)
        result = grid_argmin(family.g, grid, threads=threads)
        ties = np.array([p.coords for p in result.points])
        dist = dist_to_set_rows(ties, target)
        far = np.flatnonzero(dist == dist.max())
        extreme = result.points[far[np.argmax(ties[far, 0])]]
        d = dist_to_set(extreme, target)
        rows.append(SweepRow(
            delta=delta,
            argmin=extreme.coords[0],
            dist=d,
            bound=family.displacement_bound_value(),
            slack=2.0 * grid_step,
        ))

    log_d = np.log([r.delta for r in rows])
    log_dist = np.log([r.dist for r in rows])
    if len(rows) >= 2:
        slope = float(np.polyfit(log_d, log_dist, 1)[0])
    else:
        slope = float("nan")
    return SweepResult(rows=tuple(rows), slope=slope, mu=mu, grid_step=grid_step,
                       radius=radius)
