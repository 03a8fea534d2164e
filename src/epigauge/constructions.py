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

import math
from dataclasses import replace
from typing import IO, Optional, Sequence

import numpy as np

from .core import (TAU, FinitePointSet, Func, Point, in_closed_ball, last_block_memo,
                   norms, record, require_positive)
from .errors import ConstructionError, OracleCapError, PreconditionError
from .oracle import LATTICE_CAP, Grid, dist_to_set, dist_to_set_rows, grid_argmin
from .stability import square_root_rule

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


@record
class SharpnessFamily:
    """``f(x) = (mu/2) x^2`` on the line and ``g = max(f - delta, 0)``.

    ``g`` vanishes exactly on the plateau ``|x| <= sqrt(2*delta/mu)`` and
    the pair's vertical discrepancy is at most ``delta`` on any cylinder.
    ``argmin_radius`` is the plateau half-width: the plateau's endpoints
    realize the worst displacement.
    """

    mu: float
    delta: float
    f: Func
    g: Func

    @property
    def argmin_radius(self) -> float:
        return math.sqrt(2.0 * self.delta / self.mu)


def build_sharpness_pair(mu: float, delta: float) -> SharpnessFamily:
    require_positive(mu, "mu")
    require_positive(delta, "delta")
    f = Func.quadratic(mu / 2.0, label=f"{mu / 2.0!r}*x^2")
    g = Func.clamp_shift(f, delta)
    return SharpnessFamily(mu=mu, delta=delta, f=f, g=g)


# ---------------------------------------------------------------------------
# Strictness pair
# ---------------------------------------------------------------------------


@record
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
        require_positive(v, name)
    f_level = -(M + 1.0)
    g_level = f_level - A
    if abs((f_level - g_level) - A) > TAU:  # the levels round at -(M+1)
        raise PreconditionError(f"strictness levels -(M+1) and -(M+1)-A differ by "
                                f"{f_level - g_level!r}, not A = {A!r}, at M = {M!r}")
    return StrictnessPair(R=R, M=M, A=A, f=Func.constant(f_level), g=Func.constant(g_level))


# ---------------------------------------------------------------------------
# Impossibility pair
# ---------------------------------------------------------------------------


@record
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


def _auto_peak(R: float, queries: Sequence[Point]) -> Point:
    """Deterministic peak selection: the point of the ball's lattice of
    step ``R/64`` maximizing the minimum distance to the queries; ties
    broken by smaller norm, then lexicographically."""
    dim = queries[0].dim
    grid = Grid(dim, R, R / 64.0)
    best_key: Optional[tuple[float, float]] = None
    best_p: Optional[Point] = None
    for X in grid.blocks():
        with np.errstate(over="ignore"):  # rounds to inf, as ``Point.dist`` does
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
            "fill the search lattice of step R/64"
        )
    return best_p


def build_impossibility_pair(R: float, queries: Sequence[Point], A: float,
                             y: Optional[Point] = None) -> ImpossibilityPair:
    """Build the indistinguishable-from-queries pair.

    With ``y=None`` the peak is picked on the search lattice of step
    ``R/64`` by maximizing the clearance to the queries.  The footprint
    radius is half the clearance, so the bump vanishes on a neighborhood of
    every query and the zero values there are bit-exact.
    """
    require_positive(R, "R")
    if not math.isfinite((2.0 * R) * (2.0 * R)):  # squared distances across the ball
        raise PreconditionError(f"R is too large: (2R)^2 overflows, got {R!r}")
    if (R / 64.0) ** 2 < np.finfo(float).tiny:  # squared search steps round to subnormals
        raise PreconditionError(f"R is too small: (R/64)^2 is subnormal, got {R!r}")
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
        y = _auto_peak(R, queries_t)
    else:
        if y.dim != dim:
            raise PreconditionError("peak point dimension does not match the queries")
        if not in_closed_ball(y, R):
            raise PreconditionError(f"peak point {y} lies outside the ball of radius {R!r}")

    clearance = dist_to_set(y, FinitePointSet(queries_t))
    rho = 0.5 * clearance
    if not (rho > 0):
        raise ConstructionError(
            f"peak point {y} coincides with a query; no positive footprint radius exists"
        )
    f = Func.constant(0.0, dim=dim)
    g = Func.bump(y, rho, A, label=f"bump(y={y}, rho={rho!r}, A={A!r})")
    return ImpossibilityPair(R=R, queries=queries_t, y=y, rho=rho, A=A, f=f, g=g)


# ---------------------------------------------------------------------------
# Sharpness sweep
# ---------------------------------------------------------------------------


@record
class SweepRow:
    """One drop size: the extreme lattice minimizer of the clipped
    surrogate, its distance to the target minimizer, the certified
    displacement bound, the grid slack added when comparing the two, and
    the least and greatest ``f - g`` over the lattice (the sandwich
    ``0 <= f - g <= delta``)."""

    delta: float
    argmin: float
    dist: float
    bound: float
    slack: float
    gap_min: float
    gap_max: float


@record
class SweepResult:
    """A sweep: one row per drop size and the fitted log-log slope of
    ``dist`` against ``delta``, on the lattice of ``grid_step`` over
    ``[-radius, radius]``."""

    rows: tuple[SweepRow, ...]
    slope: float
    mu: float
    grid_step: float
    radius: float

    CSV_COLUMNS = ("delta", "argmin", "dist", "bound", "slack")

    def to_csv(self, out: IO[str]) -> None:
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(self.CSV_COLUMNS)
        for r in self.rows:
            writer.writerow([repr(r.delta), repr(r.argmin), repr(r.dist),
                             repr(r.bound), repr(r.slack)])


def sweep_lattice(mu: float, delta_max: float, grid_step: float, drops: int) -> Grid:
    """The lattice ``sharpness_sweep`` scans once per drop when its largest
    drop is ``delta_max``: radius ``1.5*sqrt(2*delta_max/mu)``, at least
    20 steps.  ``drops`` scans of it are held to ``LATTICE_CAP``, which
    this checks from the count alone, before any drop or family exists."""
    require_positive(mu, "mu")
    if not (grid_step > 0):
        raise PreconditionError(f"grid_step must be > 0, got {grid_step!r}")
    grid = Grid(1, max(1.5 * math.sqrt(2.0 * delta_max / mu), 20.0 * grid_step), grid_step)
    if drops * grid.cube_size() > LATTICE_CAP:
        raise OracleCapError(f"sweep of {drops} drops x {grid.cube_size()} points exceeds "
                             f"cap {LATTICE_CAP}")
    return grid


def sharpness_sweep(mu: float, deltas: Sequence[float], grid_step: float) -> SweepResult:
    """Run the displacement experiment for each drop size.

    For each ``delta`` the surrogate's lattice argmin plateau is scanned;
    the extreme tied point (largest distance to the target minimizer, then
    lexicographically last) is tabulated against the certified bound
    ``2*sqrt(delta/mu)`` with grid slack ``2*grid_step`` (``square_root_rule``).
    The returned slope is the least-squares fit of ``log(dist)`` versus
    ``log(delta)``, NaN when the drops take fewer than two distinct values.

    Only the smallest drop's family is built: its plateau is checked, and
    each drop's ``g`` is ``Func.clamp_shift(f, delta)`` on one copy of its
    ``f`` whose batch keeps its rows on the last read-only block
    (``last_block_memo``).  Each ``g`` is evaluated once, by its argmin
    scan, which also reduces ``f - g`` over the same rows to the row's
    ``gap_min`` and ``gap_max``.  So ``f``'s batch runs once per sweep on a
    lattice that fits in one block (its cached block is scanned again for
    every drop) and once per drop and block on a streamed one.

    The step must resolve the smallest plateau: ``grid_step <
    sqrt(2*min(delta)/mu)/10`` is required, otherwise the scan error would
    swamp the quantity being measured.  The drops times the lattice points
    are held to ``LATTICE_CAP`` before the family is built (``sweep_lattice``).
    """
    require_positive(mu, "mu")
    deltas_t = tuple(float(d) for d in deltas)
    if not deltas_t:
        raise PreconditionError("at least one delta is required")
    if any(not (d > 0) or not math.isfinite(d) for d in deltas_t):
        raise PreconditionError("all deltas must be finite and > 0")
    if any(b < a for a, b in zip(deltas_t, deltas_t[1:])):
        raise PreconditionError("deltas must be sorted ascending")
    grid = sweep_lattice(mu, deltas_t[-1], grid_step, len(deltas_t))
    family = build_sharpness_pair(mu, deltas_t[0])
    smallest_plateau = family.argmin_radius
    if not (grid_step < smallest_plateau / 10.0):
        raise PreconditionError(
            f"grid step {grid_step!r} too coarse to resolve the smallest plateau "
            f"half-width {smallest_plateau!r} (need step < {smallest_plateau / 10.0!r})"
        )
    target = FinitePointSet((Point.origin(1),))
    f = replace(family.f, batch=last_block_memo(family.f.batch))  # shared by every g and the gaps
    rows = []
    for delta in deltas_t:
        gap = [math.inf, -math.inf]
        g = Func.clamp_shift(f, delta)

        def batch(X: np.ndarray, _g=g.batch, _gap=gap) -> np.ndarray:
            # g as the argmin scan reads it, reduced against f's kept rows
            v = _g(X)
            diff = f.batch(X) - v
            _gap[:] = min(_gap[0], float(diff.min())), max(_gap[1], float(diff.max()))
            return v

        ties = grid_argmin(replace(g, batch=batch), grid).rows
        dist = dist_to_set_rows(ties, target)
        far = np.flatnonzero(dist == dist.max())
        extreme = far[-1]  # the largest x: ties are in lattice order
        bound, slack = square_root_rule(delta, mu, grid_step)
        rows.append(SweepRow(delta=delta, argmin=float(ties[extreme, 0]),
                             dist=float(dist[extreme]), bound=bound, slack=slack,
                             gap_min=gap[0], gap_max=gap[1]))

    log_d = np.log([r.delta for r in rows])
    log_dist = np.log([r.dist for r in rows])
    # full=True reports the rank instead of printing a RankWarning.
    coeffs, _, rank, _, _ = np.polyfit(log_d, log_dist, 1, full=True)
    slope = float(coeffs[0]) if rank == 2 else float("nan")
    return SweepResult(rows=tuple(rows), slope=slope, mu=mu, grid_step=grid_step,
                       radius=grid.radius)
