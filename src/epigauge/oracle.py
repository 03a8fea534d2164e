"""Brute-force lattice oracles: ground truth at desk scale.

Grid suprema reported here are *lower bounds* of the true suprema (a finite
scan can miss the maximizer); they are never presented as certificates.
That direction is exactly what makes them useful as independent checks of
certified bounds: oracle value <= certified bound must always hold.

Scans walk the lattice in lexicographic blocks (``Grid.blocks``) and reduce
each block with numpy; function values come from ``core.evaluated``, so
every result and every raised error is bit-identical to a point-by-point
loop in lattice order.  The reductions are exact (max / min of floats) and
tie lists are assembled in lattice order, so results do not depend on the
block size.  Argmin ties stay an ``(n, dim)`` array
(``ArgminResult.rows``); ``Point`` objects are built only on request.
``grid_gauge`` reads the lowest level only: at a fixed base point the
case-split discrepancy is nonincreasing in the level even in floating
point, so the lowest level attains the maximum over the band.  The
``threads`` arguments are accepted for compatibility and ignored: the numpy
blocks run single-threaded.

Each kernel's per-block reduction is written once and shared with
``grid_pair_scan``, which computes ``grid_gauge``, ``grid_sup_abs_diff``
and the ``grid_argmin`` of ``g`` in one walk of one base lattice,
evaluating each function once per block; its results are the three
kernels' bit for bit, and a failing pair raises what ``grid_gauge`` raises.
``certify`` and ``demo strictness`` read their oracle columns from it.

Blocks are read-only.  A lattice that fits in one block is built once and
served again from a process-wide LRU of ``LATTICE_CACHE_ENTRIES`` entries
(keyed on dimension, radius, step and block size), so repeated scans of
one small lattice, such as the validation lattices of equal-radius local
certificates, do not rebuild it; larger lattices are streamed block by
block and never stored.  The cache holds at most
``LATTICE_CACHE_ENTRIES * BLOCK_CELLS * dim * 8`` bytes of coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .core import (
    TAU,
    ArgminSet,
    ClosedBall,
    FinitePointSet,
    Func,
    Point,
    distances,
    evaluated,
    lattice_point,
    norms,
    require_positive,
    slack_radius,
)
from .errors import DomainError, OracleCapError, PreconditionError

__all__ = [
    "LATTICE_CAP",
    "Grid",
    "LevelGrid",
    "ArgminResult",
    "grid_sup_abs_diff",
    "grid_gauge",
    "grid_argmin",
    "grid_pair_scan",
    "dist_to_set",
    "dist_to_set_rows",
    "BLOCK_CELLS",
    "LATTICE_CACHE_ENTRIES",
]

LATTICE_CAP: int = 10**8
"""Hard cap on scanned lattice size (cube count before ball filtering, and
on the base x level product for gauge scans).  Exceeding it is an error:
these oracles are exhaustive by design and must not silently subsample."""

BLOCK_CELLS: int = 65536
"""Cells per scan block: a block holds at most this many cube nodes, or
``BLOCK_CELLS // levels`` base points for base x level scans, which bounds
the memory of every scan independently of the lattice size."""

LATTICE_CACHE_ENTRIES: int = 8
"""One-block lattices kept by ``Grid.blocks`` (least recently used first
out)."""


def _axis_kmax(radius: float, step: float) -> int:
    require_positive(step, "grid step")
    require_positive(radius, "grid radius")
    ratio = slack_radius(radius / step)
    if not ratio < LATTICE_CAP:  # also an infinite ratio, which has no integer floor
        raise OracleCapError(
            f"lattice step {step!r} on radius {radius!r} gives more than {LATTICE_CAP} "
            f"points per axis")
    return int(math.floor(ratio))


def _axis_values(radius: float, step: float, kmax: int) -> tuple[float, ...]:
    """Symmetric 1-d lattice ``k*step`` covering ``[-radius, radius]``.

    Includes the origin always, and ``+/-radius`` itself whenever
    ``radius/step`` is integral (up to float slack).  Values are generated
    as ``k * step`` with integer ``k`` so that halving the step yields a
    bit-identical superset lattice.
    """
    bound = slack_radius(radius)
    values = np.arange(-kmax, kmax + 1) * step  # exact int -> float, one rounding each
    return tuple(values[np.abs(values) <= bound].tolist())


@dataclass(frozen=True)
class Grid:
    """Axis-aligned lattice on the cube ``[-radius, radius]^dim`` filtered
    to the closed ball ``||x|| <= radius``.

    The size cap is checked on the unfiltered cube count (the scan upper
    bound).  Iteration is lexicographic in coordinates.
    """

    dim: int
    radius: float
    step: float
    axis: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _axis_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise PreconditionError(f"grid dim must be an integer >= 1, got {self.dim!r}")
        kmax = _axis_kmax(self.radius, self.step)
        n = 2 * kmax + 1
        # 2**64 > LATTICE_CAP: a large dim is over the cap without a power
        # whose size grows with dim.  A one-point axis is under the cap in
        # any dim, but scans still loop over the coordinates, so dim is
        # bounded on its own.
        if n > 1 and (self.dim >= 64 or n ** self.dim > LATTICE_CAP):
            raise OracleCapError(
                f"lattice of {n}^{self.dim} cube points exceeds cap {LATTICE_CAP}"
            )
        if self.dim >= 64:
            raise OracleCapError(f"lattice dimension {self.dim} exceeds the limit of 63")
        axis = _axis_values(self.radius, self.step, kmax)
        axis_array = np.asarray(axis, dtype=np.float64)
        axis_array.setflags(write=False)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "_axis_array", axis_array)

    def cube_size(self) -> int:
        return len(self.axis) ** self.dim

    def blocks(self, cells_per_point: int = 1) -> Iterator[np.ndarray]:
        """The lattice points as read-only ``(n, dim)`` float64 arrays, in
        lexicographic order (last coordinate fastest).

        Each block is cut from at most ``BLOCK_CELLS // cells_per_point``
        consecutive cube nodes (at least one) and then filtered to the ball
        with the same ``slack_radius`` as ``in_closed_ball``; empty blocks
        are skipped.  A lattice whose cube fits in one block is built once
        and then served from the ``LATTICE_CACHE_ENTRIES``-entry LRU;
        larger lattices are built block by block on every call."""
        step = max(1, BLOCK_CELLS // cells_per_point)
        if self.cube_size() <= step:
            return iter(_one_block_lattice(self, step))
        return self._build(step)

    def _build(self, step: int) -> Iterator[np.ndarray]:
        axis = self._axis_array
        size = self.cube_size()
        bound = slack_radius(self.radius)
        for start in range(0, size, step):
            idx = np.arange(start, min(start + step, size))
            X = np.empty((len(idx), self.dim))
            for k in range(self.dim - 1, -1, -1):
                idx, r = np.divmod(idx, len(axis))
                X[:, k] = axis[r]
            if self.dim > 1:
                X = X[norms(X) <= bound]
            if len(X):
                X.setflags(write=False)
                yield X

    def points(self) -> Iterator[Point]:
        for X in self.blocks():
            for row in X.tolist():
                yield lattice_point(tuple(row))

    def refine(self) -> "Grid":
        """Halve the step.  The refined lattice contains this one exactly
        (bit-identical coordinates), so scan suprema are monotone under
        refinement."""
        return Grid(self.dim, self.radius, self.step / 2.0)


@functools.lru_cache(maxsize=LATTICE_CACHE_ENTRIES)
def _one_block_lattice(grid: Grid, step: int) -> tuple[np.ndarray, ...]:
    # Grid equality is (dim, radius, step), everything the blocks depend on.
    return tuple(grid._build(step))


@dataclass(frozen=True)
class LevelGrid:
    """Lattice ``k*step_t`` on the level band ``[-M, M]``, with both
    endpoints always included."""

    M: float
    step_t: float
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.M, "level bound M")
        kmax = _axis_kmax(self.M, self.step_t)
        if 2 * kmax + 3 > LATTICE_CAP:
            raise OracleCapError(
                f"level lattice of {2 * kmax + 3} points exceeds cap {LATTICE_CAP}")
        vals = set(_axis_values(self.M, self.step_t, kmax))
        vals.add(-self.M)
        vals.add(self.M)
        object.__setattr__(self, "values", tuple(sorted(vals)))

    def refine(self) -> "LevelGrid":
        return LevelGrid(self.M, self.step_t / 2.0)


@dataclass(frozen=True, eq=False)
class ArgminResult:
    """Minimal lattice value and every lattice point attaining it within
    ``TAU``, as the rows of a read-only ``(n, dim)`` float64 array in
    lexicographic order."""

    rows: np.ndarray
    value: float

    @property
    def points(self) -> tuple[Point, ...]:
        """The tied points as ``Point`` objects, built on each access."""
        return tuple(lattice_point(tuple(row)) for row in self.rows.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArgminResult):
            return NotImplemented
        return (self.value == other.value and self.rows.shape == other.rows.shape
                and bool(np.array_equal(self.rows, other.rows)))

    def __hash__(self) -> int:
        return hash((self.value, self.rows.shape))


# ---------------------------------------------------------------------------
# Scan machinery
# ---------------------------------------------------------------------------


def _check_domains(grid: Grid, *funcs: Func) -> None:
    for f in funcs:
        if f.dim != grid.dim:
            raise DomainError(
                f"grid dimension {grid.dim} does not match function "
                f"{f.label or '<unnamed>'} of dimension {f.dim}"
            )
        if grid.radius > slack_radius(f.domain_radius):
            raise DomainError(
                f"grid radius {grid.radius!r} exceeds domain radius "
                f"{f.domain_radius!r} of function {f.label or '<unnamed>'}"
            )


def _check_gauge_cap(grid: Grid, lgrid: LevelGrid) -> None:
    if grid.cube_size() * len(lgrid.values) > LATTICE_CAP:
        raise OracleCapError(
            f"gauge scan of {grid.cube_size()} x {len(lgrid.values)} points exceeds "
            f"cap {LATTICE_CAP}"
        )


# Per-block reducers, shared by the kernels below and by ``grid_pair_scan``.


def _sup_block(fv: np.ndarray, gv: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # rounds to inf, as the scalar difference does
        return float(np.abs(fv - gv).max())


def _gauge_block(fa: np.ndarray, fb: np.ndarray, t: float) -> float:
    up = fa > fb
    hi = np.where(up, fa, fb)
    lo = np.where(up, fb, fa)
    with np.errstate(over="ignore"):  # as in _sup_block
        disc = np.where(t >= hi, 0.0, np.where(t <= lo, hi - lo, hi - t))
    return float(disc.max())


class _Argmin:
    """The running minimum of an argmin scan and, per block, the rows that
    may still tie with it."""

    def __init__(self) -> None:
        self.best = math.inf
        self.candidates: list[tuple[np.ndarray, np.ndarray]] = []

    def add(self, X: np.ndarray, v: np.ndarray) -> None:
        block_min = v[np.argmin(v)]
        if block_min < self.best:
            self.best = float(block_min)
        keep = v <= block_min + TAU
        self.candidates.append((X[keep], v[keep]))

    def result(self) -> ArgminResult:
        if not self.candidates:
            raise PreconditionError("grid has no points")
        rows = np.concatenate([X[v <= self.best + TAU] for X, v in self.candidates])
        rows.setflags(write=False)
        return ArgminResult(rows=rows, value=self.best)


def grid_sup_abs_diff(f: Func, g: Func, grid: Grid, threads: int = 1) -> float:
    """Max of ``|f - g|`` over the lattice: a lower bound on the true
    supremum over the ball."""
    _check_domains(grid, f, g)
    m = 0.0
    for _, (fv, gv) in evaluated(grid.blocks(), f, g):
        m = max(m, _sup_block(fv, gv))  # the first of equal maxima, as a scalar loop keeps
    return m


def grid_gauge(f: Func, g: Func, grid: Grid, lgrid: LevelGrid, threads: int = 1) -> float:
    """Max of the pointwise vertical discrepancy over lattice x level
    lattice: a lower bound on the true cylinder gauge.

    The discrepancy uses the same case split as ``pointwise_discrepancy``,
    so the scan result is dominated by ``grid_sup_abs_diff`` on the same
    base lattice exactly (no tolerance needed).  Only the lowest level
    ``lgrid.values[0]`` is evaluated: at each base point the discrepancy is
    ``hi - lo`` below ``lo``, ``fl(hi - t)`` between, and 0 above ``hi``, and
    since rounding is monotone ``fl(hi - t)`` never increases with ``t``,
    never exceeds ``hi - lo`` and is never negative; the lowest level
    therefore attains the maximum over the band bit for bit.  (It is not
    ``-M`` itself: ``LevelGrid(0.3, 0.1).values[0]`` is
    ``-0.30000000000000004``.)  The size cap still applies to the whole
    base x level lattice.
    """
    _check_domains(grid, f, g)
    _check_gauge_cap(grid, lgrid)
    t = lgrid.values[0]
    m = 0.0
    for _, (fa, fb) in evaluated(grid.blocks(), f, g):
        m = max(m, _gauge_block(fa, fb, t))
    return m


def grid_argmin(f: Func, grid: Grid, threads: int = 1) -> ArgminResult:
    """All lattice minimizers of ``f`` (ties within ``TAU`` of the minimal
    value), lexicographically ordered.

    Ties are the expected case, not the edge case: plateau minima arise
    naturally from clipped constructions.  The reported value is the
    minimum as first met in lattice order.
    """
    _check_domains(grid, f)
    argmin = _Argmin()
    for X, (v,) in evaluated(grid.blocks(), f):
        argmin.add(X, v)
    return argmin.result()


def grid_pair_scan(f: Func, g: Func, grid: Grid,
                   lgrid: LevelGrid) -> tuple[float, float, ArgminResult]:
    """``(grid_gauge(f, g, grid, lgrid), grid_sup_abs_diff(f, g, grid),
    grid_argmin(g, grid))`` from one walk of the lattice, evaluating each
    function once per block: bit for bit the three kernels' results, and
    on a failing problem the exception ``grid_gauge`` raises."""
    _check_domains(grid, f, g)
    _check_gauge_cap(grid, lgrid)
    t = lgrid.values[0]
    gauge = sup = 0.0
    argmin = _Argmin()
    for X, (fv, gv) in evaluated(grid.blocks(), f, g):
        gauge = max(gauge, _gauge_block(fv, gv, t))
        sup = max(sup, _sup_block(fv, gv))
        argmin.add(X, gv)
    return gauge, sup, argmin.result()


def dist_to_set(x: Point, argmin_set: ArgminSet) -> float:
    """Euclidean distance from ``x`` to a minimizer set.

    Exact (single rounded expression) for the two supported
    representations: finite point sets and closed balls.
    """
    if isinstance(argmin_set, FinitePointSet):
        if argmin_set.dim != x.dim:
            raise DomainError(f"dimension mismatch: point {x.dim}, set {argmin_set.dim}")
        return min(x.dist(p) for p in argmin_set.points)
    if isinstance(argmin_set, ClosedBall):
        if argmin_set.dim != x.dim:
            raise DomainError(f"dimension mismatch: point {x.dim}, set {argmin_set.dim}")
        d = x.dist(argmin_set.center)
        return d - argmin_set.radius if d > argmin_set.radius else 0.0
    raise PreconditionError(f"unsupported minimizer-set representation: {type(argmin_set).__name__}")


def dist_to_set_rows(X: np.ndarray, argmin_set: ArgminSet) -> np.ndarray:
    """``dist_to_set`` of every row of ``X``, bit for bit."""
    if not isinstance(argmin_set, (FinitePointSet, ClosedBall)):
        raise PreconditionError(
            f"unsupported minimizer-set representation: {type(argmin_set).__name__}")
    if argmin_set.dim != X.shape[1]:
        raise DomainError(f"dimension mismatch: point {X.shape[1]}, set {argmin_set.dim}")
    if isinstance(argmin_set, FinitePointSet):
        d = distances(X, argmin_set.points[0])
        for p in argmin_set.points[1:]:
            d = np.minimum(d, distances(X, p))
        return d
    d = distances(X, argmin_set.center)
    return np.where(d > argmin_set.radius, d - argmin_set.radius, 0.0)
