"""Brute-force lattice oracles: ground truth at desk scale.

Grid suprema reported here are *lower bounds* of the true suprema (a finite
scan can miss the maximizer); they are never presented as certificates.
That direction is exactly what makes them useful as independent checks of
certified bounds: oracle value <= certified bound must always hold.

Scans walk the lattice in lexicographic blocks (``Grid.blocks``) and reduce
each block with numpy; function values come from ``Func.values`` semantics
(``eval_rows``), so every result and every raised error is bit-identical to
a point-by-point loop in lattice order.  The reductions are exact (max /
min of floats) and tie lists are assembled in lattice order, so results do
not depend on the block size.  The ``threads`` arguments are accepted for
compatibility and ignored: the numpy blocks run single-threaded.
"""

from __future__ import annotations

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
    eval_rows,
    lattice_point,
    norms,
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
    "dist_to_set",
    "dist_to_set_rows",
    "BLOCK_CELLS",
]

LATTICE_CAP: int = 10**8
"""Hard cap on scanned lattice size (cube count before ball filtering, and
on the base x level product for gauge scans).  Exceeding it is an error:
these oracles are exhaustive by design and must not silently subsample."""

BLOCK_CELLS: int = 65536
"""Cells per scan block: a block holds at most this many cube nodes, or
``BLOCK_CELLS // levels`` base points for base x level scans, which bounds
the memory of every scan independently of the lattice size."""


def _axis_kmax(radius: float, step: float) -> int:
    if not (step > 0) or not math.isfinite(step):
        raise PreconditionError(f"grid step must be finite and > 0, got {step!r}")
    if not (radius > 0) or not math.isfinite(radius):
        raise PreconditionError(f"grid radius must be finite and > 0, got {radius!r}")
    return int(math.floor((radius / step) * (1.0 + TAU) + TAU))


def _axis_values(radius: float, step: float, kmax: int) -> tuple[float, ...]:
    """Symmetric 1-d lattice ``k*step`` covering ``[-radius, radius]``.

    Includes the origin always, and ``+/-radius`` itself whenever
    ``radius/step`` is integral (up to float slack).  Values are generated
    as ``k * step`` with integer ``k`` so that halving the step yields a
    bit-identical superset lattice.
    """
    bound = radius * (1.0 + TAU) + TAU
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

    def __post_init__(self) -> None:
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise PreconditionError(f"grid dim must be an integer >= 1, got {self.dim!r}")
        kmax = _axis_kmax(self.radius, self.step)
        if (2 * kmax + 1) ** self.dim > LATTICE_CAP:
            raise OracleCapError(
                f"lattice of {2 * kmax + 1}^{self.dim} cube points exceeds cap {LATTICE_CAP}"
            )
        object.__setattr__(self, "axis", _axis_values(self.radius, self.step, kmax))

    def cube_size(self) -> int:
        return len(self.axis) ** self.dim

    def blocks(self, cells_per_point: int = 1) -> Iterator[np.ndarray]:
        """The lattice points as ``(n, dim)`` float64 arrays, in
        lexicographic order (last coordinate fastest).

        Each block is cut from at most ``BLOCK_CELLS // cells_per_point``
        consecutive cube nodes (at least one) and then filtered to the ball
        with the same ``radius * (1 + TAU) + TAU`` slack as
        ``in_closed_ball``; empty blocks are skipped."""
        axis = np.asarray(self.axis, dtype=np.float64)
        size = self.cube_size()
        step = max(1, BLOCK_CELLS // cells_per_point)
        bound = self.radius * (1.0 + TAU) + TAU
        for start in range(0, size, step):
            idx = np.arange(start, min(start + step, size))
            X = np.empty((len(idx), self.dim))
            for k in range(self.dim - 1, -1, -1):
                idx, r = np.divmod(idx, len(axis))
                X[:, k] = axis[r]
            if self.dim > 1:
                X = X[norms(X) <= bound]
            if len(X):
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


@dataclass(frozen=True)
class LevelGrid:
    """Lattice ``k*step_t`` on the level band ``[-M, M]``, with both
    endpoints always included."""

    M: float
    step_t: float
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (self.M > 0) or not math.isfinite(self.M):
            raise PreconditionError(f"level bound M must be finite and > 0, got {self.M!r}")
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


@dataclass(frozen=True)
class ArgminResult:
    """Minimal lattice value and every lattice point attaining it within
    the tie tolerance, in lexicographic order."""

    points: tuple[Point, ...]
    value: float


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
        if grid.radius > f.domain_radius * (1.0 + TAU) + TAU:
            raise DomainError(
                f"grid radius {grid.radius!r} exceeds domain radius "
                f"{f.domain_radius!r} of function {f.label or '<unnamed>'}"
            )


def grid_sup_abs_diff(f: Func, g: Func, grid: Grid, threads: int = 1) -> float:
    """Max of ``|f - g|`` over the lattice: a lower bound on the true
    supremum over the ball."""
    _check_domains(grid, f, g)
    m = 0.0
    for X in grid.blocks():
        (fv, gv), _, error = eval_rows((f, g), X)
        if error is not None:
            raise error
        d = float(np.abs(fv - gv).max())
        if d > m:
            m = d
    return m


def grid_gauge(f: Func, g: Func, grid: Grid, lgrid: LevelGrid, threads: int = 1) -> float:
    """Max of the pointwise vertical discrepancy over lattice x level
    lattice: a lower bound on the true cylinder gauge.

    Function values are computed once per base point; the level sweep uses
    the same case split as ``pointwise_discrepancy``, so the scan result is
    dominated by ``grid_sup_abs_diff`` on the same base lattice exactly (no
    tolerance needed).
    """
    _check_domains(grid, f, g)
    if grid.cube_size() * len(lgrid.values) > LATTICE_CAP:
        raise OracleCapError(
            f"gauge scan of {grid.cube_size()} x {len(lgrid.values)} points exceeds "
            f"cap {LATTICE_CAP}"
        )
    tvals = np.asarray(lgrid.values, dtype=np.float64)
    m = 0.0
    for X in grid.blocks(cells_per_point=len(tvals)):
        (fa, fb), _, error = eval_rows((f, g), X)
        if error is not None:
            raise error
        up = fa > fb
        hi = np.where(up, fa, fb)[:, None]
        lo = np.where(up, fb, fa)[:, None]
        disc = np.where(tvals >= hi, 0.0, np.where(tvals <= lo, hi - lo, hi - tvals))
        dm = float(disc.max())
        if dm > m:
            m = dm
    return m


def grid_argmin(f: Func, grid: Grid, threads: int = 1, tie_tol: float = TAU) -> ArgminResult:
    """All lattice minimizers of ``f`` (ties within ``tie_tol`` of the
    minimal value), lexicographically ordered.

    Ties are the expected case, not the edge case: plateau minima arise
    naturally from clipped constructions.  The reported value is the
    minimum as first met in lattice order.
    """
    _check_domains(grid, f)
    best = math.inf
    candidates: list[tuple[np.ndarray, np.ndarray]] = []
    for X in grid.blocks():
        (v,), _, error = eval_rows((f,), X)
        if error is not None:
            raise error
        block_min = v[np.argmin(v)]
        if block_min < best:
            best = float(block_min)
        keep = v <= block_min + tie_tol
        candidates.append((X[keep], v[keep]))
    if not candidates:
        raise PreconditionError("grid has no points")
    tied = tuple(lattice_point(tuple(row)) for X, v in candidates
                 for row in X[v <= best + tie_tol].tolist())
    return ArgminResult(points=tied, value=best)


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
