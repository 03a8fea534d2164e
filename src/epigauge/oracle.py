"""Brute-force lattice oracles: ground truth at desk scale.

Grid suprema reported here are estimates, never presented as certificates.
A finite scan can miss the maximizer, and the lattice keeps rim nodes whose
norm rounds just above R (``slack_radius``: R = 0.3 at step 0.1 has one at
0.30000000000000004), where a function can exceed its sup over B_R.  So a
grid sup is a lower bound of the true sup, and an independent check of a
certified bound, only where every node lies in B_R.

Scans walk the lattice in lexicographic blocks (``Grid.blocks``) and reduce
each block with numpy; function values come from ``core.evaluated``, so
every result and every raised error is bit-identical to a point-by-point
loop in lattice order.  The reductions are exact (max / min of floats) and
tie lists are assembled in lattice order, so results do not depend on the
block size.  ``grid_argmin``'s ties stay an ``(n, dim)`` array
(``ArgminResult.rows``); ``Point`` objects are built only on request.
Each argmin reader has its own reducer.  Both skip a block whose minimum
lies more than ``TAU`` above the running minimum and drop a held block
once the running minimum falls more than ``TAU`` below its own.
``grid_argmin`` (and the sweep that reads its rows) holds every tie;
``certify``'s ``ArgminSummary``, fed by ``grid_pair_scan``, counts them
(see ``ARGMIN_HELD_CAP``).
The discrepancy never increases with the level, so the gauge over
``B_R x [-M, M]`` is the clipped sup-norm ``|max(f, -M) - max(g, -M)|``
over the base lattice: the gauge kernels take the band half-width ``M``
and scan no level.
The ``threads`` argument of ``grid_argmin`` is accepted for compatibility
and ignored: the numpy blocks run single-threaded.

``grid_pair_scan`` is the one walk of a function pair: it computes the
gauge and the sup ``|f - g|`` in one walk of one base lattice, evaluating
each function once per block.  ``grid_gauge`` and ``grid_sup_abs_diff``
return its two columns, so they raise what it raises.  ``gauge``,
``certify`` and ``demo strictness`` read both columns from it.  It also
feeds each block to the readers its caller passes: only ``certify``
passes any, the argmin summary of ``g`` and the growth check of ``f``
(``stability.GrowthScan``).

A ``Grid`` knows its axis length from ``_axis_kmax`` alone and builds its
axis on first use, so the size cap rejects an over-cap lattice before any
coordinate exists.  A block sums the squares of each cube node in
coordinate order, as ``norms`` does, and gathers coordinates only for the
nodes inside the ball; where the squared radius overflows, it also gathers
the nodes whose sum overflows and judges them again by ``core.within_bound``,
as ``ball_mask`` does.  A 1-d block is its own run of axis values, so a 1-d
scan never holds the whole axis.

Blocks are read-only and column-major (Fortran order): each coordinate
is one contiguous run, which is how the row kernels of ``core`` read
them, one column at a time.  The last lattice scanned that fits in one
block is kept (a one-entry cache keyed on the ``Grid``: dimension, radius
and step), so back-to-back scans of it, such as the validation lattices of
equal-radius local certificates, do not rebuild it; larger lattices are
streamed block by block and never stored.  So the cache holds at most
``BLOCK_CELLS * dim * 8`` bytes of coordinates.  No command reuses an older
lattice, except with both [envelope] and [cover]: the envelope's scans fall
between the cover's, so the cover rebuilds two of its lattices.
"""

from __future__ import annotations

import functools
import math
from dataclasses import field
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
    overflow_can_fit,
    record,
    require_positive,
    slack_radius,
    within_bound,
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
]

LATTICE_CAP: int = 10**8
"""Hard cap on scanned lattice size (cube count before ball filtering).
Exceeding it is an error: these oracles are exhaustive by design and must
not silently subsample."""

BLOCK_CELLS: int = 65536
"""Cells per scan block: a block holds at most this many cube nodes.  That
bounds the memory of every scan but ``grid_argmin``'s, which holds every
row that may still tie (so does ``sharpness_sweep``, which reads them):
2,828,427 rows for ``--grid-step 1e-7`` on ``sharpness.prob``.
An ``ArgminSummary`` counts its ties instead: see ``ARGMIN_HELD_CAP``."""

ARGMIN_HELD_CAP: int = BLOCK_CELLS
"""Rows an ``ArgminSummary`` may hold beyond the block it scans and one
row at each block minimum: those strictly above a block minimum and within
``TAU`` of it, none on a plateau (``certify --grid-step 1e-7`` on
``sharpness.prob`` holds no such row among its 2,828,427 ties).  Past the
cap it holds none.  The cap is judged at the read: reading ``count`` or
``first`` raises ``OracleCapError``, so a scan that fails in a later block
raises its own error first."""


def _axis_kmax(radius: float, step: float) -> int:
    """The largest ``k`` with ``k*step`` inside ``slack_radius(radius)``:
    the axis holds ``2*k + 1`` values, known before any is built."""
    require_positive(step, "grid step")
    require_positive(radius, "grid radius")
    ratio = slack_radius(radius / step)
    if not ratio < LATTICE_CAP:  # also an infinite ratio, which has no integer floor
        raise OracleCapError(
            f"lattice step {step!r} on radius {radius!r} gives more than {LATTICE_CAP} "
            f"points per axis")
    k = int(math.floor(ratio))
    while k and k * step > slack_radius(radius):  # |k*step| is monotone in k
        k -= 1
    return k


def _axis_values(step: float, lo: int, hi: int) -> np.ndarray:
    """The 1-d lattice values ``k*step`` for ``lo <= k < hi``, as a
    read-only float64 array.

    Values are generated as ``k * step`` with integer ``k`` so that halving
    the step yields a bit-identical superset lattice.
    """
    values = np.arange(lo, hi) * step  # exact int -> float, one rounding each
    values.setflags(write=False)
    return values


@record
class Grid:
    """Axis-aligned lattice on the cube ``[-radius, radius]^dim`` filtered
    to the closed ball ``||x|| <= radius``.  Its axis ``k*step`` holds the
    origin always, and ``+/-radius`` itself whenever ``radius/step`` is
    integral (up to float slack); in 1-d the axis is the lattice.

    The size cap is checked on the unfiltered cube count (the scan upper
    bound), from the axis length alone: the axis itself is built by
    ``blocks``, so an over-cap grid costs nothing.  Iteration is
    lexicographic in coordinates.
    """

    dim: int
    radius: float
    step: float
    _kmax: int = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_kmax", kmax)

    def cube_size(self) -> int:
        return (2 * self._kmax + 1) ** self.dim

    def blocks(self) -> Iterator[np.ndarray]:
        """The lattice points as read-only, column-major ``(n, dim)``
        float64 arrays, in lexicographic order (last coordinate fastest).

        Each block is cut from at most ``BLOCK_CELLS`` consecutive cube
        nodes and then filtered to the ball by the rule of
        ``in_closed_ball``; empty blocks are skipped.  A lattice whose
        cube fits in one block is built once and served again while no other
        one-block lattice is scanned; larger lattices are built block by
        block on every call."""
        if self.cube_size() <= BLOCK_CELLS:
            return iter(_one_block_lattice(self))
        return self._build()

    def _build(self) -> Iterator[np.ndarray]:
        # A run of n consecutive cube nodes shares all but the last
        # coordinate; its sum of squares plus the last square, in coordinate
        # order, makes the norms ``norms(X)`` bit for bit, so the ball test is
        # ``ball_mask``'s: ``norms(X) <= bound`` unless ``overflow_can_fit(bound)``.
        k, n, size, step = self._kmax, 2 * self._kmax + 1, self.cube_size(), BLOCK_CELLS
        if self.dim == 1:  # the axis is the lattice
            for start in range(0, size, step):
                yield _axis_values(self.step, start - k, min(start + step, size) - k)[:, None]
            return
        axis = _axis_values(self.step, -k, k + 1)
        with np.errstate(over="ignore"):  # rounds to inf, as ``Point.norm`` does
            squares = axis * axis
        bound = slack_radius(self.radius)
        over = overflow_can_fit(bound)  # False wherever bound**2 is finite
        for start in range(0, size, step):
            stop = min(start + step, size)
            first = start // n
            runs, digits = np.arange(first, (stop - 1) // n + 1), []
            for _ in range(self.dim - 1):
                runs, digit = np.divmod(runs, n)
                digits.insert(0, digit)
            lo, hi = start - first * n, stop - first * n
            with np.errstate(over="ignore"):  # so do the sums; ended before the yield
                s = squares[digits[0]]
                for digit in digits[1:]:
                    s = s + squares[digit]
                d = np.sqrt(s[:, None] + squares).ravel()[lo:hi]
                keep = d <= bound
                if over:
                    keep |= d == math.inf
                node = np.flatnonzero(keep) + lo
            run, last = np.divmod(node, n)
            X = np.empty((len(node), self.dim), order="F")
            for c, digit in enumerate(digits):
                X[:, c] = axis[digit[run]]
            X[:, -1] = axis[last]
            if over:  # the rows of inf norm are judged again
                X = np.asfortranarray(X[within_bound(X, d[node - lo], bound)])
            if len(X):
                X.setflags(write=False)
                yield X

    def points(self) -> Iterator[Point]:
        for X in self.blocks():
            for row in X.tolist():
                yield lattice_point(tuple(row))


@functools.lru_cache(maxsize=1)
def _one_block_lattice(grid: Grid) -> tuple[np.ndarray, ...]:
    # Grid equality is (dim, radius, step), all that one block depends on.
    return tuple(grid._build())


# No scan reads a level lattice: bench/test_bench.py and the level sweeps that
# check the gauge kernels (tests/test_array_path.py) still build this class.
@record
class LevelGrid:
    """Lattice ``k*step_t`` on the level band ``[-M, M]``: the lattice
    values strictly inside ``(-M, M)``, plus both endpoints, built on
    first use; ``size`` is known from ``_axis_kmax`` alone."""

    M: float
    step_t: float
    _kin: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.M, "level bound M")
        kmax = _axis_kmax(self.M, self.step_t)
        if 2 * kmax + 3 > LATTICE_CAP:
            raise OracleCapError(
                f"level lattice of {2 * kmax + 3} points exceeds cap {LATTICE_CAP}")
        # The largest k with k*step_t < M: M/step_t < LATTICE_CAP, so the
        # rounded quotient is off by at most a step or two.
        k = min(kmax, math.ceil(self.M / self.step_t))
        while k and k * self.step_t >= self.M:
            k -= 1
        object.__setattr__(self, "_kin", k)

    @property
    def size(self) -> int:
        return 2 * self._kin + 3

    @functools.cached_property
    def values(self) -> tuple[float, ...]:
        inside = _axis_values(self.step_t, -self._kin, self._kin + 1).tolist()
        return (-self.M, *inside, self.M)


@record
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


# Per-block reducers; each argmin reader has its own (``_sup_block`` serves both pair columns).


def _sup_block(fv: np.ndarray, gv: np.ndarray) -> float:
    with np.errstate(over="ignore"):  # rounds to inf, as the scalar difference does
        return float(np.abs(fv - gv).max())


class _TieList:
    """``grid_argmin``'s reducer: the running minimum and, for each block
    that may still tie with it, ``(coordinates transposed, values, block
    minimum)`` of every row within ``TAU`` of the block minimum."""

    def __init__(self) -> None:
        self.best = math.inf
        self.candidates: list[tuple[np.ndarray, np.ndarray, float]] = []

    def add(self, X: np.ndarray, v: np.ndarray) -> None:
        block_min = float(v[int(np.argmin(v))])  # the first minimum, as a scalar loop keeps
        if block_min < self.best:
            self.best = block_min
            self.candidates = [c for c in self.candidates if c[2] <= block_min + TAU]
        elif block_min > self.best + TAU:
            return
        keep = np.flatnonzero(v <= block_min + TAU)
        self.candidates.append((X.T.take(keep, axis=1), v.take(keep), block_min))

    def result(self) -> ArgminResult:
        cut = self.best + TAU  # a Grid holds its origin, so some block was kept
        parts = [C if m == self.best else C.compress(v <= cut, axis=1)
                 for C, v, m in self.candidates]
        cols = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        cols.setflags(write=False)
        return ArgminResult(cols.T, self.best)


class ArgminSummary:
    """``certify``'s argmin reducer: the minimal ``value``, and the
    ``count`` and ``first`` of the lattice points within ``TAU`` of it, as
    ``grid_argmin``'s rows give them.  Per block that may still tie it
    keeps ``(held coordinates transposed, held values, block minimum, other
    rows at the minimum)``, holding the first row at the minimum and the
    rows above it within ``TAU``."""

    def __init__(self) -> None:
        self.value = math.inf
        self._overflow = 0  # the held count past ARGMIN_HELD_CAP, raised at the read
        self._blocks: list[tuple[np.ndarray, np.ndarray, float, int]] = []

    def add(self, X: np.ndarray, v: np.ndarray) -> None:
        i = int(np.argmin(v))
        block_min = float(v[i])  # the first minimum, as a scalar loop keeps
        if block_min < self.value:
            self.value = block_min
            self._blocks = [b for b in self._blocks if b[2] <= block_min + TAU]
        if block_min > self.value + TAU or self._overflow:
            return
        near = (v <= block_min + TAU) & (v > block_min)
        held = int(np.count_nonzero(near)) + sum(len(b[1]) - 1 for b in self._blocks)
        if held > ARGMIN_HELD_CAP:  # one row at each block minimum is not counted
            self._overflow, self._blocks = held, []
            return
        near[i] = True
        self._blocks.append((X.T.compress(near, axis=1), v.compress(near), block_min,
                             int(np.count_nonzero(v == block_min)) - 1))

    def _cut(self) -> float:
        if self._overflow:
            raise OracleCapError(
                f"argmin scan holds {self._overflow} rows strictly above a block minimum and "
                f"within TAU of it, more than the cap {ARGMIN_HELD_CAP}")
        return self.value + TAU

    @property
    def count(self) -> int:
        cut = self._cut()
        return sum(int(np.count_nonzero(v <= cut)) + others for _, v, _, others in self._blocks)

    @property
    def first(self) -> tuple[float, ...]:
        cut = self._cut()
        C, v, _, _ = self._blocks[0]  # the first tie is in the first block
        return tuple(C[:, int(np.argmax(v <= cut))].tolist())


def grid_sup_abs_diff(f: Func, g: Func, grid: Grid) -> float:
    """Max of ``|f - g|`` over the lattice: an estimate of the supremum
    over the ball, not a bound (see the module docstring)."""
    return grid_pair_scan(f, g, grid, 1.0)[1]  # the band shapes only the gauge column


def grid_gauge(f: Func, g: Func, grid: Grid, M: float) -> float:
    """Max of the pointwise vertical discrepancy over the lattice times the
    level band ``[-M, M]``: an estimate of the cylinder gauge, not a bound
    (see the module docstring).

    The discrepancy never increases with the level, so its max over the
    band is ``|max(f, -M) - max(g, -M)|`` at each base point, bit for bit
    the case split of ``pointwise_discrepancy`` at ``t = -M``; the scan is
    dominated by ``grid_sup_abs_diff`` on the same base lattice exactly.
    """
    return grid_pair_scan(f, g, grid, M)[0]


def grid_argmin(f: Func, grid: Grid, threads: int = 1) -> ArgminResult:
    """All lattice minimizers of ``f`` (ties within ``TAU`` of the minimal
    value), lexicographically ordered.

    Ties are the expected case, not the edge case: plateau minima arise
    naturally from clipped constructions.  The reported value is the
    minimum as first met in lattice order.
    """
    _check_domains(grid, f)
    ties = _TieList()
    for X, (v,) in evaluated(grid.blocks(), f):
        ties.add(X, v)
    return ties.result()


def grid_pair_scan(f: Func, g: Func, grid: Grid, M: float, f_reader=None,
                   g_reader=None) -> tuple[float, float]:
    """``(grid_gauge(f, g, grid, M), grid_sup_abs_diff(f, g, grid))`` from
    one walk of the lattice, evaluating each function once per block: the
    only pair walk, whose columns the two kernels return, so their results
    and raised errors are its own bit for bit.  Each block and its values
    of ``f`` (of ``g``) also go to ``f_reader.add`` (``g_reader.add``) when
    one is given: ``certify`` passes a growth check and an
    ``ArgminSummary``."""
    require_positive(M, "level bound M")
    _check_domains(grid, f, g)
    floor = -M
    gauge = sup = 0.0
    for X, (fv, gv) in evaluated(grid.blocks(), f, g):
        gauge = max(gauge, _sup_block(np.maximum(fv, floor), np.maximum(gv, floor)))
        sup = max(sup, _sup_block(fv, gv))
        if f_reader is not None:
            f_reader.add(X, fv)
        if g_reader is not None:
            g_reader.add(X, gv)
    return gauge, sup


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
