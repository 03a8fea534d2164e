"""Vertical distance-to-epigraph primitives and certified gauge bounds.

This module holds the vocabulary everything else builds on:

- ``Point`` / ``Func``: points in R^n and pure, deterministic scalar
  functions on a closed ball around the origin.  Evaluation outside the
  declared ball is a hard error, never an extrapolation.
- ``Cylinder``: the comparison window (base radius ``R``, level band
  ``[-M, M]``).
- ``pos_part`` / ``pointwise_discrepancy``: the elementary vertical maps.
  For a value ``fa`` at ``x``, ``pos_part(fa - t)`` is the gap from the
  point ``(x, t)`` straight up to the region above the graph at that ``x``;
  the discrepancy compares two such gaps at a shared level.
- ``GaugeBound``: a scalar bound on the vertical discrepancy over a
  cylinder.  Every bound records its provenance and whether it is actually
  certified; the distinction is never blurred.
- ``FinitePointSet`` / ``ClosedBall``: minimizer-set representations with
  exact distance formulas.

Array path
----------
``Func.values`` evaluates a function on every row of an ``(n, dim)``
float64 array.  The family constructors give each ``Func`` a numpy batch
evaluator that repeats the scalar arithmetic operation for operation, so
the two paths agree bit for bit.  ``evaluated`` is the one scan
primitive: it evaluates several functions on each block of lattice points,
cuts a block before the first point, in lattice order, at which the
point-by-point loop would raise, and raises that loop's own exception once
the caller has checked the cut block.  It alone judges finiteness: rows
with a non-finite coordinate or batch value, and every row of a callable
without ``batch``, are evaluated point by point there.

Numerical discipline
--------------------
Everything is plain 64-bit floating point.  Exact claims about exactly
representable constructions are tested bit-exactly; everything else uses
the absolute slack ``TAU``.  Closed-ball membership tests allow the same
slack (relative and absolute, ``slack_radius``) so that lattice boundary
points generated by repeated addition are not spuriously rejected.
"""

from __future__ import annotations

import enum
import inspect  # loaded by dataclasses already
import math
import operator
from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, EvaluationError, PreconditionError

__all__ = [
    "TAU",
    "Point",
    "Func",
    "Cylinder",
    "Provenance",
    "GaugeBound",
    "FinitePointSet",
    "ClosedBall",
    "ArgminSet",
    "pos_part",
    "pointwise_discrepancy",
    "gauge_from_value_bound",
    "in_closed_ball",
]

TAU: float = 1e-12
"""Absolute slack for certified-inequality assertions and tie detection.

Constructions built from exactly representable constants are checked
bit-exactly; any comparison involving rounded arithmetic uses this slack,
stated explicitly at the point of use.
"""


def _require_finite(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise PreconditionError(f"{name} must be finite, got {x!r}")
    return x


def require_positive(x: float, name: str) -> None:
    """Raise ``PreconditionError`` unless ``x`` is finite and > 0."""
    if not (x > 0) or not math.isfinite(x):
        raise PreconditionError(f"{name} must be finite and > 0, got {x!r}")


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------


def record(cls=None, /, *, order=False):
    """A frozen ``@dataclass``, ordered with ``order``, with no method
    compiled per class.

    ``dataclass`` writes each method it adds as source text and compiles it
    with its own ``exec``; over this package's records that was most of its
    import time.  Here ``dataclass``, with ``init``, ``repr`` and ``eq`` off,
    only collects the fields (each default a plain value), which compiles
    nothing and keeps ``dataclasses.fields``, ``replace`` and ``asdict``
    working.  ``__setattr__`` and ``__delattr__`` always raise
    ``FrozenInstanceError``, as no record is subclassed; each other method
    is a closure over the field names: ``__init__`` (with ``__post_init__``
    and the signature ``dataclass`` gives it), ``__repr__``, ``__eq__`` and
    ``__hash__`` over the compared fields, and the four comparisons with
    ``order``.  A method the class defines itself is kept."""
    if cls is None:
        return lambda cls: record(cls, order=order)
    dataclass(cls, init=False, repr=False, eq=False)
    fs = fields(cls)
    own_hash = cls.__dict__.get("__hash__", MISSING)
    if own_hash is MISSING or (own_hash is None and "__eq__" in cls.__dict__):  # as ``dataclass``
        hash_key = _key([f.name for f in fs if (f.compare if f.hash is None else f.hash)])
        cls.__hash__ = lambda self: hash(hash_key(self))
    key = _key([f.name for f in fs if f.compare])
    methods = {"__init__": _init(cls, fs), "__repr__": _repr(tuple(f.name for f in fs if f.repr)),
               "__eq__": _compare(key, operator.eq), "__setattr__": _frozen_setattr,
               "__delattr__": _frozen_delattr}
    if order:
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            methods[f"__{op.__name__}__"] = _compare(key, op)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def _init(cls, fs):
    """``dataclass``'s ``__init__`` for the fields ``fs`` of ``cls``.  The
    all-positional call sets the fields in order; any other call takes the
    fields after its positional arguments from the keywords or the
    defaults, and a bad one raises ``TypeError``."""
    params = [f for f in fs if f.init]
    names = tuple(f.name for f in params)
    slots = tuple(enumerate(names))
    defaults = tuple(f.default for f in params)  # MISSING marks a required field
    tails = tuple(tuple(zip(names[k:], defaults[k:])) for k in range(len(names) + 1))
    post_init = hasattr(cls, "__post_init__")
    call = f"{cls.__qualname__}.__init__()"
    setter = object.__setattr__

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(slots):
            if len(args) > len(slots):
                raise TypeError(f"{call} takes {len(slots) + 1} positional arguments "
                                f"but {len(args) + 1} were given")
            for i, value in enumerate(args):
                setter(self, names[i], value)
            for name, default in tails[len(args)]:
                value = kwargs.pop(name, default)
                if value is MISSING:
                    raise TypeError(f"{call} missing required argument {name!r}")
                setter(self, name, value)
            for name in kwargs:  # left over: not a field, or one given by position
                raise TypeError(f"{call} got multiple values for argument {name!r}"
                                if name in names else
                                f"{call} got an unexpected keyword argument {name!r}")
        else:
            for i, name in slots:
                setter(self, name, args[i])
        if post_init:
            self.__post_init__()

    __init__.__signature__ = inspect.Signature([
        inspect.Parameter("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        *(inspect.Parameter(f.name, inspect.Parameter.POSITIONAL_OR_KEYWORD,
                            default=inspect.Parameter.empty if default is MISSING else default,
                            annotation=f.type) for f, default in zip(params, defaults))],
        return_annotation=None)
    return __init__


def _repr(names):
    def __repr__(self):
        return (self.__class__.__qualname__ + "("
                + ", ".join(f"{name}={getattr(self, name)!r}" for name in names) + ")")
    return __repr__


def _key(names):
    """A function from a record to the tuple of its ``names`` attributes
    (one at least)."""
    if len(names) > 1:
        return operator.attrgetter(*names)
    name, = names
    return lambda self: (getattr(self, name),)


def _compare(key, op):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(key(self), key(other))
        return NotImplemented
    return compare


def _frozen_setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Elementary vertical maps
# ---------------------------------------------------------------------------


def pos_part(r: float) -> float:
    """Positive part ``max(r, 0)``.

    Nonpositive inputs (including ``-0.0``) map to ``+0.0`` so that exact
    zero claims downstream are bit-exact.
    """
    r = _require_finite(r, "r")
    return r if r > 0.0 else 0.0


def _pos_part_rows(r: np.ndarray) -> np.ndarray:
    """``pos_part`` on an array; NaN where ``pos_part`` would raise."""
    v = np.maximum(r, 0.0)  # NaN stays NaN
    v += 0.0  # +0.0 for a zero of either sign, as ``pos_part`` gives
    finite = np.isfinite(r)
    if not finite.all():
        v[~finite] = np.nan
    return v


def pointwise_discrepancy(fa: float, fb: float, t: float) -> float:
    """Absolute difference of the two vertical gaps at a shared level ``t``.

    Equal to ``|pos_part(fa - t) - pos_part(fb - t)|`` in exact arithmetic,
    computed by case split::

        t >= max(fa, fb)  ->  0
        t <= min(fa, fb)  ->  |fa - fb|
        otherwise         ->  max(fa, fb) - t

    The case split matters in floating point: the direct composition can
    exceed ``|fa - fb|`` by one ulp (e.g. ``fa=0, fb=0.3, t=-1``), whereas
    this form never does (the mixed case is a correctly rounded value of a
    real number that is at most ``|fa - fb|``, and rounding is monotone).
    All domination properties therefore hold with zero tolerance.
    """
    fa = _require_finite(fa, "fa")
    fb = _require_finite(fb, "fb")
    t = _require_finite(t, "t")
    if t >= fa and t >= fb:
        return 0.0
    if t <= fa and t <= fb:
        return abs(fa - fb)
    hi = fa if fa > fb else fb
    return hi - t


# ---------------------------------------------------------------------------
# Points and membership
# ---------------------------------------------------------------------------


@record(order=True)
class Point:
    """A point of R^n, n >= 1.  Coordinates are finite floats.

    Ordering is lexicographic on coordinates, which fixes the reporting
    order of argmin tie lists.
    """

    coords: tuple[float, ...]

    def __post_init__(self) -> None:
        coords = tuple(float(c) for c in self.coords)
        if not coords:
            raise PreconditionError("Point needs at least one coordinate")
        for c in coords:
            if not math.isfinite(c):
                raise PreconditionError(f"Point coordinates must be finite, got {coords!r}")
        object.__setattr__(self, "coords", coords)

    @classmethod
    def of(cls, *coords: float) -> "Point":
        return cls(tuple(coords))

    @classmethod
    def origin(cls, dim: int) -> "Point":
        return cls((0.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def norm(self) -> float:
        s = 0.0
        for c in self.coords:
            s += c * c
        return math.sqrt(s)

    def dist(self, other: "Point") -> float:
        if other.dim != self.dim:
            raise DomainError(f"dimension mismatch: {self.dim} vs {other.dim}")
        s = 0.0
        for a, b in zip(self.coords, other.coords):
            d = a - b
            s += d * d
        return math.sqrt(s)

    def __str__(self) -> str:
        return "(" + ", ".join(repr(c) for c in self.coords) + ")"


def lattice_point(coords: tuple[float, ...]) -> Point:
    """A ``Point`` from a tuple of finite Python floats (a row of a lattice
    block), without re-validating it."""
    p = object.__new__(Point)
    object.__setattr__(p, "coords", coords)
    return p


def slack_radius(radius: float) -> float:
    """``radius * (1 + TAU) + TAU``: the largest distance that counts as
    inside a closed ball of ``radius``.  The slack keeps lattice boundary
    points (built by repeated float addition) inside balls of nominally
    equal radius; it is applied wherever ball membership or containment is
    decided."""
    return radius * (1.0 + TAU) + TAU


def in_closed_ball(point: Point, radius: float, center: Point | None = None) -> bool:
    """Closed-ball membership with floating-point slack: true iff
    ``||point - center|| <= slack_radius(radius)``."""
    if radius < 0:
        return False
    if math.isinf(radius):
        return True
    d = point.norm() if center is None else point.dist(center)
    if d == math.inf:  # judged again as a row
        return bool(within_bound(np.array([point.coords]), np.array([d]),
                                 slack_radius(radius), center)[0])
    return d <= slack_radius(radius)


# Row-wise twins of ``Point.norm`` / ``Point.dist`` / ``in_closed_ball``: the
# squares are summed in coordinate order, exactly as the scalar loops do.  They
# read one column at a time and accumulate in place, so no ``(n, dim)``
# temporary is built; lattice blocks are column-major, which makes each column
# one contiguous run.  The operations are those of the scalar loops in either
# layout, so the bits are too.


def _sum_squares(X: np.ndarray, center: Optional[np.ndarray] = None) -> np.ndarray:
    """The squares of ``X - center`` (of ``X`` without a center) summed
    over each row in coordinate order, one column at a time, in place."""
    s = t = None
    for k in range(X.shape[1]):
        if center is None:
            t = np.multiply(X[:, k], X[:, k], out=t)
        else:
            t = np.subtract(X[:, k], center[k], out=t)
            np.multiply(t, t, out=t)
        if s is None:
            s, t = t, None
        else:
            s += t
    return s


def norms(X: np.ndarray) -> np.ndarray:
    """``Point.norm`` of every row of ``X``."""
    s = _sum_squares(X)
    return np.sqrt(s, out=s) if s.dtype.kind == "f" else np.sqrt(s)


def distances(X: np.ndarray, center: Point) -> np.ndarray:
    """``Point.dist(center)`` of every row of ``X``."""
    if X.shape[1] != center.dim:
        raise DomainError(f"dimension mismatch: {X.shape[1]} vs {center.dim}")
    s = _sum_squares(X, np.asarray(center.coords))
    return np.sqrt(s, out=s)


def overflow_can_fit(bound: float) -> bool:
    """Whether a row whose squared norm overflows to inf can still lie
    within ``bound``: only where ``bound`` is finite and ``bound**2``
    overflows too."""
    return bound < math.inf and bound * bound == math.inf


def within_bound(X: np.ndarray, d: np.ndarray, bound: float,
                 center: Point | None = None) -> np.ndarray:
    """``d <= bound`` for the norms ``d`` of the rows of ``X`` (their
    distances to ``center``), except that where ``overflow_can_fit(bound)``
    a row whose norm overflowed to inf is judged again by its norm scaled
    by its largest |coordinate| (|difference from ``center``|)."""
    inside = d <= bound
    if overflow_can_fit(bound):
        over = np.flatnonzero(d == math.inf)
        # a difference that overflows reads nan here: outside, as it is
        with np.errstate(over="ignore", invalid="ignore"):
            Y = X[over] if center is None else X[over] - np.asarray(center.coords)
            m = np.abs(Y).max(axis=1)
            inside[over] = m * np.sqrt(((Y / m[:, None]) ** 2).sum(axis=1)) <= bound
    return inside


def ball_mask(X: np.ndarray, radius: float, center: Point | None = None) -> np.ndarray:
    """``in_closed_ball`` of every row of ``X``, for a finite radius > 0."""
    d = norms(X) if center is None else distances(X, center)
    return within_bound(X, d, slack_radius(radius), center)


# ---------------------------------------------------------------------------
# Functions on a ball
# ---------------------------------------------------------------------------


@record
class Func:
    """A pure, deterministic scalar function on the closed ball
    ``||x|| <= domain_radius`` in R^dim.

    ``eval`` must be deterministic (same input, bit-identical output) and
    finite on the declared ball.  Calling the ``Func`` checks the domain
    first and the finiteness of the result after; out-of-domain evaluation
    raises ``DomainError`` rather than extrapolating, because downstream
    certificates are only meaningful on certified regions.

    ``batch``, when present, computes ``eval`` on every row of an
    ``(n, dim)`` float64 array as ``n`` float64 values, read and never
    written, that agree with it bit for bit wherever they are finite; a
    non-finite entry only means "ask ``eval``", which ``evaluated`` alone
    judges.  The family constructors supply it.  Without it, ``values``
    (like every scan) calls the function point by point.

    Instances are immutable and safe to share across threads.
    """

    eval: Callable[[Point], float]
    domain_radius: float = math.inf
    dim: int = 1
    label: str = ""
    batch: Optional[Callable[[np.ndarray], np.ndarray]] = field(
        default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not callable(self.eval):
            raise PreconditionError("eval must be callable")
        if self.batch is not None and not callable(self.batch):
            raise PreconditionError("batch must be callable")
        if not (self.domain_radius > 0):
            raise PreconditionError(f"domain_radius must be > 0, got {self.domain_radius!r}")
        if not (isinstance(self.dim, int) and self.dim >= 1):
            raise PreconditionError(f"dim must be an integer >= 1, got {self.dim!r}")

    def __call__(self, x: Point) -> float:
        value = self._value(x)
        if not math.isfinite(value):
            raise EvaluationError(
                f"function {self.label or '<unnamed>'} returned non-finite value "
                f"{value!r} at {x}"
            )
        return value

    def _value(self, x: Point) -> float:
        """The value at ``x`` after the dimension and domain checks, finite or not."""
        if x.dim != self.dim:
            raise DomainError(
                f"function {self.label or '<unnamed>'} expects dimension {self.dim}, "
                f"got point of dimension {x.dim}"
            )
        if not in_closed_ball(x, self.domain_radius):
            raise DomainError(
                f"point with norm {x.norm()!r} outside domain ball of radius "
                f"{self.domain_radius!r} of function {self.label or '<unnamed>'}"
            )
        return float(self.eval(x))

    def values(self, X: np.ndarray) -> np.ndarray:
        """The function at every row of the ``(n, dim)`` float64 array
        ``X``: bit-identical to calling it on each row in order, and
        raising what that loop raises first (domain, finiteness and
        ``pos_part`` checks included).  The array is the caller's own to
        write."""
        [(_, (v,))] = evaluated((X,), self)
        return v.copy()  # ``evaluated`` may yield the batch's own array

    def _rows(self, X: np.ndarray) -> np.ndarray:
        """The batch's values at the rows of ``X`` as they are, for
        ``evaluated`` to judge, with NaN only at rows outside a finite
        ``domain_radius`` (everywhere without ``batch``).  Callers never
        write into it: it may be the batch's own, shared array."""
        if self.batch is None or X.shape[1] != self.dim:
            return np.full(len(X), np.nan)
        v = np.asarray(self.batch(X), dtype=float)
        if math.isinf(self.domain_radius):
            return v
        inside = ball_mask(X, self.domain_radius)
        return v if inside.all() else np.where(inside, v, np.nan)

    # -- named analytic families -------------------------------------------

    @classmethod
    def constant(cls, value: float, dim: int = 1, label: str = "") -> "Func":
        value = _require_finite(value, "value")
        return cls(lambda _p, _v=value: _v, math.inf, dim, label or f"const({value!r})",
                   lambda X, _v=value: np.full(len(X), _v))

    @classmethod
    def quadratic(cls, coeff: float, dim: int = 1, label: str = "") -> "Func":
        """``x -> coeff * ||x||^2``."""
        coeff = _require_finite(coeff, "coeff")

        def _eval(p: Point, _c=coeff) -> float:
            s = 0.0
            for c in p.coords:
                s += c * c
            return _c * s

        return cls(_eval, math.inf, dim, label or f"{coeff!r}*|x|^2",
                   lambda X, _c=coeff: _c * _sum_squares(X))

    @classmethod
    def affine(cls, slope: Sequence[float], intercept: float, label: str = "") -> "Func":
        """``x -> <slope, x> + intercept``."""
        slope_t = tuple(_require_finite(s, "slope") for s in slope)
        if not slope_t:
            raise PreconditionError("affine slope must have at least one component")
        intercept = _require_finite(intercept, "intercept")

        def _eval(p: Point, _s=slope_t, _b=intercept) -> float:
            acc = _b
            for si, ci in zip(_s, p.coords):
                acc += si * ci
            return acc

        def _batch(X: np.ndarray, _s=slope_t, _b=intercept) -> np.ndarray:
            acc = np.full(len(X), _b)
            for k, si in enumerate(_s):
                acc += si * X[:, k]
            return acc

        return cls(_eval, math.inf, len(slope_t),
                   label or f"affine({slope_t!r}, {intercept!r})", _batch)

    @classmethod
    def bump(cls, center: Point, rho: float, amplitude: float, label: str = "") -> "Func":
        """Tent bump ``x -> amplitude * max(0, 1 - ||x - center|| / rho)``.

        Exactly ``amplitude * 0.0`` wherever ``||x - center|| >= rho``, also
        where its quotient by ``rho`` overflows.  An overflowing distance does
        not show ``||x - center|| >= rho`` once ``rho`` passes about 1.3e154,
        so the value there is ``inf`` and the call raises.
        """
        rho = _require_finite(rho, "rho")
        if rho <= 0:
            raise PreconditionError(f"rho must be > 0, got {rho!r}")
        amplitude = _require_finite(amplitude, "amplitude")

        def _eval(p: Point, _c=center, _r=rho, _a=amplitude) -> float:
            d = p.dist(_c)
            if d == math.inf:
                return d
            return _a * (0.0 if _r <= d else max(0.0, 1.0 - d / _r))

        def _batch(X: np.ndarray, _c=center, _r=rho, _a=amplitude) -> np.ndarray:
            return _a * _pos_part_rows(1.0 - distances(X, _c) / _r)

        return cls(_eval, math.inf, center.dim,
                   label or f"bump(center={center}, rho={rho!r}, amp={amplitude!r})",
                   _batch)

    @classmethod
    def clamp_shift(cls, base: "Func", shift: float, label: str = "") -> "Func":
        """``x -> max(base(x) - shift, 0)``: the graph dropped by ``shift``
        and clipped at level zero.  A difference that rounds to ``-inf`` clips
        to ``+0.0`` like any other; one that rounds to ``+inf`` is the value,
        so the call raises."""
        shift = _require_finite(shift, "shift")
        # max(0.0, r) is +0.0 for every r <= 0, -0.0 and -inf included
        return cls(lambda p, _b=base, _s=shift: max(0.0, _b(p) - _s),
                   base.domain_radius, base.dim,
                   label or f"pospart({base.label or 'f'} - {shift!r})",
                   lambda X, _b=base, _s=shift: _pos_part_rows(_b._rows(X) - _s))

    @classmethod
    def sum_of(cls, *terms: "Func", label: str = "") -> "Func":
        if not terms:
            raise PreconditionError("sum_of needs at least one term")
        dim = terms[0].dim
        if any(t.dim != dim for t in terms):
            raise PreconditionError("sum_of terms must share a dimension")
        radius = min(t.domain_radius for t in terms)
        return cls(lambda p, _ts=terms: _fsum_row([t(p) for t in _ts]),
                   radius, dim, label or "sum(" + ", ".join(t.label or "f" for t in terms) + ")",
                   lambda X, _ts=terms: _fsum_rows([t._rows(X) for t in _ts]))

    @classmethod
    def scaled(cls, base: "Func", factor: float, label: str = "") -> "Func":
        factor = _require_finite(factor, "factor")
        return cls(lambda p, _b=base, _k=factor: _k * _b(p),
                   base.domain_radius, base.dim,
                   label or f"{factor!r}*{base.label or 'f'}",
                   lambda X, _b=base, _k=factor: _k * _b._rows(X))


def _fsum_row(values: list[float]) -> float:
    """``math.fsum``, or NaN where it raises."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return math.nan


def _fsum_rows(columns: list[np.ndarray]) -> np.ndarray:
    """Row-wise ``_fsum_row`` of the columns, bit for bit where it is finite.

    For one or two terms, plain addition is already correctly rounded and
    equals ``fsum`` except in the sign of a zero sum, so only zero rows are
    redone; three or more terms, non-finite ones included, go through
    ``_fsum_row`` row by row."""
    if len(columns) > 2:
        return np.array([_fsum_row(r) for r in np.stack(columns, axis=1).tolist()])
    s = columns[0] if len(columns) == 1 else columns[0] + columns[1]
    redo = np.flatnonzero(s == 0.0)
    if redo.size:
        s = s.copy()
        rows = np.stack([c[redo] for c in columns], axis=1).tolist()
        s[redo] = [_fsum_row(r) for r in rows]
    return s


def _read_only(X: np.ndarray) -> bool:
    """True when neither ``X`` nor any array it views can be written."""
    while isinstance(X, np.ndarray):
        if X.flags.writeable:
            return False
        X = X.base
    return X is None


def last_block_memo(fn: Callable[[np.ndarray], object]) -> Callable[[np.ndarray], object]:
    """``fn`` remembering its result on the last read-only block it saw.

    A call with that same block object returns the kept result, so
    several consumers of one block share one computation; a writeable
    block could change between calls and is recomputed every time.  The
    kept result is shared, so callers must not write into it.  The memo is
    read once before the identity check, so the wrapper stays safe to call
    from several threads."""
    last: Optional[tuple[np.ndarray, object]] = None

    def memo(X: np.ndarray) -> object:
        nonlocal last
        hit = last
        if hit is not None and hit[0] is X:
            return hit[1]
        value = fn(X)
        if _read_only(X):
            last = (X, value)
        return value

    return memo


def evaluated(blocks: Iterable[np.ndarray], *funcs: Func, finite: bool = True
              ) -> Iterator[tuple[np.ndarray, list[np.ndarray]]]:
    """Evaluate ``funcs`` on the rows of each block as the loop ``for x in
    rows: for f in funcs: f(x)`` would, yielding ``(X, values)``: the
    block and one array per function.

    It is the one judge of finiteness: every row with a non-finite
    coordinate or value is replayed through ``Func.__call__``, so values,
    error types and messages are those of the scalar path.  If that loop
    raises, the block is cut before the raising row (and not yielded if
    that leaves it empty), and the loop's own exception is raised when the
    caller resumes: a scan checks its own per-point conditions on the cut
    block first, exactly as the scalar loop would have met them.  With
    ``finite=False`` the replay calls ``Func._value``: a non-finite value
    is kept for the caller to judge.

    Coordinates are checked for finiteness once per block; the per-row
    check runs only on a block that holds a non-finite coordinate.  A
    block whose coordinates and values are all finite is yielded as the
    batches computed it: the value arrays may be a batch's own, shared
    ones, so callers never write into them.  Only a block with a row to
    replay gets copies, which the replay writes into.
    """
    call = Func.__call__ if finite else Func._value
    for X in blocks:
        with np.errstate(all="ignore"):
            values = [f._rows(X) for f in funcs]
        finite_X = np.isfinite(X).all()
        if finite_X and all(np.isfinite(v).all() for v in values):
            yield X, values
            continue
        ok = finite_X or np.isfinite(X).all(axis=1)
        for v in values:
            ok = ok & np.isfinite(v)
        idx = np.flatnonzero(~ok)
        values = [v.copy() for v in values]  # a batch's own array is never written
        for i, row in zip(idx.tolist(), X[idx].tolist()):
            try:
                x = Point(tuple(row))
                for f, v in zip(funcs, values):
                    v[i] = call(f, x)
            except Exception as error:  # raised below, after the cut block
                if i:
                    yield X[:i], [v[:i] for v in values]
                raise error
        yield X, values


# ---------------------------------------------------------------------------
# Cylinder and gauge bounds
# ---------------------------------------------------------------------------


@record
class Cylinder:
    """Comparison window: base ball ``||x|| <= R`` times level band
    ``|t| <= M``."""

    R: float
    M: float

    def __post_init__(self) -> None:
        R = _require_finite(self.R, "R")
        M = _require_finite(self.M, "M")
        if R <= 0 or M <= 0:
            raise PreconditionError(f"cylinder needs R > 0 and M > 0, got R={R!r}, M={M!r}")
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "M", M)


class Provenance(enum.Enum):
    """How a gauge bound was obtained.  Recorded on every bound: a
    certified bound and an unaudited assumption must never look alike."""

    VALUE_BOUND = "ValueBound"
    ENVELOPE = "Envelope"
    TOLERANCE_FIELD = "ToleranceField"
    ASSUMED = "Assumed"


@record
class GaugeBound:
    """A scalar ``delta`` bounding the vertical discrepancy of a function
    pair over ``cylinder``.

    ``certified`` is True only when ``delta`` is a guaranteed upper bound
    (a caller-supplied certificate, a closed-form tolerance sup, or a grid
    supremum of a family declared grid-exact).  Grid scans of general
    families produce ``certified=False`` records whose ``detail`` marks
    them as estimates.
    ``Assumed`` provenance is never certified.
    """

    delta: float
    cylinder: Cylinder
    provenance: Provenance
    certified: bool = True
    detail: str = ""

    def __post_init__(self) -> None:
        delta = _require_finite(self.delta, "delta")
        if delta < 0:
            raise PreconditionError(f"gauge bound delta must be >= 0, got {delta!r}")
        if self.provenance is Provenance.ASSUMED and self.certified:
            raise PreconditionError("an Assumed gauge bound cannot be marked certified")
        object.__setattr__(self, "delta", delta)


def gauge_from_value_bound(eps: float, cylinder: Cylinder) -> GaugeBound:
    """Convert a caller-certified uniform value bound into a gauge bound.

    If ``sup |f - g| <= eps`` holds on the base ball then, because clipping
    at any level is 1-Lipschitz in the function value, the vertical
    discrepancy never exceeds ``eps`` anywhere on the cylinder.  The caller
    vouches for ``eps``; the conversion itself is lossless.
    """
    eps = _require_finite(eps, "eps")
    if eps < 0:
        raise PreconditionError(f"eps must be >= 0, got {eps!r}")
    return GaugeBound(
        delta=eps,
        cylinder=cylinder,
        provenance=Provenance.VALUE_BOUND,
        certified=True,
        detail=f"caller-certified sup|f-g| <= {eps!r} on the base ball of radius {cylinder.R!r}",
    )


# ---------------------------------------------------------------------------
# Minimizer-set representations
# ---------------------------------------------------------------------------


@record
class FinitePointSet:
    """A nonempty finite set of points (all of one dimension)."""

    points: tuple[Point, ...]

    def __post_init__(self) -> None:
        points = tuple(self.points)
        if not points:
            raise PreconditionError("FinitePointSet must be nonempty")
        dim = points[0].dim
        if any(p.dim != dim for p in points):
            raise PreconditionError("FinitePointSet points must share a dimension")
        object.__setattr__(self, "points", points)

    @property
    def dim(self) -> int:
        return self.points[0].dim


@record
class ClosedBall:
    """A closed ball (in R^1: a closed interval) with exact distance
    formula ``max(0, ||x - center|| - radius)``.  Radius 0 is a point."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        radius = _require_finite(self.radius, "radius")
        if radius < 0:
            raise PreconditionError(f"ball radius must be >= 0, got {radius!r}")
        object.__setattr__(self, "radius", radius)

    @property
    def dim(self) -> int:
        return self.center.dim


ArgminSet = FinitePointSet | ClosedBall
