"""Command-line front end: problem loading, certificate pipelines,
counterexample demos, sweeps, and record emission.

Problem files use a small line-oriented sectioned format (see the bundled
``problems/*.prob`` files and the README).  Functions are *named analytic
families plus parameters*, never arbitrary expressions: evaluation stays
pure and auditable.  One reader, ``_read``, parses every section against
the schema tables below (``_TOP``, ``_FAMILIES``, ``_SECTIONS``, ...); unknown
sections, unknown or missing keys, malformed values and rejected
constructor preconditions are line-anchored ``SpecParseError``s.

Certified numbers and oracle scan numbers are printed in separate labeled
columns in every output: a lattice scan is a lower-bound estimate and is
never dressed up as a certificate.  ``gauge`` and ``certify`` share one
stage (``_run``); every value is written by ``_fmt``, the certify record
through ``_record``, and all output goes through ``_emit``.

Each command, and each demo, declares only the flags it reads, and every
numeric flag is parsed by a problem-file value kind (``_flag``), so a bad
value, an unwritable ``--out`` or two flags that give one input two ways
end in exit code 2 before any scan.

Exit codes: 0 all checks pass / record valid; 1 demo property falsified;
3 a certify record with a false check.  An error ends in the exit code and
stderr prefix its class in ``errors.py`` carries (2 parse error, 3
precondition or window failure, 4 oracle cap exceeded, 5 certificate
inconsistency); a usage error ends in 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import math
import os
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .certificates import (
    Cover,
    EnvelopeCert,
    LocalCert,
    ToleranceField,
    aggregate_cover,
    envelope_width_bound,
    gauge_from_tolerance_field,
)
from .constructions import (
    SweepResult,
    build_impossibility_pair,
    build_sharpness_pair,
    build_strictness_pair,
    sharpness_sweep,
)
from .core import (
    TAU,
    ClosedBall,
    Cylinder,
    FinitePointSet,
    Func,
    GaugeBound,
    Point,
    evaluated,
    in_closed_ball,
)
from .errors import EpigaugeError, PreconditionError, SpecParseError
# grid_argmin stays bound here for the spans of bench/child.py; certify reads
# its minimizers from grid_pair_scan.
from .oracle import (
    ArgminResult,
    Grid,
    LevelGrid,
    dist_to_set,
    grid_argmin,
    grid_gauge,
    grid_pair_scan,
    grid_sup_abs_diff,
)
from .stability import GrowthCert, displacement_bound, value_gap_from_gauge

__all__ = ["ProblemSpec", "load_problem", "parse_problem_text", "main", "entrypoint"]

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------


@dataclass
class _Section:
    kind: str                     # "" for the top-level preamble
    arg: str                      # function name when kind == "function"
    line: int
    entries: list[tuple[str, str, int]]

    @property
    def title(self) -> str:
        return f"{self.kind} {self.arg}".strip() or "top level"


def _strip_comment(line: str) -> str:
    # '#' never appears in legal values, so a comment may follow content.
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _tokenize(text: str, path: str) -> list[_Section]:
    # A missing top-level key is reported at line 1.
    sections: list[_Section] = [_Section("", "", 1, [])]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise SpecParseError("unterminated section header", path, lineno)
            header = line[1:-1].strip()
            parts = header.split(None, 1)
            if not parts:
                raise SpecParseError("empty section header", path, lineno)
            kind = parts[0]
            if kind == "function":
                if len(parts) != 2 or not _NAME_RE.match(parts[1].strip()):
                    raise SpecParseError(
                        "function section needs a name: [function NAME]", path, lineno)
                sections.append(_Section("function", parts[1].strip(), lineno, []))
            elif kind in _SECTIONS:
                if len(parts) != 1:
                    raise SpecParseError(f"section [{kind}] takes no argument", path, lineno)
                sections.append(_Section(kind, "", lineno, []))
            else:
                raise SpecParseError(f"unknown section [{header}]", path, lineno)
            continue
        if "=" not in line:
            raise SpecParseError(f"expected 'key = value', got {line!r}", path, lineno)
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise SpecParseError("missing key before '='", path, lineno)
        sections[-1].entries.append((key, value, lineno))
    return sections


# ---------------------------------------------------------------------------
# Parse state and value kinds: kind(text, ctx, line, key) -> value, or a
# SpecParseError at the value's line
# ---------------------------------------------------------------------------


class _Context:
    """What value kinds and builders need: the file path, the problem
    dimension, the sections built so far, and the function sections, each
    built on its first reference."""

    def __init__(self, path: str):
        self.path = path
        self.dim = 0
        self.found: dict[str, object] = {}
        self.function_sections: dict[str, _Section] = {}
        self.functions: dict[str, Func] = {}
        self._visiting: set[str] = set()

    def error(self, message: str, line: int) -> SpecParseError:
        return SpecParseError(message, self.path, line)

    def call(self, line: int, build, *args, **kwargs):
        """``build(*args, **kwargs)``; a failed precondition of a
        certificate or constructor becomes a parse error at ``line``."""
        try:
            return build(*args, **kwargs)
        except PreconditionError as e:
            raise self.error(str(e), line) from e

    def function(self, name: str, line: int) -> Func:
        """The function ``name``, referenced at ``line``."""
        if name in self.functions:
            return self.functions[name]
        sec = self.function_sections.get(name)
        if sec is None:
            raise self.error(f"reference to undefined function {name!r}", line)
        if name in self._visiting:
            raise self.error(f"circular function definition involving {name!r}", sec.line)
        self._visiting.add(name)
        values = _read(self, sec, _FUNCTION_KEYS, ("family", _FAMILIES))
        build, radius = values.pop("family"), values.pop("domain_radius")
        func = self.call(sec.line, build, self, **values)
        domain = {} if radius is None else {"domain_radius": radius}
        self.functions[name] = dataclasses.replace(func, label=name, **domain)
        return self.functions[name]


def _float(text: str, ctx: _Context, line: int, key: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise ctx.error(f"{key}: expected a number, got {text!r}", line) from None
    if not math.isfinite(x):
        raise ctx.error(f"{key}: value must be finite, got {text!r}", line)
    return x


def _positive(text: str, ctx: _Context, line: int, key: str) -> float:
    x = _float(text, ctx, line, key)
    if x <= 0:
        raise ctx.error(f"{key} must be > 0", line)
    return x


def _nonnegative(text: str, ctx: _Context, line: int, key: str) -> float:
    x = _float(text, ctx, line, key)
    if x < 0:
        raise ctx.error(f"{key} must be >= 0", line)
    return x


def _int(text: str, ctx: _Context, line: int, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ctx.error(f"{key}: expected an integer, got {text!r}", line) from None


def _version(text: str, ctx: _Context, line: int, key: str) -> int:
    if _int(text, ctx, line, key) != SCHEMA_VERSION:
        raise ctx.error(f"unsupported version {text!r}", line)
    return SCHEMA_VERSION


def _dimension(text: str, ctx: _Context, line: int, key: str) -> int:
    n = _int(text, ctx, line, key)
    if n < 1:
        raise ctx.error(f"{key} must be >= 1", line)
    return n


def _bool(text: str, ctx: _Context, line: int, key: str) -> bool:
    v = text.lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise ctx.error(f"{key}: expected true/false, got {text!r}", line)


def _point(text: str, ctx: _Context, line: int, key: str) -> Point:
    """Coordinates separated by spaces or commas, one per dimension."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ctx.error(f"{key}: expected coordinates, got {text!r}", line)
    coords = tuple(_float(p, ctx, line, key) for p in parts)
    if len(coords) != ctx.dim:
        raise ctx.error(
            f"{key} has {len(coords)} components, problem dimension is {ctx.dim}", line)
    return Point(coords)


def _points(text: str, ctx: _Context, line: int, key: str) -> tuple[Point, ...]:
    chunks = [c for c in text.split(";") if c.strip()]
    if not chunks:
        raise ctx.error(f"{key}: expected ';'-separated points, got {text!r}", line)
    return tuple(_point(c, ctx, line, key) for c in chunks)


def _func(text: str, ctx: _Context, line: int, key: str) -> Func:
    if not _NAME_RE.match(text):
        raise ctx.error(f"{key}: invalid function name {text!r}", line)
    return ctx.function(text, line)


def _funcs(text: str, ctx: _Context, line: int, key: str) -> tuple[Func, ...]:
    names = text.replace(",", " ").split()
    if not names:
        raise ctx.error(f"{key}: expected function names, got {text!r}", line)
    return tuple(_func(name, ctx, line, key) for name in names)


def _cert(text: str, ctx: _Context, line: int, key: str) -> LocalCert:
    """``center | radius | lower | upper``."""
    parts = [p.strip() for p in text.split("|")]
    if len(parts) != 4:
        raise ctx.error(f"{key} entry must be 'center | radius | lower | upper'", line)
    center = _point(parts[0], ctx, line, f"{key} center")
    return ctx.call(line, LocalCert, center=center,
                    radius=_float(parts[1], ctx, line, f"{key} radius"),
                    lower=_func(parts[2], ctx, line, f"{key} lower"),
                    upper=_func(parts[3], ctx, line, f"{key} upper"))


# ---------------------------------------------------------------------------
# Schemas.  A schema maps each key to its kind, or to (kind, default) when
# the key is optional.  A family table maps the value of its discriminator
# key to (schema, builder).  Builders take the parsed values (most also the
# context) and look constructors up at call time.
# ---------------------------------------------------------------------------

# [function NAME]: the keys of every family, then the family table.  The
# label and domain_radius are applied to each family's function alike.
_FUNCTION_KEYS = {"domain_radius": (_positive, None)}
_FAMILIES = {
    "quadratic": ({"coeff": _float}, lambda c, coeff: Func.quadratic(coeff, dim=c.dim)),
    "constant": ({"value": _float}, lambda c, value: Func.constant(value, dim=c.dim)),
    "affine": ({"slope": _point, "intercept": _float},
               lambda c, slope, intercept: Func.affine(slope.coords, intercept)),
    "bump": ({"center": _point, "rho": _positive, "amplitude": _float},
             lambda c, center, rho, amplitude: Func.bump(center, rho, amplitude)),
    "clamp_shift": ({"base": _func, "shift": _float},
                    lambda c, base, shift: Func.clamp_shift(base, shift)),
    "scale": ({"base": _func, "factor": _float},
              lambda c, base, factor: Func.scaled(base, factor)),
    "sum": ({"terms": _funcs}, lambda c, terms: Func.sum_of(*terms)),
}

_TOLERANCE_FAMILIES = {  # radial_affine: base + slope * ||x|| / R
    "constant": ({"value": _nonnegative}, lambda **v: ToleranceField.constant(**v)),
    "radial_affine": ({"base": _float, "slope": _float},
                      lambda **v: ToleranceField.radial_affine(**v)),
}

_ARGMIN_KINDS = {
    "points": ({"argmin_points": _points}, lambda c, argmin_points, **growth:
               GrowthCert(argmin_set=FinitePointSet(argmin_points), **growth)),
    "ball": ({"argmin_center": _point, "argmin_radius": _float},
             lambda c, argmin_center, argmin_radius, **growth:
             GrowthCert(argmin_set=ClosedBall(argmin_center, argmin_radius), **growth)),
}


def _tolerance(c: _Context, family, **values) -> ToleranceField:
    if "cylinder" not in c.found:
        raise PreconditionError("[tolerance] requires a [cylinder] section")
    return family(cylinder=c.found["cylinder"], dim=c.dim, **values)


_TOP = {"version": (_version, SCHEMA_VERSION), "dimension": _dimension}

# section -> (schema, discriminator, builder), in the order sections are built
_SECTIONS = {
    "cylinder": ({"R": _float, "M": _float}, None, lambda c, R, M: Cylinder(R, M)),
    # a built function is labelled with its name
    "pair": ({"f": _func, "g": _func}, None, lambda c, f, g: (f.label, g.label)),
    "envelope": ({"region_radius": _float, "lower": _func, "upper": _func,
                  "grid_exact": (_bool, False)}, None, lambda c, **v: EnvelopeCert(**v)),
    "cover": ({"cert": _cert}, None, lambda c, cert: Cover(cert)),  # cert repeats
    "tolerance": ({"grid_exact": (_bool, False)}, ("family", _TOLERANCE_FAMILIES), _tolerance),
    "growth": ({"mu": _float, "radius": _float, "inf_value": _float},
               ("argmin_kind", _ARGMIN_KINDS), lambda c, argmin_kind, **v: argmin_kind(c, **v)),
    "grid": ({"step": (_positive, None), "level_step": (_positive, None)}, None,
             lambda c, **v: v),
}


def _read(ctx: _Context, sec: _Section, schema: dict, discriminator=None) -> dict:
    """The values of ``sec`` parsed against ``schema``.  A discriminator
    ``(key, table)`` picks the table entry named by that key's value: its
    keys join the schema and its builder is returned under the key.
    Duplicate, unknown and missing keys are checked, in that order, before
    any value is parsed; values are parsed in schema order."""
    entries: dict[str, tuple[str, int]] = {}
    for key, text, line in sec.entries:
        if key in entries:
            raise ctx.error(f"duplicate key {key!r}", line)
        entries[key] = (text, line)
    where = f"section [{sec.title}]"
    values: dict[str, object] = {}
    if discriminator is not None:
        dkey, table = discriminator
        if dkey not in entries:
            raise ctx.error(f"missing key {dkey!r}: required for {where}", sec.line)
        choice, line = entries.pop(dkey)
        if choice not in table:
            raise ctx.error(f"unknown {sec.kind} {dkey} {choice!r} (known: {sorted(table)})",
                            line)
        keys, values[dkey] = table[choice]
        schema = {**schema, **keys}
        where = f"{dkey} {choice!r} in {where}"
    for key, (_text, line) in entries.items():
        if key not in schema:
            raise ctx.error(f"unknown key {key!r}: not valid for {where}", line)
    for key, kind in schema.items():
        if not isinstance(kind, tuple) and key not in entries:
            raise ctx.error(f"missing key {key!r}: required for {where}", sec.line)
    for key, kind in schema.items():
        kind, default = kind if isinstance(kind, tuple) else (kind, None)
        values[key] = kind(entries[key][0], ctx, entries[key][1], key) if key in entries \
            else default
    return values


def _read_repeated(ctx: _Context, sec: _Section, schema: dict) -> dict:
    """The values of a section whose one key may repeat ([cover] cert),
    as a tuple in file order."""
    (key, kind), = schema.items()
    items = []
    for k, text, line in sec.entries:
        if k != key:
            raise ctx.error(f"unknown key {k!r}: not valid for section [{sec.title}]", line)
        items.append(kind(text, ctx, line, key))
    if not items:
        raise ctx.error(f"[{sec.kind}] needs at least one {key} entry", sec.line)
    return {key: tuple(items)}


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """A fully built in-memory problem: named functions, the comparison
    cylinder, optional certificate and growth blocks, and grid steps."""

    path: str
    sha256: str
    dimension: int
    functions: dict[str, Func]
    cylinder: Optional[Cylinder]
    pair: Optional[tuple[str, str]]
    envelope: Optional[EnvelopeCert]
    cover: Optional[Cover]
    tolerance: Optional[ToleranceField]
    growth: Optional[GrowthCert]
    grid_step: Optional[float]
    level_step: Optional[float]

    def pair_funcs(self) -> tuple[Func, Func]:
        if self.pair is None:
            raise PreconditionError("problem has no [pair] block")
        return self.functions[self.pair[0]], self.functions[self.pair[1]]

    def has_certificate(self) -> bool:
        return self.envelope is not None or self.cover is not None or self.tolerance is not None


def parse_problem_text(text: str, path: str = "<spec>") -> ProblemSpec:
    """Parse and semantically build a problem description.

    Structural problems (unknown fields, bad values, unresolved names,
    failed constructor preconditions) raise ``SpecParseError`` anchored at
    the offending line; mathematically inconsistent certificates raise
    ``CertificateViolationError``.  The first error found is raised: the
    top level, then every function section in file order (a referenced
    function is built on demand first), then the other sections in a fixed
    order: cylinder, pair, envelope, cover, tolerance, growth, grid.
    """
    sections = _tokenize(text, path)
    ctx = _Context(path)
    ctx.dim = _read(ctx, sections[0], _TOP)["dimension"]

    single: dict[str, _Section] = {}
    for sec in sections[1:]:
        if sec.kind == "function":
            if sec.arg in ctx.function_sections:
                raise ctx.error(f"function {sec.arg!r} defined twice", sec.line)
            ctx.function_sections[sec.arg] = sec
        else:
            if sec.kind in single:
                raise ctx.error(f"section [{sec.kind}] given twice", sec.line)
            single[sec.kind] = sec

    for name, sec in ctx.function_sections.items():
        ctx.function(name, sec.line)
    for kind, (schema, discriminator, build) in _SECTIONS.items():
        if kind in single:
            sec = single[kind]
            values = (_read_repeated(ctx, sec, schema) if kind == "cover"
                      else _read(ctx, sec, schema, discriminator))
            ctx.found[kind] = ctx.call(sec.line, build, ctx, **values)

    grid = ctx.found.pop("grid", {})
    return ProblemSpec(
        path=path,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        dimension=ctx.dim,
        functions=ctx.functions,
        grid_step=grid.get("step"),
        level_step=grid.get("level_step"),
        **{kind: ctx.found.get(kind) for kind in _SECTIONS if kind != "grid"},
    )


def load_problem(path: str | Path) -> ProblemSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SpecParseError(f"cannot read problem file: {e}", str(p), 0) from None
    return parse_problem_text(text, str(p))


# ---------------------------------------------------------------------------
# Shared command helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return "n/a"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Point):
        return " ".join(repr(c) for c in x.coords)
    return str(x)


def _emit(args, text: str) -> None:
    """Write ``text`` to the ``--out`` file when one is given, else to stdout."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _certified_bounds(spec: ProblemSpec, grid_step: float,
                      level_step: float) -> list[tuple[str, GaugeBound]]:
    """Evaluate every certificate block, labeled by its source block."""
    out: list[tuple[str, GaugeBound]] = []
    if spec.envelope is not None:
        out.append(("envelope", envelope_width_bound(spec.envelope, spec.cylinder, grid_step)))
    if spec.cover is not None:
        cert = aggregate_cover(spec.cover).to_envelope_cert(spec.cylinder.R)
        bound = envelope_width_bound(cert, spec.cylinder, grid_step)
        out.append(("cover",
                    dataclasses.replace(bound, detail="cover-aggregated; " + bound.detail)))
    if spec.tolerance is not None:
        out.append(("tolerance",
                    gauge_from_tolerance_field(spec.tolerance, grid_step, level_step)))
    return out


def _select_gauge(bounds: list[tuple[str, GaugeBound]]) -> tuple[str, GaugeBound]:
    """Tightest bound, preferring certified records over grid estimates."""
    certified = [b for b in bounds if b[1].certified]
    pool = certified if certified else bounds
    return min(pool, key=lambda b: b[1].delta)


@dataclass(frozen=True)
class _Stage:
    grid_step: float
    level_step: Optional[float]
    bounds: list[tuple[str, GaugeBound]]
    oracle_gauge: Optional[float] = None  # the oracle columns; None without a [pair]
    oracle_sup: Optional[float] = None
    argmin: Optional[ArgminResult] = None  # lattice minimizers of g


def _run(spec: ProblemSpec, args, need_level: bool) -> _Stage:
    """The stage ``gauge`` and ``certify`` share after their own precondition
    checks: the lattice steps (an option overrides the [grid] section), every
    certificate block's bound and, with a [pair], the oracle gauge, sup |f-g|
    and lattice minimizers of g from one pass over one base lattice."""
    grid_step = spec.grid_step if args.grid_step is None else args.grid_step
    level_step = spec.level_step if args.level_step is None else args.level_step
    if grid_step is None:
        raise PreconditionError("no grid step: add a [grid] section or pass --grid-step")
    if need_level and level_step is None:
        raise PreconditionError(
            "no level step: add level_step to [grid] or pass --level-step")
    bounds = _certified_bounds(spec, grid_step, level_step) if spec.has_certificate() else []
    if spec.pair is None:
        return _Stage(grid_step, level_step, bounds)
    f, g = spec.pair_funcs()
    gauge, sup, argmin = grid_pair_scan(f, g, Grid(spec.dimension, spec.cylinder.R, grid_step),
                                        LevelGrid(spec.cylinder.M, level_step))
    return _Stage(grid_step, level_step, bounds, gauge, sup, argmin)


# ---------------------------------------------------------------------------
# gauge command
# ---------------------------------------------------------------------------


def cmd_gauge(args) -> int:
    spec = load_problem(args.spec)
    if not spec.has_certificate() and spec.pair is None:
        raise PreconditionError(
            "nothing to do: the problem has neither a certificate block nor a [pair]")
    if spec.cylinder is None:
        raise PreconditionError("gauge requires a [cylinder] section")
    run = _run(spec, args, need_level=spec.tolerance is not None or spec.pair is not None)

    def row(quantity: str, certified: str, oracle) -> str:
        return f"{quantity:<24} {certified:<26} {_fmt(oracle):<26}\n"

    lines = [f"problem = {spec.path}\n",
             f"cylinder = R={_fmt(spec.cylinder.R)} M={_fmt(spec.cylinder.M)}\n",
             f"grid_step = {_fmt(run.grid_step)}  level_step = {_fmt(run.level_step)}\n",
             "\n", row("quantity", "certified", "oracle (grid lower bound)")]
    gauges = [(f"gauge[{label}]", _fmt(b.delta) + ("" if b.certified else " (estimate)"))
              for label, b in run.bounds] or [("gauge", "n/a")]
    lines += [row(name, certified, run.oracle_gauge) for name, certified in gauges]
    lines.append(row("sup |f-g|", "n/a", run.oracle_sup))
    if run.bounds:
        lines.append("\n")
    for label, b in run.bounds:
        lines += [f"certificate[{label}]: provenance={b.provenance.value} "
                  f"certified={_fmt(b.certified)}\n", f"  detail: {b.detail}\n"]
    _emit(args, "".join(lines))
    return 0


# ---------------------------------------------------------------------------
# certify command
# ---------------------------------------------------------------------------


def _pick_target_minimizer(growth: GrowthCert, R: float) -> Point:
    if isinstance(growth.argmin_set, FinitePointSet):
        candidates = [p for p in growth.argmin_set.points if in_closed_ball(p, R)]
        if not candidates:
            raise PreconditionError(
                "no listed minimizer lies inside the cylinder base ball")
        return min(candidates)
    return growth.argmin_set.center


def _record(sections: list[tuple[str, list[tuple[str, object]]]]) -> str:
    """``key = value`` lines, each section's under its ``[section]`` header
    (none for the preamble ""), every value written by ``_fmt``."""
    lines: list[str] = []
    for section, fields in sections:
        lines += [f"[{section}]"] if section else []
        lines += [f"{key} = {_fmt(value)}" for key, value in fields]
    return "\n".join(lines) + "\n"


def cmd_certify(args) -> int:
    spec = load_problem(args.spec)
    if spec.cylinder is None:
        raise PreconditionError("certify requires a [cylinder] section")
    if not spec.has_certificate():
        raise PreconditionError("certify requires a certificate block "
                                "([envelope], [cover] or [tolerance])")
    if spec.growth is None:
        raise PreconditionError("certify requires a [growth] section")
    if spec.pair is None:
        raise PreconditionError("certify requires a [pair] section")
    run = _run(spec, args, need_level=True)
    f, g = spec.pair_funcs()
    source, gauge = _select_gauge(run.bounds)

    xstar = _pick_target_minimizer(spec.growth, spec.cylinder.R)
    argmin = run.argmin
    xtilde = Point(tuple(argmin.rows[0].tolist()))

    cert = displacement_bound(gauge, spec.growth, xstar, xtilde, f, g, grid_step=run.grid_step)
    names, checks = ("x_star", "x_tilde"), cert.window_checks
    gaps = [value_gap_from_gauge(gauge, check) for check in checks]
    diffs = [abs(check.f_value - check.g_value) for check in checks]
    # Value-control consistency: where the conversion is valid, the observed
    # gap must not exceed the certified delta (TAU slack per the declared
    # floating-point discipline).
    value_ok = not any(gap.valid and diff > gap.bound + TAU for gap, diff in zip(gaps, diffs))
    oracle_dist = dist_to_set(xtilde, spec.growth.argmin_set)
    displacement_ok = cert.valid and oracle_dist <= cert.bound_with_slack + TAU

    now = datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')
    record = [
        ("", [("schema_version", SCHEMA_VERSION), ("problem_sha256", spec.sha256),
              ("spec_path", spec.path), ("generated_utc", now)]),
        ("problem", [("dimension", spec.dimension), ("cylinder_R", spec.cylinder.R),
                     ("cylinder_M", spec.cylinder.M), ("grid_step", run.grid_step),
                     ("level_step", run.level_step), ("f", spec.pair[0]), ("g", spec.pair[1])]),
        ("gauge", [("source_block", source), ("delta", gauge.delta),
                   ("provenance", gauge.provenance.value), ("certified", gauge.certified),
                   ("detail", gauge.detail)]),
        ("oracle", [("grid_gauge", run.oracle_gauge), ("grid_sup_abs_diff", run.oracle_sup),
                    ("argmin_tie_count", len(argmin.rows)), ("argmin_value", argmin.value)]),
        *((f"window_{name}", [(key, getattr(check, key)) for key in
                               ("point", "f_value", "g_value", "in_base", "in_level")])
          for name, check in zip(names, checks)),
        ("value_control", [
            *(field for name, gap in zip(names, gaps) for field in (
                (f"value_gap_{name}", gap.bound if gap.valid else "invalid"),
                (f"value_gap_{name}_reason", gap.reason or "ok"))),
            *((f"abs_diff_{name}", diff) for name, diff in zip(names, diffs)),
            ("value_control_consistent", value_ok)]),
        ("displacement", [("mu", spec.growth.mu), ("inf_value", spec.growth.inf_value),
                          ("growth_radius", spec.growth.radius),
                          ("x_star", xstar), ("x_tilde", xtilde), ("bound", cert.bound),
                          ("grid_step", cert.grid_step), ("slack", cert.slack),
                          ("bound_with_slack", cert.bound_with_slack),
                          ("oracle_dist", oracle_dist),
                          ("displacement_consistent", displacement_ok),
                          ("valid", cert.valid), ("detail", cert.detail)]),
    ]
    _emit(args, _record(record))
    failed = [name for name, ok in (("valid", cert.valid), ("value_control_consistent", value_ok),
                                    ("displacement_consistent", displacement_ok)) if not ok]
    if failed:
        sys.stderr.write(f"certificate check failed: {', '.join(failed)} = false in the record\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# demo command
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Property:
    name: str
    passed: bool
    detail: str


def _demo_strictness(args) -> tuple[list[_Property], None]:
    pair = build_strictness_pair(args.R, args.M, args.A)
    grid = Grid(1, args.R, args.grid_step)
    lgrid = LevelGrid(args.M, args.level_step)
    gauge, sup, _ = grid_pair_scan(pair.f, pair.g, grid, lgrid)
    return [
        _Property("cylinder_gauge_exactly_zero", gauge == 0.0,
                  f"oracle gauge = {_fmt(gauge)} (expected exactly 0.0)"),
        _Property("uniform_gap_equals_A", abs(sup - args.A) <= TAU,
                  f"oracle sup |f-g| = {_fmt(sup)} (expected {_fmt(args.A)}, slack {TAU})"),
    ], None


def _demo_impossibility(args) -> tuple[list[_Property], None]:
    queries = tuple(Point.of(q) for q in args.queries)
    y = None if args.y is None else Point.of(args.y)
    pair = build_impossibility_pair(args.R, queries, args.A, y=y)
    residuals = [max(abs(pair.f(q)), abs(pair.g(q))) for q in queries]
    interp_exact = all(r == 0.0 for r in residuals)

    grid = Grid(1, args.R, args.grid_step)
    sup = grid_sup_abs_diff(pair.f, pair.g, grid)
    peak_gap = abs(pair.f(pair.y) - pair.g(pair.y))
    sup_with_peak = max(sup, peak_gap)

    # Slope scan on a dedicated coarser lattice with the actual spacing:
    # finite differences divide evaluation rounding by the step, so the step
    # must not be tiny for the TAU band on the slope to be meaningful.
    slope_grid = Grid(1, args.R, args.R / 100.0)
    xs = np.concatenate(list(slope_grid.blocks()))
    vals = pair.g.values(xs)
    slopes = np.abs(vals[1:] - vals[:-1]) / (xs[1:, 0] - xs[:-1, 0])
    max_slope = float(slopes.max()) if slopes.size else 0.0
    lip = pair.lipschitz_bound()

    return [
        _Property("query_interpolation_exact", interp_exact,
                  f"max |f|,|g| over queries = {_fmt(max(residuals))} (expected bit-exact 0.0)"),
        _Property("peak_attains_A", pair.g(pair.y) == args.A,
                  f"g(y) = {_fmt(pair.g(pair.y))} at y = {pair.y} (rho = {_fmt(pair.rho)})"),
        _Property("sup_reaches_A_on_lattice_with_peak", sup_with_peak >= args.A - 1e-12,
                  f"sup |f-g| over lattice+peak = {_fmt(sup_with_peak)} >= "
                  f"{_fmt(args.A)} - 1e-12"),
        _Property("finite_difference_slope_bounded", max_slope <= lip + TAU,
                  f"max lattice slope = {_fmt(max_slope)} <= A/rho + tau = {_fmt(lip + TAU)}"),
    ], None


def _log_deltas(args) -> list[float]:
    """``--num-deltas`` drop sizes, log-spaced from exactly ``--delta-min``
    to exactly ``--delta-max`` and never outside them.  The inner drops use
    the C library's ``pow``: numpy's last bit depends on the CPU it runs on."""
    a, b, n = args.delta_min, args.delta_max, args.num_deltas
    lo, hi = math.log10(a), math.log10(b)
    step = (hi - lo) / max(n - 1, 1)
    inner = [min(max(10.0 ** (i * step + lo), a), b) for i in range(1, n - 1)]
    return [a, *inner, b][:n]


def _demo_sharpness(args) -> tuple[list[_Property], SweepResult]:
    sweep = sharpness_sweep(args.mu, _log_deltas(args), args.grid_step)
    props: list[_Property] = []

    # The sandwich is checked on the lattice the sweep's argmin scans.
    grid = Grid(1, sweep.radius, args.grid_step)
    sandwich_ok = True
    worst = 0.0
    for row in sweep.rows:
        family = build_sharpness_pair(args.mu, row.delta)
        for _, (fv, gv) in evaluated(grid.blocks(), family.f, family.g):
            diff = fv - gv
            worst = max(worst, float(np.max(diff - row.delta)), float(np.max(-diff)))
            if np.any((diff < 0.0) | (diff > row.delta + TAU)):
                sandwich_ok = False
    props.append(_Property(
        "pointwise_sandwich", sandwich_ok,
        f"0 <= f-g <= delta + tau at all {grid.cube_size()} lattice points per delta "
        f"(worst excess {_fmt(worst)})"))

    fam_big = build_sharpness_pair(args.mu, sweep.rows[-1].delta)
    gauge = grid_gauge(fam_big.f, fam_big.g, grid, LevelGrid(1.0, 0.02))
    props.append(_Property(
        "gauge_bounded_by_delta", gauge <= sweep.rows[-1].delta + TAU,
        f"oracle gauge = {_fmt(gauge)} <= delta + tau = "
        f"{_fmt(sweep.rows[-1].delta + TAU)}"))

    argmin_ok = all(
        abs(r.dist - build_sharpness_pair(args.mu, r.delta).argmin_radius) <= args.grid_step
        for r in sweep.rows)
    props.append(_Property(
        "extreme_argmin_within_h", argmin_ok,
        f"|dist - sqrt(2 delta/mu)| <= h for all {len(sweep.rows)} deltas"))

    displacement_ok = all(r.dist <= r.bound + r.slack for r in sweep.rows)
    props.append(_Property(
        "displacement_bound_holds", displacement_ok,
        "dist <= 2 sqrt(delta/mu) + 2h at every delta"))

    props.append(_Property(
        "loglog_slope_one_half", 0.48 <= sweep.slope <= 0.52,
        f"fitted slope = {_fmt(sweep.slope)} in [0.48, 0.52]"))
    return props, sweep


def _csv_text(sweep: Optional[SweepResult], props: Sequence[_Property] = ()) -> str:
    """The sweep table as CSV, or without a sweep the property table."""
    buf = io.StringIO()
    if sweep is not None:
        sweep.to_csv(buf)
    else:
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["property", "passed", "detail"])
        writer.writerows([p.name, "pass" if p.passed else "fail", p.detail] for p in props)
    return buf.getvalue()


def cmd_demo(build, args) -> int:
    """Run the demo ``build`` and report its properties; with ``--csv`` or
    ``--out``, also write its CSV."""
    props, sweep = build(args)
    for p in props:
        sys.stdout.write(f"{'PASS' if p.passed else 'FAIL'} {p.name}: {p.detail}\n")
    failed = [p.name for p in props if not p.passed]
    sys.stdout.write(f"{len(props) - len(failed)}/{len(props)} properties passed\n")
    if args.out or args.csv:
        _emit(args, _csv_text(sweep, props))
    if args.out:
        sys.stdout.write(f"wrote {args.out}\n")
    if failed:
        sys.stderr.write(f"demo property falsified: {', '.join(failed)}\n")
        return 1
    return 0


# ---------------------------------------------------------------------------
# sweep command
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    mu = args.mu
    if args.spec is not None:
        spec = load_problem(args.spec)
        if spec.growth is None:
            raise PreconditionError("--spec problem has no [growth] section to take mu from")
        mu = spec.growth.mu
    if mu is None:
        raise PreconditionError("pass --mu or --spec with a growth block")
    deltas = sorted(args.deltas) if args.deltas is not None else _log_deltas(args)
    sweep = sharpness_sweep(mu, deltas, args.grid_step)
    _emit(args, _csv_text(sweep))
    slope = f"slope = {_fmt(sweep.slope)}\n"
    if args.out:
        sys.stdout.write(f"wrote {args.out}\n{slope}")
    else:
        sys.stderr.write(slope)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors end in exit code 2 with a single stderr line.

    ``fill(parser)``, when given, adds the parser's arguments on its first
    use (parsing, usage or help), so a run builds only the parsers of the
    command it invokes."""

    def __init__(self, *args, fill=None, **kwargs):
        super().__init__(*args, **kwargs)
        self._fill = fill

    def _filled(self) -> None:
        fill, self._fill = self._fill, None
        if fill is not None:
            fill(self)

    def parse_known_args(self, args=None, namespace=None):
        self._filled()
        return super().parse_known_args(args, namespace)

    def format_usage(self) -> str:
        self._filled()
        return super().format_usage()

    def format_help(self) -> str:
        self._filled()
        return super().format_help()

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _flag(kind):
    """An argparse ``type`` that parses a value with the problem-file value
    ``kind``, so a flag and a problem-file key reject the same values."""
    def parse(text: str):
        try:
            return kind(text, _Context("<command line>"), 0, "value")
        except SpecParseError as e:
            raise argparse.ArgumentTypeError(e.message) from None
    return parse


def _flags(kind):
    """``_flag(kind)`` for each item of a comma-separated list."""
    return lambda text: [_flag(kind)(part) for part in text.split(",")]


class _Drops(argparse.Action):
    """A drop-size flag: ``--deltas`` and the log-range flags exclude each other."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = getattr(namespace, "drops_flag", None)
        if given is not None and (given == "--deltas") != (option_string == "--deltas"):
            raise argparse.ArgumentError(self, f"not allowed with argument {given}")
        namespace.drops_flag = option_string
        setattr(namespace, self.dest, values)


def _output_path(text: str) -> str:
    """An ``--out`` path that can be created or overwritten, checked at
    parse time so that no scan runs for output that cannot be written."""
    path = Path(text)
    try:
        if path.is_dir():  # also the empty path, which names the working directory
            raise argparse.ArgumentTypeError(f"{text!r} is not a file path")
        if not path.parent.is_dir():
            raise argparse.ArgumentTypeError(f"directory of {text!r} does not exist")
        writable = os.access(path if path.exists() else path.parent, os.W_OK)
    except OSError as e:  # e.g. a file name longer than the file system allows
        raise argparse.ArgumentTypeError(f"{text!r}: {e.strerror}") from None
    if not writable:
        raise argparse.ArgumentTypeError(f"{text!r} is not writable")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epigauge",
        description="Certified perturbation gauges, displacement certificates, "
                    "and brute-force oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _flag(_positive)

    # Each command registers its name and help here and adds its own
    # arguments, through ``add(p, out)``, on first use.  Each builds its own
    # actions: argparse's parents= would share action objects, so one
    # command's defaults would leak into another's.
    def command(parent, name: str, func, grid_step: Optional[float], help: Optional[str],
                add) -> None:
        def fill(p) -> None:
            p.set_defaults(func=func)
            p.add_argument("--grid-step", type=positive, default=grid_step,
                           help="base lattice step (gauge, certify: overrides the [grid] "
                                "section)")
            out = p.add_mutually_exclusive_group()
            out.add_argument("--out", type=_output_path, default=None,
                             help="write output to this file")
            p.add_argument("--threads", type=_flag(_dimension), default=1, help="accepted for "
                           "compatibility; has no effect (scans run as numpy blocks)")
            add(p, out)
        parent.add_parser(name, help=help, fill=fill)

    def drops(p, delta_min: float, num_deltas: int) -> None:
        p.add_argument("--delta-min", type=positive, default=delta_min, action=_Drops)
        p.add_argument("--delta-max", type=positive, default=1e-2, action=_Drops)
        p.add_argument("--num-deltas", type=_flag(_dimension), default=num_deltas, action=_Drops)

    def problem(p, out) -> None:
        p.add_argument("--spec", required=True, help="problem description file")
        p.add_argument("--level-step", type=positive, default=None,
                       help="level lattice step (overrides the [grid] section)")

    command(sub, "gauge", cmd_gauge, None,
            "evaluate certificate blocks and oracle gauge side by side", problem)
    command(sub, "certify", cmd_certify, None,
            "full pipeline: gauge -> window checks -> displacement certificate record", problem)

    def with_csv(add):
        """A demo's ``add``: ``--csv``, then the demo's own flags."""
        def add_demo(p, out) -> None:
            out.add_argument("--csv", action="store_true", help="write the CSV to stdout")
            add(p)
        return add_demo

    def strictness(p) -> None:
        p.add_argument("--R", type=positive, default=1.0)
        p.add_argument("--M", type=positive, default=2.0)
        p.add_argument("--A", type=positive, default=5.0)
        p.add_argument("--level-step", type=positive, default=0.05)

    def impossibility(p) -> None:
        p.add_argument("--R", type=positive, default=1.0)
        p.add_argument("--A", type=_flag(_nonnegative), default=5.0)
        p.add_argument("--queries", type=_flags(_float), default=[-0.5, 0.5],
                       help="comma-separated 1-d query coordinates")
        p.add_argument("--y", type=_flag(_float), default=None,
                       help="bump peak (default: auto-search)")

    def sharpness(p) -> None:
        p.add_argument("--mu", type=positive, default=2.0)
        drops(p, 1e-4, 6)

    def fill_demos(p) -> None:
        demos = p.add_subparsers(dest="name", required=True)
        for name, build, add in (("strictness", _demo_strictness, strictness),
                                 ("impossibility", _demo_impossibility, impossibility),
                                 ("sharpness", _demo_sharpness, sharpness)):
            command(demos, name, functools.partial(cmd_demo, build), 1e-4, None, with_csv(add))

    sub.add_parser("demo", help="build a counterexample construction and verify its stated "
                   "properties", fill=fill_demos)

    def sweep(p, out) -> None:
        mu_source = p.add_mutually_exclusive_group()
        mu_source.add_argument("--spec", default=None,
                               help="problem file with a growth block (provides mu)")
        mu_source.add_argument("--mu", type=positive, default=None)
        p.add_argument("--deltas", type=_flags(_positive), default=None, action=_Drops,
                       help="comma-separated drop sizes (instead of the log range)")
        drops(p, 1e-5, 8)

    command(sub, "sweep", cmd_sweep, 2e-5, "displacement sweep over drop sizes; "
            "CSV columns: delta,argmin,dist,bound,slack", sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, matching the parse-error code
        return int(e.code) if e.code is not None else 2
    try:
        return args.func(args)
    except EpigaugeError as e:  # each class carries its exit code and message prefix
        sys.stderr.write(f"{e.prefix}: {e}\n")
        return e.exit_code
    except OSError as e:  # --out passed its parse-time check but cannot be written
        sys.stderr.write(f"cannot write output: {e}\n")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
