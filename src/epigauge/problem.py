"""Problem files: a small line-oriented sectioned format (see the bundled
``problems/*.prob`` files and the README).  Functions are *named analytic
families plus parameters*, never arbitrary expressions: evaluation stays
pure and auditable.  One reader, ``_read``, parses every section against
the schema tables below (``_TOP``, ``_FAMILIES``, ``_SECTIONS``, ...); unknown
sections, unknown, missing or duplicate keys, malformed values and rejected
constructor preconditions are line-anchored ``SpecParseError``s.  A key may
repeat only where its schema kind is a list, as ``[cover]``'s ``cert`` is.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import re
from pathlib import Path
from typing import Optional

from .certificates import Cover, EnvelopeCert, LocalCert, ToleranceField
from .core import ClosedBall, Cylinder, FinitePointSet, Func, Point, record
from .errors import PreconditionError, SpecParseError
from .stability import GrowthCert

__all__ = ["SCHEMA_VERSION", "ProblemSpec", "load_problem", "parse_problem_text"]

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------


@record
class _Section:
    """One ``[kind arg]`` section of a problem file, from its header
    ``line``: the ``(key, value, line)`` entries in file order."""

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
# Schemas.  A schema maps each key to its kind, to (kind, default) when
# the key is optional, or to [kind] when the key may repeat.  A family table
# maps the value of its discriminator key to (schema, builder).  Builders
# take the parsed values (most also the context) and look constructors up at
# call time.
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


def _tolerance(c: _Context, family, grid_exact, **values) -> ToleranceField:
    # grid_exact is accepted and ignored: both families are certified in closed form
    if "cylinder" not in c.found:
        raise PreconditionError("[tolerance] requires a [cylinder] section")
    return family(cylinder=c.found["cylinder"], dim=c.dim, **values)


_TOP = {"version": (_version, SCHEMA_VERSION), "dimension": _dimension}

# section -> (schema, discriminator, builder), in the order sections are
# built and of ProblemSpec's fields for the built objects ([grid] builds its
# step: level_step is checked and ignored, as the band enters through M alone)
_SECTIONS = {
    "cylinder": ({"R": _float, "M": _float}, None, lambda c, R, M: Cylinder(R, M)),
    "pair": ({"f": _func, "g": _func}, None, lambda c, f, g: (f, g)),
    "envelope": ({"region_radius": _float, "lower": _func, "upper": _func,
                  "grid_exact": (_bool, False)}, None, lambda c, **v: EnvelopeCert(**v)),
    "cover": ({"cert": [_cert]}, None, lambda c, cert: Cover(cert)),
    "tolerance": ({"grid_exact": (_bool, False)}, ("family", _TOLERANCE_FAMILIES), _tolerance),
    "growth": ({"mu": _float, "radius": _float, "inf_value": _float},
               ("argmin_kind", _ARGMIN_KINDS), lambda c, argmin_kind, **v: argmin_kind(c, **v)),
    "grid": ({"step": (_positive, None), "level_step": (_positive, None)}, None,
             lambda c, step, level_step: step),
}


def _read(ctx: _Context, sec: _Section, schema: dict, discriminator=None) -> dict:
    """The values of ``sec`` parsed against ``schema``.  A discriminator
    ``(key, table)`` picks the table entry named by that key's value: its
    keys join the schema and its builder is returned under the key.  A key
    whose kind is a one-item list ``[kind]`` may repeat, and its values form
    a tuple in file order; only a base schema may hold one, since repeats
    are checked before the discriminator is read.  Duplicate, unknown and
    missing keys are checked, in that order, before any value is parsed;
    values are parsed in schema order."""
    entries: dict[str, list[tuple[str, int]]] = {}
    for key, text, line in sec.entries:
        if key in entries and not isinstance(schema.get(key), list):
            raise ctx.error(f"duplicate key {key!r}", line)
        entries.setdefault(key, []).append((text, line))
    where = f"section [{sec.title}]"
    values: dict[str, object] = {}
    if discriminator is not None:
        dkey, table = discriminator
        if dkey not in entries:
            raise ctx.error(f"missing key {dkey!r}: required for {where}", sec.line)
        (choice, line), = entries.pop(dkey)
        if choice not in table:
            raise ctx.error(f"unknown {sec.kind} {dkey} {choice!r} (known: {sorted(table)})",
                            line)
        keys, values[dkey] = table[choice]
        schema = {**schema, **keys}
        where = f"{dkey} {choice!r} in {where}"
    for key, found in entries.items():
        if key not in schema:
            raise ctx.error(f"unknown key {key!r}: not valid for {where}", found[0][1])
    for key, kind in schema.items():
        if not isinstance(kind, tuple) and key not in entries:
            raise ctx.error(f"missing key {key!r}: required for {where}", sec.line)
    for key, kind in schema.items():
        kind, default = kind if isinstance(kind, tuple) else (kind, None)
        if key not in entries:
            values[key] = default
        elif isinstance(kind, list):
            values[key] = tuple(kind[0](text, ctx, line, key) for text, line in entries[key])
        else:
            (text, line), = entries[key]
            values[key] = kind(text, ctx, line, key)
    return values


# ---------------------------------------------------------------------------
# Problem specification
# ---------------------------------------------------------------------------


@record
class ProblemSpec:
    """A fully built in-memory problem: named functions, the comparison
    cylinder, optional certificate and growth blocks, and the grid step.
    The section fields follow ``_SECTIONS``, each holding the object its
    section builds: ``pair`` holds the very ``Func``s in ``functions``, each
    labelled with its name."""

    path: str
    sha256: str
    dimension: int
    functions: dict[str, Func]
    cylinder: Optional[Cylinder]
    pair: Optional[tuple[Func, Func]]
    envelope: Optional[EnvelopeCert]
    cover: Optional[Cover]
    tolerance: Optional[ToleranceField]
    growth: Optional[GrowthCert]
    grid_step: Optional[float]

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
            values = _read(ctx, sec, schema, discriminator)
            ctx.found[kind] = ctx.call(sec.line, build, ctx, **values)

    return ProblemSpec(path, hashlib.sha256(text.encode("utf-8")).hexdigest(), ctx.dim,
                       ctx.functions, *(ctx.found.get(kind) for kind in _SECTIONS))


def load_problem(path: str | Path) -> ProblemSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise SpecParseError(f"cannot read problem file: {e}", str(p), 0) from None
    return parse_problem_text(text, str(p))
