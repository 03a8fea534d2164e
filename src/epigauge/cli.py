"""Command-line front end: problem loading, certificate pipelines,
counterexample demos, sweeps, and record emission.

Problem files use a small line-oriented sectioned format (see the bundled
``problems/*.prob`` files and the README).  Functions are *named analytic
families plus parameters*, never arbitrary expressions: evaluation stays
pure and auditable.  Unknown sections, unknown keys, and malformed values
are line-anchored hard errors.

Certified numbers and oracle scan numbers are printed in separate labeled
columns in every output: a lattice scan is a lower-bound estimate and is
never dressed up as a certificate.

Exit codes: 0 all checks pass / record valid; 1 demo property falsified;
2 parse error; 3 precondition or window failure; 4 oracle cap exceeded;
5 certificate inconsistency.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, TextIO

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
)
from .errors import (
    CertificateViolationError,
    DomainError,
    EpigaugeError,
    EvaluationError,
    OracleCapError,
    PreconditionError,
    SpecParseError,
)
from .oracle import Grid, LevelGrid, dist_to_set, grid_argmin, grid_gauge, grid_sup_abs_diff
from .stability import GrowthCert, displacement_bound, value_gap_from_gauge

__all__ = ["ProblemSpec", "load_problem", "parse_problem_text", "main", "entrypoint"]

SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_TOP_KEYS = {"version", "dimension"}
_FUNC_KEYS = {
    "family", "coeff", "value", "slope", "intercept", "center", "rho",
    "amplitude", "base", "shift", "factor", "terms", "domain_radius",
}
_FAMILY_KEYS = {
    "quadratic": {"coeff"},
    "constant": {"value"},
    "affine": {"slope", "intercept"},
    "bump": {"center", "rho", "amplitude"},
    "clamp_shift": {"base", "shift"},
    "scale": {"base", "factor"},
    "sum": {"terms"},
}
_SECTION_KEYS = {
    "cylinder": {"R", "M"},
    "pair": {"f", "g"},
    "envelope": {"lower", "upper", "region_radius", "grid_exact"},
    "cover": {"cert"},
    "tolerance": {"family", "value", "base", "slope", "grid_exact"},
    "growth": {"mu", "radius", "inf_value", "argmin_kind", "argmin_points",
               "argmin_center", "argmin_radius"},
    "grid": {"step", "level_step"},
}
_TOLERANCE_FAMILY_KEYS = {
    "constant": {"value"},
    "radial_affine": {"base", "slope"},
}
_REPEATABLE_KEYS = {("cover", "cert")}


# ---------------------------------------------------------------------------
# Tokenizing
# ---------------------------------------------------------------------------


@dataclass
class _Section:
    kind: str                     # "" for the top-level preamble
    arg: str                      # function name when kind == "function"
    line: int
    entries: list[tuple[str, str, int]]


def _strip_comment(line: str) -> str:
    # '#' never appears in legal values, so a comment may follow content.
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def _tokenize(text: str, path: str) -> list[_Section]:
    sections: list[_Section] = [_Section("", "", 0, [])]
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
            elif kind in _SECTION_KEYS:
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


def _entries_to_map(section: _Section, allowed: set[str], path: str) -> dict[str, tuple[str, int]]:
    out: dict[str, tuple[str, int]] = {}
    for key, value, lineno in section.entries:
        if key not in allowed:
            raise SpecParseError(
                f"unknown key {key!r} in section [{section.kind or 'top level'}]", path, lineno)
        if key in out and (section.kind, key) not in _REPEATABLE_KEYS:
            raise SpecParseError(f"duplicate key {key!r}", path, lineno)
        out[key] = (value, lineno)
    return out


# ---------------------------------------------------------------------------
# Value parsing
# ---------------------------------------------------------------------------


def _parse_float(value: str, path: str, line: int, key: str) -> float:
    try:
        x = float(value)
    except ValueError:
        raise SpecParseError(f"{key}: expected a number, got {value!r}", path, line) from None
    if not math.isfinite(x):
        raise SpecParseError(f"{key}: value must be finite, got {value!r}", path, line)
    return x


def _parse_int(value: str, path: str, line: int, key: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SpecParseError(f"{key}: expected an integer, got {value!r}", path, line) from None


def _parse_bool(value: str, path: str, line: int, key: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "1"):
        return True
    if v in ("false", "no", "0"):
        return False
    raise SpecParseError(f"{key}: expected true/false, got {value!r}", path, line)


def _parse_vector(value: str, path: str, line: int, key: str) -> tuple[float, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise SpecParseError(f"{key}: expected coordinates, got {value!r}", path, line)
    return tuple(_parse_float(p, path, line, key) for p in parts)


def _parse_points(value: str, path: str, line: int, key: str) -> tuple[tuple[float, ...], ...]:
    chunks = [c.strip() for c in value.split(";") if c.strip()]
    if not chunks:
        raise SpecParseError(f"{key}: expected ';'-separated points, got {value!r}", path, line)
    return tuple(_parse_vector(c, path, line, key) for c in chunks)


def _parse_names(value: str, path: str, line: int, key: str) -> tuple[str, ...]:
    parts = value.replace(",", " ").split()
    if not parts:
        raise SpecParseError(f"{key}: expected function names, got {value!r}", path, line)
    for p in parts:
        if not _NAME_RE.match(p):
            raise SpecParseError(f"{key}: invalid function name {p!r}", path, line)
    return tuple(parts)


def _parse_name(value: str, path: str, line: int, key: str) -> str:
    if not _NAME_RE.match(value):
        raise SpecParseError(f"{key}: invalid function name {value!r}", path, line)
    return value


def _float_of(m: dict[str, tuple[str, int]], key: str, path: str) -> float:
    v, ln = m[key]
    return _parse_float(v, path, ln, key)


def _bool_of(m: dict[str, tuple[str, int]], key: str, path: str) -> bool:
    v, ln = m[key]
    return _parse_bool(v, path, ln, key)


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


def _build_function(name: str, entries: dict[str, tuple[str, int]], dim: int,
                    built: dict[str, Func], path: str, header_line: int) -> Func:
    family, fam_line = entries["family"]
    if family not in _FAMILY_KEYS:
        raise SpecParseError(
            f"unknown function family {family!r} (known: {sorted(_FAMILY_KEYS)})",
            path, fam_line)
    allowed = _FAMILY_KEYS[family] | {"family", "domain_radius"}
    for key, (_v, lineno) in entries.items():
        if key not in allowed:
            raise SpecParseError(
                f"key {key!r} is not valid for family {family!r}", path, lineno)
    for key in _FAMILY_KEYS[family]:
        if key not in entries:
            raise SpecParseError(
                f"function {name!r} (family {family!r}) is missing key {key!r}",
                path, header_line)

    domain_radius = math.inf
    if "domain_radius" in entries:
        v, lineno = entries["domain_radius"]
        domain_radius = _parse_float(v, path, lineno, "domain_radius")
        if domain_radius <= 0:
            raise SpecParseError("domain_radius must be > 0", path, lineno)

    def as_float(key: str) -> float:
        v, lineno = entries[key]
        return _parse_float(v, path, lineno, key)

    if family == "quadratic":
        return Func.quadratic(as_float("coeff"), dim=dim, domain_radius=domain_radius, label=name)
    if family == "constant":
        return Func.constant(as_float("value"), dim=dim, domain_radius=domain_radius, label=name)
    if family == "affine":
        v, lineno = entries["slope"]
        slope = _parse_vector(v, path, lineno, "slope")
        if len(slope) != dim:
            raise SpecParseError(
                f"slope has {len(slope)} components, problem dimension is {dim}", path, lineno)
        return Func.affine(slope, as_float("intercept"), domain_radius=domain_radius, label=name)
    if family == "bump":
        v, lineno = entries["center"]
        center = _parse_vector(v, path, lineno, "center")
        if len(center) != dim:
            raise SpecParseError(
                f"center has {len(center)} components, problem dimension is {dim}", path, lineno)
        rho = as_float("rho")
        if rho <= 0:
            raise SpecParseError("rho must be > 0", path, entries["rho"][1])
        return Func.bump(Point(center), rho, as_float("amplitude"),
                         domain_radius=domain_radius, label=name)
    if family == "clamp_shift":
        v, lineno = entries["base"]
        base = built[_parse_name(v, path, lineno, "base")]
        func = Func.clamp_shift(base, as_float("shift"), label=name)
    elif family == "scale":
        v, lineno = entries["base"]
        base = built[_parse_name(v, path, lineno, "base")]
        func = Func.scaled(base, as_float("factor"), label=name)
    else:  # sum
        v, lineno = entries["terms"]
        names = _parse_names(v, path, lineno, "terms")
        func = Func.sum_of(*(built[n] for n in names), label=name)
    if "domain_radius" in entries:
        func = dataclasses.replace(func, domain_radius=domain_radius, label=name)
    return func


def _function_dependencies(entries: dict[str, tuple[str, int]], path: str) -> tuple[str, ...]:
    family = entries.get("family", ("", 0))[0]
    if family in ("clamp_shift", "scale") and "base" in entries:
        v, lineno = entries["base"]
        return (_parse_name(v, path, lineno, "base"),)
    if family == "sum" and "terms" in entries:
        v, lineno = entries["terms"]
        return _parse_names(v, path, lineno, "terms")
    return ()


def parse_problem_text(text: str, path: str = "<spec>") -> ProblemSpec:
    """Parse and semantically build a problem description.

    Structural problems (unknown fields, bad values, unresolved names)
    raise ``SpecParseError`` anchored at the offending line; mathematically
    inconsistent certificates raise ``CertificateViolationError``.
    """
    sections = _tokenize(text, path)

    top = _entries_to_map(sections[0], _TOP_KEYS, path)
    if "version" in top:
        v, lineno = top["version"]
        if _parse_int(v, path, lineno, "version") != SCHEMA_VERSION:
            raise SpecParseError(f"unsupported version {v!r}", path, lineno)
    if "dimension" not in top:
        raise SpecParseError("missing required top-level key 'dimension'", path, 1)
    v, lineno = top["dimension"]
    dimension = _parse_int(v, path, lineno, "dimension")
    if dimension < 1:
        raise SpecParseError("dimension must be >= 1", path, lineno)

    func_sections: dict[str, _Section] = {}
    single_sections: dict[str, _Section] = {}
    for sec in sections[1:]:
        if sec.kind == "function":
            if sec.arg in func_sections:
                raise SpecParseError(f"function {sec.arg!r} defined twice", path, sec.line)
            func_sections[sec.arg] = sec
        else:
            if sec.kind in single_sections:
                raise SpecParseError(f"section [{sec.kind}] given twice", path, sec.line)
            single_sections[sec.kind] = sec

    # Build functions, resolving references to other named functions.
    func_entries = {
        name: _entries_to_map(sec, _FUNC_KEYS, path) for name, sec in func_sections.items()
    }
    for name, entries in func_entries.items():
        if "family" not in entries:
            raise SpecParseError(f"function {name!r} is missing key 'family'",
                                 path, func_sections[name].line)
    built: dict[str, Func] = {}
    pending = dict(func_entries)
    while pending:
        progress = False
        for name in list(pending):
            deps = _function_dependencies(pending[name], path)
            for d in deps:
                if d not in func_entries:
                    key = "base" if "base" in pending[name] else "terms"
                    raise SpecParseError(f"reference to undefined function {d!r}",
                                         path, pending[name][key][1])
            if all(d in built for d in deps):
                try:
                    built[name] = _build_function(name, pending[name], dimension, built,
                                                  path, func_sections[name].line)
                except PreconditionError as e:
                    raise SpecParseError(str(e), path, func_sections[name].line) from e
                del pending[name]
                progress = True
        if not progress:
            name = sorted(pending)[0]
            raise SpecParseError(f"circular function definition involving {name!r}",
                                 path, func_sections[name].line)

    def get_func(value: str, lineno: int, key: str) -> Func:
        name = _parse_name(value, path, lineno, key)
        if name not in built:
            raise SpecParseError(f"reference to undefined function {name!r}", path, lineno)
        return built[name]

    # Cylinder
    cylinder = None
    if "cylinder" in single_sections:
        sec = single_sections["cylinder"]
        m = _entries_to_map(sec, _SECTION_KEYS["cylinder"], path)
        for key in ("R", "M"):
            if key not in m:
                raise SpecParseError(f"[cylinder] is missing key {key!r}", path, sec.line)
        try:
            cylinder = Cylinder(_float_of(m, "R", path), _float_of(m, "M", path))
        except PreconditionError as e:
            raise SpecParseError(str(e), path, sec.line) from e

    # Pair
    pair = None
    if "pair" in single_sections:
        sec = single_sections["pair"]
        m = _entries_to_map(sec, _SECTION_KEYS["pair"], path)
        for key in ("f", "g"):
            if key not in m:
                raise SpecParseError(f"[pair] is missing key {key!r}", path, sec.line)
        get_func(m["f"][0], m["f"][1], "f")
        get_func(m["g"][0], m["g"][1], "g")
        pair = (_parse_name(m["f"][0], path, m["f"][1], "f"),
                _parse_name(m["g"][0], path, m["g"][1], "g"))

    # Envelope
    envelope = None
    if "envelope" in single_sections:
        sec = single_sections["envelope"]
        m = _entries_to_map(sec, _SECTION_KEYS["envelope"], path)
        for key in ("lower", "upper", "region_radius"):
            if key not in m:
                raise SpecParseError(f"[envelope] is missing key {key!r}", path, sec.line)
        grid_exact = _bool_of(m, "grid_exact", path) if "grid_exact" in m else False
        try:
            envelope = EnvelopeCert(
                region_radius=_float_of(m, "region_radius", path),
                lower=get_func(m["lower"][0], m["lower"][1], "lower"),
                upper=get_func(m["upper"][0], m["upper"][1], "upper"),
                grid_exact=grid_exact,
            )
        except PreconditionError as e:
            raise SpecParseError(str(e), path, sec.line) from e

    # Cover
    cover = None
    if "cover" in single_sections:
        sec = single_sections["cover"]
        certs = []
        for key, value, lineno in sec.entries:
            if key != "cert":
                raise SpecParseError(f"unknown key {key!r} in section [cover]", path, lineno)
            parts = [p.strip() for p in value.split("|")]
            if len(parts) != 4:
                raise SpecParseError(
                    "cert entry must be 'center | radius | lower | upper'", path, lineno)
            center = _parse_vector(parts[0], path, lineno, "cert center")
            if len(center) != dimension:
                raise SpecParseError(
                    f"cert center has {len(center)} components, problem dimension is "
                    f"{dimension}", path, lineno)
            try:
                certs.append(LocalCert(
                    center=Point(center),
                    radius=_parse_float(parts[1], path, lineno, "cert radius"),
                    lower=get_func(parts[2], lineno, "cert lower"),
                    upper=get_func(parts[3], lineno, "cert upper"),
                ))
            except PreconditionError as e:
                raise SpecParseError(str(e), path, lineno) from e
        if not certs:
            raise SpecParseError("[cover] needs at least one cert entry", path, sec.line)
        cover = Cover(tuple(certs))

    # Tolerance field
    tolerance = None
    if "tolerance" in single_sections:
        sec = single_sections["tolerance"]
        m = _entries_to_map(sec, _SECTION_KEYS["tolerance"], path)
        if cylinder is None:
            raise SpecParseError("[tolerance] requires a [cylinder] section", path, sec.line)
        if "family" not in m:
            raise SpecParseError("[tolerance] is missing key 'family'", path, sec.line)
        family, fam_line = m["family"]
        if family not in _TOLERANCE_FAMILY_KEYS:
            raise SpecParseError(
                f"unknown tolerance family {family!r} "
                f"(known: {sorted(_TOLERANCE_FAMILY_KEYS)})", path, fam_line)
        allowed = _TOLERANCE_FAMILY_KEYS[family] | {"family", "grid_exact"}
        for key, (_v, lineno) in m.items():
            if key not in allowed:
                raise SpecParseError(
                    f"key {key!r} is not valid for tolerance family {family!r}", path, lineno)
        for key in _TOLERANCE_FAMILY_KEYS[family]:
            if key not in m:
                raise SpecParseError(
                    f"tolerance family {family!r} is missing key {key!r}", path, sec.line)
        grid_exact = _bool_of(m, "grid_exact", path) if "grid_exact" in m else False
        if family == "constant":
            value = _float_of(m, "value", path)
            if value < 0:
                raise SpecParseError("tolerance value must be >= 0", path, m["value"][1])
            tolerance = ToleranceField.constant(value, cylinder, dimension, grid_exact)
        else:  # radial_affine: base + slope * ||x|| / R
            tolerance = ToleranceField.radial_affine(
                _float_of(m, "base", path), _float_of(m, "slope", path), cylinder,
                dimension, grid_exact)

    # Growth
    growth = None
    if "growth" in single_sections:
        sec = single_sections["growth"]
        m = _entries_to_map(sec, _SECTION_KEYS["growth"], path)
        for key in ("mu", "radius", "inf_value", "argmin_kind"):
            if key not in m:
                raise SpecParseError(f"[growth] is missing key {key!r}", path, sec.line)
        kind, kind_line = m["argmin_kind"]
        if kind == "points":
            if "argmin_points" not in m:
                raise SpecParseError(
                    "argmin_kind = points requires argmin_points", path, sec.line)
            v, ln = m["argmin_points"]
            pts = _parse_points(v, path, ln, "argmin_points")
            for pt in pts:
                if len(pt) != dimension:
                    raise SpecParseError(
                        f"argmin point has {len(pt)} components, problem dimension is "
                        f"{dimension}", path, ln)
            argmin_set = FinitePointSet(tuple(Point(pt) for pt in pts))
        elif kind == "ball":
            for key in ("argmin_center", "argmin_radius"):
                if key not in m:
                    raise SpecParseError(
                        f"argmin_kind = ball requires {key}", path, sec.line)
            v, ln = m["argmin_center"]
            center = _parse_vector(v, path, ln, "argmin_center")
            if len(center) != dimension:
                raise SpecParseError(
                    f"argmin_center has {len(center)} components, problem dimension is "
                    f"{dimension}", path, ln)
            argmin_set = ClosedBall(Point(center), _float_of(m, "argmin_radius", path))
        else:
            raise SpecParseError(
                f"argmin_kind must be 'points' or 'ball', got {kind!r}", path, kind_line)
        try:
            growth = GrowthCert(
                mu=_float_of(m, "mu", path),
                radius=_float_of(m, "radius", path),
                argmin_set=argmin_set,
                inf_value=_float_of(m, "inf_value", path),
            )
        except PreconditionError as e:
            raise SpecParseError(str(e), path, sec.line) from e

    # Grid steps
    grid_step = None
    level_step = None
    if "grid" in single_sections:
        sec = single_sections["grid"]
        m = _entries_to_map(sec, _SECTION_KEYS["grid"], path)
        if "step" in m:
            grid_step = _float_of(m, "step", path)
            if grid_step <= 0:
                raise SpecParseError("grid step must be > 0", path, m["step"][1])
        if "level_step" in m:
            level_step = _float_of(m, "level_step", path)
            if level_step <= 0:
                raise SpecParseError("level_step must be > 0", path, m["level_step"][1])

    return ProblemSpec(
        path=path,
        sha256=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        dimension=dimension,
        functions=built,
        cylinder=cylinder,
        pair=pair,
        envelope=envelope,
        cover=cover,
        tolerance=tolerance,
        growth=growth,
        grid_step=grid_step,
        level_step=level_step,
    )


def load_problem(path: str | Path) -> ProblemSpec:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as e:
        raise SpecParseError(f"cannot read problem file: {e}", str(p), 0) from None
    return parse_problem_text(text, str(p))


# ---------------------------------------------------------------------------
# Shared command helpers
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _fmt_point(p: Point) -> str:
    return " ".join(repr(c) for c in p.coords)


def _effective_steps(spec: ProblemSpec, args, need_level: bool) -> tuple[float, Optional[float]]:
    grid_step = args.grid_step if args.grid_step is not None else spec.grid_step
    level_step = args.level_step if getattr(args, "level_step", None) is not None \
        else spec.level_step
    if grid_step is None:
        raise PreconditionError("no grid step: add a [grid] section or pass --grid-step")
    if need_level and level_step is None:
        raise PreconditionError(
            "no level step: add level_step to [grid] or pass --level-step")
    return grid_step, level_step


def _certified_bounds(spec: ProblemSpec, grid_step: float,
                      level_step: float) -> list[tuple[str, GaugeBound]]:
    """Evaluate every certificate block, labeled by its source block."""
    if spec.cylinder is None:
        raise PreconditionError("certificate evaluation requires a [cylinder] section")
    out: list[tuple[str, GaugeBound]] = []
    if spec.envelope is not None:
        out.append(("envelope", envelope_width_bound(spec.envelope, spec.cylinder, grid_step)))
    if spec.cover is not None:
        agg = aggregate_cover(spec.cover)
        cert = agg.to_envelope_cert(spec.cylinder.R)
        bound = envelope_width_bound(cert, spec.cylinder, grid_step)
        bound = GaugeBound(bound.delta, bound.cylinder, bound.provenance, bound.certified,
                           "cover-aggregated; " + bound.detail)
        out.append(("cover", bound))
    if spec.tolerance is not None:
        out.append(("tolerance",
                    gauge_from_tolerance_field(spec.tolerance, grid_step, level_step)))
    return out


def _select_gauge(bounds: list[tuple[str, GaugeBound]]) -> tuple[str, GaugeBound]:
    """Tightest bound, preferring certified records over grid estimates."""
    certified = [b for b in bounds if b[1].certified]
    pool = certified if certified else bounds
    return min(pool, key=lambda b: b[1].delta)


def _out_stream(args) -> tuple[TextIO, bool]:
    if getattr(args, "out", None):
        return open(args.out, "w", encoding="utf-8", newline=""), True
    return sys.stdout, False


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
    need_level = spec.tolerance is not None or spec.pair is not None
    grid_step, level_step = _effective_steps(spec, args, need_level)

    bounds = _certified_bounds(spec, grid_step, level_step) if spec.has_certificate() else []

    oracle_gauge = None
    oracle_sup = None
    if spec.pair is not None:
        f, g = spec.pair_funcs()
        grid = Grid(spec.dimension, spec.cylinder.R, grid_step)
        lgrid = LevelGrid(spec.cylinder.M, level_step)
        oracle_gauge = grid_gauge(f, g, grid, lgrid, threads=args.threads)
        oracle_sup = grid_sup_abs_diff(f, g, grid, threads=args.threads)

    stream, close = _out_stream(args)
    try:
        w = stream.write
        w(f"problem = {spec.path}\n")
        w(f"cylinder = R={_fmt(spec.cylinder.R)} M={_fmt(spec.cylinder.M)}\n")
        w(f"grid_step = {_fmt(grid_step)}  level_step = "
          f"{_fmt(level_step) if level_step is not None else 'n/a'}\n")
        w("\n")
        w(f"{'quantity':<24} {'certified':<26} {'oracle (grid lower bound)':<26}\n")
        if bounds:
            for label, b in bounds:
                cert_col = f"{_fmt(b.delta)}" + ("" if b.certified else " (estimate)")
                w(f"{'gauge[' + label + ']':<24} {cert_col:<26} "
                  f"{_fmt(oracle_gauge) if oracle_gauge is not None else 'n/a':<26}\n")
        else:
            w(f"{'gauge':<24} {'n/a':<26} "
              f"{_fmt(oracle_gauge) if oracle_gauge is not None else 'n/a':<26}\n")
        w(f"{'sup |f-g|':<24} {'n/a':<26} "
          f"{_fmt(oracle_sup) if oracle_sup is not None else 'n/a':<26}\n")
        if bounds:
            w("\n")
            for label, b in bounds:
                w(f"certificate[{label}]: provenance={b.provenance.value} "
                  f"certified={_fmt(b.certified)}\n")
                w(f"  detail: {b.detail}\n")
    finally:
        if close:
            stream.close()
    return 0


# ---------------------------------------------------------------------------
# certify command
# ---------------------------------------------------------------------------


def _pick_target_minimizer(growth: GrowthCert, R: float) -> Point:
    if isinstance(growth.argmin_set, FinitePointSet):
        candidates = [p for p in growth.argmin_set.points if p.norm() <= R * (1 + TAU) + TAU]
        if not candidates:
            raise PreconditionError(
                "no listed minimizer lies inside the cylinder base ball")
        return min(candidates)
    return growth.argmin_set.center


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
    grid_step, level_step = _effective_steps(spec, args, need_level=True)

    f, g = spec.pair_funcs()
    source, gauge = _select_gauge(_certified_bounds(spec, grid_step, level_step))

    grid = Grid(spec.dimension, spec.cylinder.R, grid_step)
    lgrid = LevelGrid(spec.cylinder.M, level_step)
    oracle_gauge = grid_gauge(f, g, grid, lgrid, threads=args.threads)
    oracle_sup = grid_sup_abs_diff(f, g, grid, threads=args.threads)

    xstar = _pick_target_minimizer(spec.growth, spec.cylinder.R)
    argmin = grid_argmin(g, grid, threads=args.threads)
    xtilde = argmin.points[0]

    cert = displacement_bound(gauge, spec.growth, xstar, xtilde, f, g, grid_step=grid_step)
    check_star, check_tilde = cert.window_checks
    gap_star = value_gap_from_gauge(gauge, check_star)
    gap_tilde = value_gap_from_gauge(gauge, check_tilde)

    # Value-control consistency: where the conversion is valid, the observed
    # gap must not exceed the certified delta (TAU slack per the declared
    # floating-point discipline).
    value_ok = True
    for check, gap in ((check_star, gap_star), (check_tilde, gap_tilde)):
        if gap.valid and abs(check.f_value - check.g_value) > gap.bound + TAU:
            value_ok = False
    oracle_dist = dist_to_set(xtilde, spec.growth.argmin_set)
    displacement_ok = cert.valid and oracle_dist <= cert.bound_with_slack + TAU

    lines: list[str] = []
    add = lines.append
    add(f"schema_version = {SCHEMA_VERSION}")
    add(f"problem_sha256 = {spec.sha256}")
    add(f"spec_path = {spec.path}")
    add(f"generated_utc = {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}")
    add("[problem]")
    add(f"dimension = {spec.dimension}")
    add(f"cylinder_R = {_fmt(spec.cylinder.R)}")
    add(f"cylinder_M = {_fmt(spec.cylinder.M)}")
    add(f"grid_step = {_fmt(grid_step)}")
    add(f"level_step = {_fmt(level_step)}")
    add(f"f = {spec.pair[0]}")
    add(f"g = {spec.pair[1]}")
    add("[gauge]")
    add(f"source_block = {source}")
    add(f"delta = {_fmt(gauge.delta)}")
    add(f"provenance = {gauge.provenance.value}")
    add(f"certified = {_fmt(gauge.certified)}")
    add(f"detail = {gauge.detail}")
    add("[oracle]")
    add(f"grid_gauge = {_fmt(oracle_gauge)}")
    add(f"grid_sup_abs_diff = {_fmt(oracle_sup)}")
    add(f"argmin_tie_count = {len(argmin.points)}")
    add(f"argmin_value = {_fmt(argmin.value)}")
    add("[window_x_star]")
    add(f"point = {_fmt_point(check_star.point)}")
    add(f"f_value = {_fmt(check_star.f_value)}")
    add(f"g_value = {_fmt(check_star.g_value)}")
    add(f"in_base = {_fmt(check_star.in_base)}")
    add(f"in_level = {_fmt(check_star.in_level)}")
    add("[window_x_tilde]")
    add(f"point = {_fmt_point(check_tilde.point)}")
    add(f"f_value = {_fmt(check_tilde.f_value)}")
    add(f"g_value = {_fmt(check_tilde.g_value)}")
    add(f"in_base = {_fmt(check_tilde.in_base)}")
    add(f"in_level = {_fmt(check_tilde.in_level)}")
    add("[value_control]")
    add(f"value_gap_x_star = {_fmt(gap_star.bound) if gap_star.valid else 'invalid'}")
    add(f"value_gap_x_star_reason = {gap_star.reason or 'ok'}")
    add(f"value_gap_x_tilde = {_fmt(gap_tilde.bound) if gap_tilde.valid else 'invalid'}")
    add(f"value_gap_x_tilde_reason = {gap_tilde.reason or 'ok'}")
    add(f"abs_diff_x_star = {_fmt(abs(check_star.f_value - check_star.g_value))}")
    add(f"abs_diff_x_tilde = {_fmt(abs(check_tilde.f_value - check_tilde.g_value))}")
    add(f"value_control_consistent = {_fmt(value_ok)}")
    add("[displacement]")
    add(f"mu = {_fmt(spec.growth.mu)}")
    add(f"inf_value = {_fmt(spec.growth.inf_value)}")
    add(f"x_star = {_fmt_point(xstar)}")
    add(f"x_tilde = {_fmt_point(xtilde)}")
    add(f"bound = {_fmt(cert.bound)}")
    add(f"grid_step = {_fmt(cert.grid_step)}")
    add(f"slack = {_fmt(cert.slack)}")
    add(f"bound_with_slack = {_fmt(cert.bound_with_slack)}")
    add(f"oracle_dist = {_fmt(oracle_dist)}")
    add(f"displacement_consistent = {_fmt(displacement_ok)}")
    add(f"valid = {_fmt(cert.valid)}")
    add(f"detail = {cert.detail}")

    text = "\n".join(lines) + "\n"
    stream, close = _out_stream(args)
    try:
        stream.write(text)
    finally:
        if close:
            stream.close()
    return 0 if (cert.valid and value_ok and displacement_ok) else 3


# ---------------------------------------------------------------------------
# demo command
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Property:
    name: str
    passed: bool
    detail: str


def _print_properties(props: Sequence[_Property], stream: TextIO) -> int:
    for p in props:
        status = "PASS" if p.passed else "FAIL"
        stream.write(f"{status} {p.name}: {p.detail}\n")
    failed = sum(1 for p in props if not p.passed)
    stream.write(f"{len(props) - failed}/{len(props)} properties passed\n")
    return 0 if failed == 0 else 1


def _demo_strictness(args) -> list[_Property]:
    pair = build_strictness_pair(args.R, args.M, args.A)
    grid = Grid(1, args.R, args.grid_step)
    lgrid = LevelGrid(args.M, args.level_step)
    gauge = grid_gauge(pair.f, pair.g, grid, lgrid, threads=args.threads)
    sup = grid_sup_abs_diff(pair.f, pair.g, grid, threads=args.threads)
    return [
        _Property("cylinder_gauge_exactly_zero", gauge == 0.0,
                  f"oracle gauge = {_fmt(gauge)} (expected exactly 0.0)"),
        _Property("uniform_gap_equals_A", abs(sup - args.A) <= TAU,
                  f"oracle sup |f-g| = {_fmt(sup)} (expected {_fmt(args.A)}, slack {TAU})"),
    ]


def _demo_impossibility(args) -> list[_Property]:
    queries = tuple(Point.of(q) for q in args.queries)
    y = None if args.y is None else Point.of(args.y)
    pair = build_impossibility_pair(args.R, queries, args.A, y=y)
    residuals = [max(abs(pair.f(q)), abs(pair.g(q))) for q in queries]
    interp_exact = all(r == 0.0 for r in residuals)

    grid = Grid(1, args.R, args.grid_step)
    sup = grid_sup_abs_diff(pair.f, pair.g, grid, threads=args.threads)
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
    ]


def _demo_sharpness(args):
    deltas = np.logspace(math.log10(args.delta_min), math.log10(args.delta_max),
                         args.num_deltas)
    sweep = sharpness_sweep(args.mu, [float(d) for d in deltas], args.grid_step,
                            threads=args.threads)
    props: list[_Property] = []

    rng = np.random.default_rng(20260809)
    sandwich_ok = True
    worst = 0.0
    for row in sweep.rows:
        family = build_sharpness_pair(args.mu, row.delta)
        xs = rng.uniform(-sweep.radius, sweep.radius, size=(1000, 1))
        diff = family.f.values(xs) - family.g.values(xs)
        worst = max(worst, float(np.max(diff - row.delta)), float(np.max(-diff)))
        if np.any((diff < 0.0) | (diff > row.delta + TAU)):
            sandwich_ok = False
    props.append(_Property(
        "pointwise_sandwich", sandwich_ok,
        f"0 <= f-g <= delta + tau at 1000 random points per delta "
        f"(worst excess {_fmt(worst)})"))

    fam_big = build_sharpness_pair(args.mu, sweep.rows[-1].delta)
    gauge = grid_gauge(fam_big.f, fam_big.g, Grid(1, sweep.radius, args.grid_step),
                       LevelGrid(1.0, 0.02), threads=args.threads)
    props.append(_Property(
        "gauge_bounded_by_delta", gauge <= sweep.rows[-1].delta + TAU,
        f"oracle gauge = {_fmt(gauge)} <= delta + tau = "
        f"{_fmt(sweep.rows[-1].delta + TAU)}"))

    argmin_ok = all(
        abs(r.dist - math.sqrt(2.0 * r.delta / args.mu)) <= args.grid_step
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


def cmd_demo(args) -> int:
    if args.name == "strictness":
        props = _demo_strictness(args)
        sweep = None
    elif args.name == "impossibility":
        props = _demo_impossibility(args)
        sweep = None
    else:
        props, sweep = _demo_sharpness(args)

    code = _print_properties(props, sys.stdout)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            if sweep is not None:
                sweep.to_csv(fh)
            else:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["property", "passed", "detail"])
                for p in props:
                    writer.writerow([p.name, "pass" if p.passed else "fail", p.detail])
        sys.stdout.write(f"wrote {args.out}\n")
    elif args.csv and sweep is not None:
        sweep.to_csv(sys.stdout)
    return code


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
    if args.deltas is not None:
        deltas = sorted(args.deltas)
    else:
        deltas = [float(d) for d in np.logspace(math.log10(args.delta_min),
                                                math.log10(args.delta_max),
                                                args.num_deltas)]
    sweep = sharpness_sweep(mu, deltas, args.grid_step, threads=args.threads)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            sweep.to_csv(fh)
        sys.stdout.write(f"wrote {args.out}\n")
        sys.stdout.write(f"slope = {_fmt(sweep.slope)}\n")
    else:
        sweep.to_csv(sys.stdout)
        sys.stderr.write(f"slope = {_fmt(sweep.slope)}\n")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors end in exit code 2 with a single stderr line."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _positive_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return x


def _positive_floats(text: str) -> list[float]:
    return [_positive_float(part) for part in text.split(",")]


_THREADS_HELP = "accepted for compatibility; has no effect (scans run as numpy blocks)"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epigauge",
        description="Certified perturbation gauges, displacement certificates, "
                    "and brute-force oracle checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, spec_required: bool = True) -> None:
        if spec_required:
            p.add_argument("--spec", required=True, help="problem description file")
        p.add_argument("--grid-step", type=float, default=None, dest="grid_step",
                       help="base lattice step (overrides the [grid] section)")
        p.add_argument("--level-step", type=float, default=None, dest="level_step",
                       help="level lattice step (overrides the [grid] section)")
        p.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
        p.add_argument("--out", default=None, help="write output to this file")

    p_gauge = sub.add_parser("gauge", help="evaluate certificate blocks and oracle "
                                           "gauge side by side")
    common(p_gauge)
    p_gauge.set_defaults(func=cmd_gauge)

    p_cert = sub.add_parser("certify", help="full pipeline: gauge -> window checks "
                                            "-> displacement certificate record")
    common(p_cert)
    p_cert.set_defaults(func=cmd_certify)

    p_demo = sub.add_parser("demo", help="build a counterexample construction and "
                                         "verify its stated properties")
    p_demo.add_argument("name", choices=["sharpness", "strictness", "impossibility"])
    p_demo.add_argument("--R", type=float, default=1.0)
    p_demo.add_argument("--M", type=float, default=2.0)
    p_demo.add_argument("--A", type=float, default=5.0)
    p_demo.add_argument("--mu", type=float, default=2.0)
    p_demo.add_argument("--delta-min", type=_positive_float, default=1e-4, dest="delta_min")
    p_demo.add_argument("--delta-max", type=_positive_float, default=1e-2, dest="delta_max")
    p_demo.add_argument("--num-deltas", type=int, default=6, dest="num_deltas")
    p_demo.add_argument("--queries", type=lambda s: [float(x) for x in s.split(",")],
                        default=[-0.5, 0.5],
                        help="comma-separated 1-d query coordinates")
    p_demo.add_argument("--y", type=float, default=None,
                        help="bump peak (default: auto-search)")
    p_demo.add_argument("--grid-step", type=float, default=1e-4, dest="grid_step")
    p_demo.add_argument("--level-step", type=float, default=0.05, dest="level_step")
    p_demo.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_demo.add_argument("--csv", action="store_true",
                        help="emit the sweep table as CSV to stdout (sharpness)")
    p_demo.add_argument("--out", default=None, help="write CSV to this file")
    p_demo.set_defaults(func=cmd_demo)

    p_sweep = sub.add_parser("sweep", help="displacement sweep over drop sizes; "
                                           "CSV columns: delta,argmin,dist,bound,slack")
    p_sweep.add_argument("--spec", default=None,
                         help="problem file with a growth block (provides mu)")
    p_sweep.add_argument("--mu", type=float, default=None)
    p_sweep.add_argument("--deltas", type=_positive_floats, default=None,
                         help="comma-separated drop sizes (overrides the log range)")
    p_sweep.add_argument("--delta-min", type=_positive_float, default=1e-5, dest="delta_min")
    p_sweep.add_argument("--delta-max", type=_positive_float, default=1e-2, dest="delta_max")
    p_sweep.add_argument("--num-deltas", type=int, default=8, dest="num_deltas")
    p_sweep.add_argument("--grid-step", type=float, default=2e-5, dest="grid_step")
    p_sweep.add_argument("--threads", type=int, default=1, help=_THREADS_HELP)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

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
    except SpecParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        return 2
    except (PreconditionError, DomainError, EvaluationError) as e:
        sys.stderr.write(f"precondition failure: {e}\n")
        return 3
    except OracleCapError as e:
        sys.stderr.write(f"oracle cap exceeded: {e}\n")
        return 4
    except CertificateViolationError as e:
        sys.stderr.write(f"certificate inconsistency: {e}\n")
        return 5
    except EpigaugeError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
