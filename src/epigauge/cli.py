"""Command-line front end: certificate pipelines, counterexample demos,
sweeps, and record emission.  Problem files are read by ``problem``.

Certified numbers and oracle scan numbers are printed in separate labeled
columns in every output: a lattice scan is an estimate and is never
dressed up as a certificate.  ``gauge`` and ``certify`` share one
stage (``_run``); every value is written by ``_fmt``, the certify record
through ``_record``, and all output goes through ``_emit``.

Each command, and each demo, declares only the flags it reads, once, in
the table ``_COMMANDS``, and every numeric flag is parsed by a problem-file
value kind (``_flag``), so a bad value, an unwritable ``--out`` or two
flags that give one input two ways end in exit code 2 before any scan.
``main`` first walks argv against the table (``_walk``): a well-formed
``COMMAND [DEMO] (--flag VALUE | --csv)*`` is parsed there, without
argparse.  Any other argv (``-h``, ``--flag=value``, an abbreviation, a
value starting with "-", a repeated flag, an unknown token, a value that
does not convert) goes whole to the argparse parser built from the same
table (``_build_parser``), which renders help and usage errors; so a
``--queries`` list starting with a negative item is written
``--queries=-0.5,0.5``, as argparse has always needed.  Only such an argv
loads ``argparse``, and only the CSV writers load ``csv``.

Exit codes: 0 all checks pass / record valid; 1 demo property falsified;
3 a certify record with a false check or a falsified growth claim.  An
error ends in the exit code and stderr prefix its class in ``errors.py``
carries (2 parse error, 3 precondition or window failure, 4 oracle cap
exceeded, 5 certificate inconsistency); a usage error ends in 2.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import math
import os
import sys
import types
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import certificates
from .certificates import aggregate_cover, envelope_width_bound
from .constructions import (
    SweepResult,
    _plateau_half_width,
    build_impossibility_pair,
    build_strictness_pair,
    sharpness_sweep,
    sweep_lattice,
)
from .core import TAU, FinitePointSet, GaugeBound, Point, in_closed_ball, record
from .errors import EpigaugeError, PreconditionError, SpecParseError
# Nothing here calls grid_argmin (certify reads its minimizers from
# grid_pair_scan); bench/test_bench.py still reads this binding.
from .oracle import (
    ArgminSummary,
    Grid,
    dist_to_set,
    grid_argmin,
    grid_pair_scan,
    grid_sup_abs_diff,
)
from .problem import (SCHEMA_VERSION, ProblemSpec, _Context, _dimension, _float, _nonnegative,
                      _positive, load_problem)
from .stability import GrowthCert, GrowthScan, displacement_bound, value_gap_from_gauge

__all__ = ["main", "entrypoint"]


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


def _certified_bounds(spec: ProblemSpec, grid_step: float) -> list[tuple[str, GaugeBound]]:
    """Evaluate every certificate block, labeled by its source block."""
    out: list[tuple[str, GaugeBound]] = []
    if spec.envelope is not None:
        out.append(("envelope", envelope_width_bound(spec.envelope, spec.cylinder, grid_step)))
    if spec.cover is not None:
        cert = aggregate_cover(spec.cover).to_envelope_cert(spec.cylinder.R)
        bound = envelope_width_bound(cert, spec.cylinder, grid_step)
        out.append(("cover",
                    dataclasses.replace(bound, detail="cover-aggregated; " + bound.detail)))
    if spec.tolerance is not None:  # not bound here: bench/child.py wraps a 3-argument binding
        out.append(("tolerance",
                    certificates.gauge_from_tolerance_field(spec.tolerance, grid_step)))
    return out


def _select_gauge(bounds: list[tuple[str, GaugeBound]]) -> tuple[str, GaugeBound]:
    """Tightest bound, preferring certified records over grid estimates."""
    certified = [b for b in bounds if b[1].certified]
    pool = certified if certified else bounds
    return min(pool, key=lambda b: b[1].delta)


@record
class _Stage:
    """What ``_run`` found: the lattice step, the certificate blocks' bounds
    and, with a [pair], the oracle columns."""

    grid_step: float
    bounds: list[tuple[str, GaugeBound]]
    oracle_gauge: Optional[float] = None  # the oracle columns; None without a [pair]
    oracle_sup: Optional[float] = None


def _run(spec: ProblemSpec, args, *readers) -> _Stage:
    """The stage ``gauge`` and ``certify`` share after their own precondition
    checks: the lattice step (an option overrides the [grid] section), every
    certificate block's bound and, with a [pair], the oracle gauge and sup
    |f-g| from one pass over one base lattice, which also feeds the
    ``readers`` of f's and g's values (``grid_pair_scan``).  The band enters
    through ``M`` alone.  The base lattice is held to the cap first, for
    every problem, so an over-cap step exits 4 before any certificate block
    is read."""
    grid_step = spec.grid_step if args.grid_step is None else args.grid_step
    if grid_step is None:
        raise PreconditionError("no grid step: add a [grid] section or pass --grid-step")
    grid = Grid(spec.dimension, spec.cylinder.R, grid_step)
    bounds = _certified_bounds(spec, grid_step) if spec.has_certificate() else []
    if spec.pair is None:
        return _Stage(grid_step, bounds)
    return _Stage(grid_step, bounds,
                  *grid_pair_scan(*spec.pair, grid, spec.cylinder.M, *readers))


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
    run = _run(spec, args)

    def row(quantity: str, certified: str, oracle) -> str:
        return f"{quantity:<24} {certified:<26} {_fmt(oracle):<26}\n"

    lines = [f"problem = {spec.path}\n",
             f"cylinder = R={_fmt(spec.cylinder.R)} M={_fmt(spec.cylinder.M)}\n",
             f"grid_step = {_fmt(run.grid_step)}\n",
             "\n", row("quantity", "certified", "oracle (grid estimate)")]
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
    growth, argmin = GrowthScan(spec.growth, spec.cylinder.R), ArgminSummary()
    run = _run(spec, args, growth, argmin)
    f, g = spec.pair
    source, gauge = _select_gauge(run.bounds)

    xstar = _pick_target_minimizer(spec.growth, spec.cylinder.R)
    xtilde = Point(argmin.first)
    falsification = growth.report(f, run.grid_step)

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
                     ("f", f.label), ("g", g.label)]),
        ("gauge", [("source_block", source), ("delta", gauge.delta),
                   ("provenance", gauge.provenance.value), ("certified", gauge.certified),
                   ("detail", gauge.detail)]),
        ("oracle", [("grid_gauge", run.oracle_gauge), ("grid_sup_abs_diff", run.oracle_sup),
                    ("argmin_tie_count", argmin.count), ("argmin_value", argmin.value)]),
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
        ("growth_check", [*((key, getattr(falsification, key)) for key in (
            "points_checked", "violations", "worst_point", "worst_gap", "worst_required",
            "falsified")), ("caveat", falsification.header)]),
    ]
    _emit(args, _record(record))
    failed = [name for name, ok in (("certified", gauge.certified), ("valid", cert.valid),
                                    ("value_control_consistent", value_ok),
                                    ("displacement_consistent", displacement_ok)) if not ok]
    checks = ([f"{', '.join(failed)} = false"] if failed else []) + (
        ["falsified = true"] if falsification.falsified else [])
    if checks:
        sys.stderr.write(f"certificate check failed: {'; '.join(checks)} in the record\n")
        return 3
    return 0


# ---------------------------------------------------------------------------
# demo command
# ---------------------------------------------------------------------------


@record
class _Property:
    """One stated property of a demo construction, checked."""

    name: str
    passed: bool
    detail: str


def _demo_strictness(args) -> tuple[list[_Property], None]:
    pair = build_strictness_pair(args.R, args.M, args.A)
    gauge, sup = grid_pair_scan(pair.f, pair.g, Grid(1, args.R, args.grid_step), args.M)
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
    lip = pair.lipschitz_bound()
    if not math.isfinite(lip):  # an infinite bound would pass the slope check vacuously
        raise PreconditionError(
            f"slope bound A/rho overflows: A = {pair.A!r}, rho = {pair.rho!r}")
    residuals = [max(abs(pair.f(q)), abs(pair.g(q))) for q in queries]
    interp_exact = all(r == 0.0 for r in residuals)

    grid = Grid(1, args.R, args.grid_step)
    sup = grid_sup_abs_diff(pair.f, pair.g, grid)
    f_peak, g_peak = pair.f(pair.y), pair.g(pair.y)
    sup_with_peak = max(sup, abs(f_peak - g_peak))

    # Slope scan on a dedicated coarser lattice with the actual spacing:
    # finite differences divide evaluation rounding by the step, so the step
    # must not be tiny for the TAU band on the slope to be meaningful.
    slope_grid = Grid(1, args.R, args.R / 100.0)
    xs = np.concatenate(list(slope_grid.blocks()))
    vals = pair.g.values(xs)
    with np.errstate(over="ignore"):  # rounds to inf, as the scalar quotient does
        slopes = np.abs(vals[1:] - vals[:-1]) / (xs[1:, 0] - xs[:-1, 0])
    max_slope = float(slopes.max()) if slopes.size else 0.0
    slope_bound = lip * (1.0 + TAU) + TAU  # relative: the rounding grows with A/rho

    return [
        _Property("query_interpolation_exact", interp_exact,
                  f"max |f|,|g| over queries = {_fmt(max(residuals))} (expected bit-exact 0.0)"),
        _Property("peak_attains_A", g_peak == args.A,
                  f"g(y) = {_fmt(g_peak)} at y = {pair.y} (rho = {_fmt(pair.rho)})"),
        _Property("sup_reaches_A_on_lattice_with_peak", sup_with_peak >= args.A - 1e-12,
                  f"sup |f-g| over lattice+peak = {_fmt(sup_with_peak)} >= "
                  f"{_fmt(args.A)} - 1e-12"),
        _Property("finite_difference_slope_bounded", max_slope <= slope_bound,
                  f"max lattice slope = {_fmt(max_slope)} <= A/rho * (1 + tau) + tau = "
                  f"{_fmt(slope_bound)}"),
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


def _capped_log_deltas(args, mu: float) -> list[float]:
    """``_log_deltas(args)``, built only once the sweep's lattice cap has
    passed on the number of drops and the largest one."""
    n = args.num_deltas
    sweep_lattice(mu, args.delta_max if n > 1 else args.delta_min, args.grid_step, n)
    return _log_deltas(args)


def _demo_sharpness(args) -> tuple[list[_Property], SweepResult]:
    deltas = _capped_log_deltas(args, args.mu)
    if len(set(deltas)) < 2:  # the log-log slope it checks is undefined
        raise PreconditionError(f"the slope fit needs two distinct drops, all are {deltas[0]!r}")
    sweep = sharpness_sweep(args.mu, deltas, args.grid_step)
    props: list[_Property] = []

    # The sandwich is checked on the lattice the sweep's argmin scans, from
    # the least and greatest f - g the sweep reduced there: rounding is
    # monotone, so max(diff - delta) is max(diff) - delta bit for bit.
    grid = Grid(1, sweep.radius, args.grid_step)
    sandwich_ok = all(r.gap_min >= 0.0 and r.gap_max <= r.delta + TAU for r in sweep.rows)
    worst = 0.0
    for r in sweep.rows:
        worst = max(worst, r.gap_max - r.delta, -r.gap_min)
    props.append(_Property(
        "pointwise_sandwich", sandwich_ok,
        f"0 <= f-g <= delta + tau at all {grid.cube_size()} lattice points per delta "
        f"(worst excess {_fmt(worst)})"))

    # The oracle gauge of the last drop on B x [-1, 1]: f, g >= 0, so its sup |f - g|.
    last = sweep.rows[-1]
    gauge = max(0.0, last.gap_max, -last.gap_min)
    props.append(_Property(
        "gauge_bounded_by_delta", gauge <= last.delta + TAU,
        f"oracle gauge = {_fmt(gauge)} <= delta + tau = {_fmt(last.delta + TAU)}"))

    argmin_ok = all(
        abs(r.dist - _plateau_half_width(args.mu, r.delta)) <= args.grid_step
        for r in sweep.rows)
    props.append(_Property(
        "extreme_argmin_within_h", argmin_ok,
        f"|dist - sqrt(2 delta/mu)| <= h for all {len(sweep.rows)} deltas"))

    displacement_ok = all(r.dist <= r.bound + r.slack for r in sweep.rows)
    props.append(_Property(
        "displacement_bound_holds", displacement_ok,
        "dist <= 2 sqrt(delta/mu) + 2h at every delta"))

    # With every extreme argmin within h of its plateau half-width, the fit
    # can miss 1/2 only through the lattice's quantization of dist: the drops
    # are too close together for this step to resolve their slope.
    slope_ok = 0.48 <= sweep.slope <= 0.52
    if not slope_ok and all(p.passed for p in props):
        raise PreconditionError(
            f"grid step {args.grid_step!r} does not resolve the log-log slope of these "
            f"drops: fitted slope = {_fmt(sweep.slope)} with every extreme argmin within h "
            f"of sqrt(2 delta/mu)")
    props.append(_Property(
        "loglog_slope_one_half", slope_ok, f"fitted slope = {_fmt(sweep.slope)} in [0.48, 0.52]"))
    return props, sweep


def _csv_text(sweep: Optional[SweepResult], props: Sequence[_Property] = ()) -> str:
    """The sweep table as CSV, or without a sweep the property table."""
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if sweep is not None:
        writer.writerow(["delta", "argmin", "dist", "bound", "slack"])
        writer.writerows([repr(r.delta), repr(r.argmin), repr(r.dist), repr(r.bound),
                          repr(r.slack)] for r in sweep.rows)
    else:
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
    deltas = sorted(args.deltas) if args.deltas is not None else _capped_log_deltas(args, mu)
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


def _reversed_drops(values: dict) -> Optional[str]:
    """The usage error of a log drop range whose ``--delta-min``, given or
    by default, exceeds its ``--delta-max``; ``None`` for any other
    namespace."""
    lo, hi = values.get("delta_min"), values.get("delta_max")
    if lo is not None and hi is not None and lo > hi:
        return f"--delta-min {lo!r} exceeds --delta-max {hi!r}"
    return None


def _flag(kind):
    """An argparse ``type`` that parses a value with the problem-file value
    ``kind``, so a flag and a problem-file key reject the same values."""
    def parse(text: str):
        try:
            return kind(text, _Context("<command line>"), 0, "value")
        except SpecParseError as e:
            import argparse

            raise argparse.ArgumentTypeError(e.message) from None
    return parse


def _flags(kind):
    """``_flag(kind)`` for each item of a comma-separated list."""
    return lambda text: [_flag(kind)(part) for part in text.split(",")]


def _output_path(text: str) -> str:
    """An ``--out`` path that can be created or overwritten, checked at
    parse time so that no scan runs for output that cannot be written."""
    path = Path(text)
    try:
        if path.is_dir():  # also the empty path, which names the working directory
            problem = f"{text!r} is not a file path"
        elif not path.parent.is_dir():
            problem = f"directory of {text!r} does not exist"
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            problem = f"{text!r} is not writable"
        else:
            return text
    except OSError as e:  # e.g. a file name longer than the file system allows
        problem = f"{text!r}: {e.strerror}"
    import argparse

    raise argparse.ArgumentTypeError(problem)


_SWITCH = "store_true"  # the kind of a flag that takes no value


class _Opt(NamedTuple):
    """One flag of one command.  ``kind`` converts its value (``None``: the
    text itself; ``_SWITCH``: no value, True when given); ``group`` names
    its mutually exclusive group; a ``drops`` flag is a ``_Drops``."""

    flag: str
    kind: object = None
    default: object = None
    help: Optional[str] = None
    group: Optional[str] = None
    drops: bool = False
    required: bool = False

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")  # argparse's rule for "--long-flag"


class _Command(NamedTuple):
    """A command or demo: ``func(args)`` runs it, with the flags ``opts``
    in help order.  A command with ``demos`` takes a demo name instead."""

    help: Optional[str]
    func: object = None
    opts: tuple[_Opt, ...] = ()
    demos: Optional[dict[str, "_Command"]] = None


_POSITIVE = _flag(_positive)
_COUNT = _flag(_dimension)


def _runs(grid_step: Optional[float], *opts: _Opt) -> tuple[_Opt, ...]:
    """The flags every command reads, then ``opts``."""
    return (
        _Opt("--grid-step", _POSITIVE, grid_step,
             "base lattice step (gauge, certify: overrides the [grid] section)"),
        _Opt("--out", _output_path, help="write output to this file", group="out"),
        _Opt("--threads", _COUNT, 1,
             "accepted for compatibility; has no effect (scans run as numpy blocks)"),
        *opts)


def _drop_flags(delta_min: float, num_deltas: int) -> tuple[_Opt, ...]:
    return (_Opt("--delta-min", _POSITIVE, delta_min, drops=True),
            _Opt("--delta-max", _POSITIVE, 1e-2, drops=True),
            _Opt("--num-deltas", _COUNT, num_deltas, drops=True))


def _demo(build, *opts: _Opt) -> _Command:
    return _Command(None, functools.partial(cmd_demo, build), _runs(
        1e-4, _Opt("--csv", _SWITCH, False, "write the CSV to stdout", group="out"), *opts))


_PROBLEM = _Opt("--spec", help="problem description file", required=True)

_DEMOS = {
    "strictness": _demo(_demo_strictness, _Opt("--R", _POSITIVE, 1.0), _Opt("--M", _POSITIVE, 2.0),
                        _Opt("--A", _POSITIVE, 5.0)),
    "impossibility": _demo(
        _demo_impossibility, _Opt("--R", _POSITIVE, 1.0), _Opt("--A", _flag(_nonnegative), 5.0),
        _Opt("--queries", _flags(_float), [-0.5, 0.5], "comma-separated 1-d query coordinates"),
        _Opt("--y", _flag(_float), None, "bump peak (default: auto-search)")),
    "sharpness": _demo(_demo_sharpness, _Opt("--mu", _POSITIVE, 2.0), *_drop_flags(1e-4, 6)),
}

# Every command and demo, each flag declared once.  ``_walk`` parses a
# well-formed argv from this table; ``_build_parser`` turns it into argparse,
# which renders help and usage errors.
_COMMANDS = {
    "gauge": _Command("evaluate certificate blocks and oracle gauge side by side",
                      cmd_gauge, _runs(None, _PROBLEM)),
    "certify": _Command("full pipeline: gauge -> window checks -> displacement certificate "
                        "record", cmd_certify, _runs(None, _PROBLEM)),
    "demo": _Command("build a counterexample construction and verify its stated properties",
                     demos=_DEMOS),
    "sweep": _Command(
        "displacement sweep over drop sizes; CSV columns: delta,argmin,dist,bound,slack",
        cmd_sweep, _runs(
            2e-5, _Opt("--spec", help="problem file with a growth block (provides mu)",
                       group="mu"),
            _Opt("--mu", _POSITIVE, group="mu"),
            _Opt("--deltas", _flags(_positive), None,
                 "comma-separated drop sizes (instead of the log range)", drops=True),
            *_drop_flags(1e-5, 8))),
}


def _walk(argv: Sequence[str]) -> Optional[types.SimpleNamespace]:
    """A namespace with the attributes ``_build_parser().parse_args(argv)``
    gives, for an argv of the form ``COMMAND [DEMO] (--flag VALUE | --csv)*``
    in which each flag is one of the command's option strings and appears
    at most once, no value starts with "-", every value converts, every
    required flag is given, no two given flags exclude each other and the
    log drop range is not reversed.  ``None`` for any other argv, which
    argparse then parses (or rejects)."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    values: dict[str, object] = {"command": argv[0]}
    command, rest = _COMMANDS[argv[0]], argv[1:]
    if command.demos is not None:
        if not rest or rest[0] not in command.demos:
            return None
        values["name"] = rest[0]
        command, rest = command.demos[rest[0]], rest[1:]
    values["func"] = command.func
    values.update((opt.dest, opt.default) for opt in command.opts)
    opts = {opt.flag: opt for opt in command.opts}
    given: list[_Opt] = []
    i = 0
    while i < len(rest):
        opt = opts.get(rest[i])
        if opt is None or opt in given:
            return None
        given.append(opt)
        if opt.kind == _SWITCH:
            values[opt.dest], i = True, i + 1
            continue
        if i + 1 == len(rest) or rest[i + 1].startswith("-"):
            return None
        try:
            values[opt.dest] = rest[i + 1] if opt.kind is None else opt.kind(rest[i + 1])
        except Exception:  # argparse reports it, or raises it again
            return None
        if opt.drops:
            values["drops_flag"] = opt.flag
        i += 2
    groups = [opt.group for opt in given if opt.group is not None]
    drops = [opt.flag for opt in given if opt.drops]
    if (len(set(groups)) < len(groups) or ("--deltas" in drops and len(drops) > 1)
            or any(opt.required and opt not in given for opt in command.opts)
            or _reversed_drops(values)):
        return None
    return types.SimpleNamespace(**values)


def _build_parser() -> argparse.ArgumentParser:
    """``_COMMANDS`` as an argparse parser: built, with argparse loaded, only
    for a command line ``_walk`` does not take."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """Usage errors end in exit code 2 with a single stderr line."""

        def error(self, message: str):
            self.exit(2, f"{self.prog}: error: {message}\n")

        def parse_known_args(self, args=None, namespace=None):
            namespace, extras = super().parse_known_args(args, namespace)
            reversed_range = _reversed_drops(vars(namespace))
            if reversed_range:
                self.error(reversed_range)
            return namespace, extras

    class Drops(argparse.Action):
        """A drop-size flag: ``--deltas`` and the log-range flags exclude each other."""

        def __call__(self, parser, namespace, values, option_string=None):
            given = getattr(namespace, "drops_flag", None)
            if given is not None and (given == "--deltas") != (option_string == "--deltas"):
                raise argparse.ArgumentError(self, f"not allowed with argument {given}")
            namespace.drops_flag = option_string
            setattr(namespace, self.dest, values)

    def add_commands(parser: argparse.ArgumentParser, dest: str,
                     commands: dict[str, _Command]) -> None:
        # Each command builds its own actions: argparse's parents= would share
        # action objects, so one command's defaults would leak into another's.
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, command in commands.items():
            p = sub.add_parser(name, help=command.help)
            if command.demos is not None:
                add_commands(p, "name", command.demos)
                continue
            p.set_defaults(func=command.func)
            groups: dict[str, argparse._MutuallyExclusiveGroup] = {}
            for opt in command.opts:
                if opt.group is not None and opt.group not in groups:
                    groups[opt.group] = p.add_mutually_exclusive_group()
                target = groups.get(opt.group, p)
                if opt.kind == _SWITCH:
                    target.add_argument(opt.flag, action="store_true", help=opt.help)
                else:
                    target.add_argument(opt.flag, type=opt.kind, default=opt.default,
                                        help=opt.help, required=opt.required,
                                        action=Drops if opt.drops else "store")

    parser = Parser(
        prog="epigauge",
        description="Certified perturbation gauges, displacement certificates, "
                    "and brute-force oracle checks.",
    )
    add_commands(parser, "command", _COMMANDS)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _walk(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
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
