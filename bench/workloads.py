"""Seeded workload generators, input-derived lattice sizes and output checks.

Each generator turns a seed into the exact problem text and argv one CLI
command receives.  The seed changes values only: lattice, level and
certificate counts are fixed per workload, so the lattice cell count
(``Workload.cells``) is the same for every seed and is computed here from
the inputs, never read back from the program.

The checks are invariants of the paper's double-entry bookkeeping (oracle
column <= certified column, record flags, closed-form suprema of the
generated constructions), not golden text, so a later change that turns an
estimate into a certified bound still passes.

This module imports nothing from the program under test.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache

TAU = 1e-12
"""Absolute slack of the library's certified inequalities, restated here
so that the checks never import the program they check."""

VALIDATION_POINTS = 16
"""Per-axis resolution of the library's construction-time certificate
validation lattice (step = radius / 16)."""


# ---------------------------------------------------------------------------
# Lattice sizes from the inputs
# ---------------------------------------------------------------------------


def axis_values(radius: float, step: float) -> tuple[float, ...]:
    """The 1-d lattice ``k*step`` on ``[-radius, radius]``, with the same
    floating-point membership rule as the library's lattices."""
    kmax = int(math.floor((radius / step) * (1.0 + TAU) + TAU))
    bound = radius * (1.0 + TAU) + TAU
    return tuple(k * step for k in range(-kmax, kmax + 1) if abs(k * step) <= bound)


@lru_cache(maxsize=None)
def lattice_size(dim: int, radius: float, step: float) -> tuple[int, int]:
    """``(cube points, in-ball points)`` of the lattice on the ball of
    ``radius`` in ``dim`` dimensions."""
    axis = axis_values(radius, step)
    cube = len(axis) ** dim
    if dim == 1:
        return cube, cube
    bound = radius * (1.0 + TAU) + TAU
    inside = sum(1 for c in itertools.product(axis, repeat=dim)
                 if math.sqrt(sum(x * x for x in c)) <= bound)
    return cube, inside


def level_count(M: float, step_t: float) -> int:
    """Number of level values of the band ``[-M, M]`` (both ends included)."""
    return len(set(axis_values(M, step_t)) | {-M, M})


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One generated CLI command.

    ``argv`` names the problem file as ``{spec}``; the runner substitutes
    the path it writes ``problem`` to.  ``lattice`` is ``(dim, radius,
    step)`` of the command's main scan lattice, which the traced run probes.
    ``facts`` holds the closed-form quantities the output check needs.
    """

    name: str
    argv: tuple[str, ...]
    problem: str | None
    cells: int
    lattice: tuple[int, float, float]
    facts: dict = field(default_factory=dict)


def _r(rng: random.Random, lo: float, hi: float) -> float:
    # Twelve significant digits keep the problem text short and exact.
    return float(f"{rng.uniform(lo, hi):.12g}")


# Scan sizes.  Each command takes about 1-2.5 s on a 2-core x86 box, so a
# 30 s run holds enough fresh-process samples for a steady median.
CERTIFY_STEP = 1.0 / 64.0        # 2-d: 12,853 in-ball base points
CERTIFY_LEVEL_STEP = 0.1         # 21 levels on [-1, 1]
SHARPNESS_HALF_POINTS = 8000     # 1-d: 16,001 points per drop
SHARPNESS_DROPS = 6
SHARPNESS_DROP_RATIO = 100.0     # delta_max / delta_min
SHARPNESS_LEVELS = 101           # the demo's fixed LevelGrid(1.0, 0.02)
COVER_STEP = 1.0 / 10.0          # 3-d: 4,169 in-ball base points
COVER_OFFSET = 0.55              # certificate centres at +-0.55 on each axis
COVER_JITTER = 0.03
# Without jitter every point of the unit ball is within 0.817 of a centre
# (worst on the diagonals); the jitter moves a centre by at most 0.052.
COVER_RADIUS = 0.9


def certify_2d(seed: int) -> Workload:
    """``certify`` on F = c*|x|^2, G = clamp_shift(sum(F, bump), s).

    Where F + bump >= s, G - F = bump - s lies in [-s, A - s]; elsewhere
    G = 0 and 0 <= F < s.  So sup |F - G| <= max(s, A - s), and a radial
    tolerance field with that base certifies the gauge by construction.
    """
    rng = random.Random(seed)
    c = _r(rng, 0.8, 1.25)
    bx, by = _r(rng, -0.4, 0.4), _r(rng, -0.4, 0.4)
    rho = _r(rng, 0.2, 0.35)
    amp = _r(rng, 0.03, 0.06)
    shift = _r(rng, 0.015, 0.03)
    slope = _r(rng, 0.005, 0.02)
    sup_diff = max(shift, amp - shift)
    text = f"""\
# certify-2d workload, seed {seed}
dimension = 2

[function F]
family = quadratic
coeff = {c!r}

[function BUMP]
family = bump
center = {bx!r} {by!r}
rho = {rho!r}
amplitude = {amp!r}

[function S]
family = sum
terms = F, BUMP

[function G]
family = clamp_shift
base = S
shift = {shift!r}

[cylinder]
R = 1.0
M = 1.0

[pair]
f = F
g = G

[tolerance]
family = radial_affine
base = {sup_diff!r}
slope = {slope!r}
grid_exact = true

[growth]
mu = {2.0 * c!r}
radius = 1.0
inf_value = 0.0
argmin_kind = points
argmin_points = 0.0 0.0

[grid]
step = {CERTIFY_STEP!r}
level_step = {CERTIFY_LEVEL_STEP!r}
"""
    _, n = lattice_size(2, 1.0, CERTIFY_STEP)
    levels = level_count(1.0, CERTIFY_LEVEL_STEP)
    # tolerance scan and grid_gauge visit base x level cells; the sup and
    # argmin scans visit base points.
    cells = 2 * n * levels + 2 * n
    return Workload(
        name="certify-2d",
        argv=("certify", "--spec", "{spec}", "--threads", "1"),
        problem=text,
        cells=cells,
        lattice=(2, 1.0, CERTIFY_STEP),
        facts={"sup_abs_diff": sup_diff, "tolerance_sup": sup_diff + slope,
               "probe": {"coeff": c, "center": (bx, by), "rho": rho, "amp": amp,
                         "shift": shift}},
    )


def sharpness_1d(seed: int, threads: int) -> Workload:
    """``demo sharpness`` with a seeded mu and drop range.

    The step is derived from the largest plateau so that the sweep radius
    ``1.5*sqrt(2*delta_max/mu)`` spans exactly ``SHARPNESS_HALF_POINTS``
    steps (plus half a step, so float rounding never changes the count).
    With a fixed drop ratio, tie counts are fixed as well, up to one point.
    """
    rng = random.Random(seed)
    mu = _r(rng, 1.5, 3.0)
    dmin = _r(rng, 5e-5, 2e-4)
    dmax = float(f"{dmin * SHARPNESS_DROP_RATIO:.12g}")
    radius = 1.5 * math.sqrt(2.0 * dmax / mu)
    step = float(f"{radius / (SHARPNESS_HALF_POINTS + 0.5):.12g}")
    n = 2 * SHARPNESS_HALF_POINTS + 1
    return Workload(
        name="sharpness-1d",
        argv=("demo", "sharpness", "--mu", repr(mu), "--delta-min", repr(dmin),
              "--delta-max", repr(dmax), "--num-deltas", str(SHARPNESS_DROPS),
              "--grid-step", repr(step), "--threads", str(threads)),
        problem=None,
        cells=SHARPNESS_DROPS * n + n * SHARPNESS_LEVELS,
        lattice=(1, radius, step),
        facts={"properties": 5,
               "probe": {"coeff": mu / 2.0, "center": (0.0,), "rho": radius / 3.0,
                         "amp": dmax, "shift": dmax}},
    )


def cover_centres(rng: random.Random) -> list[tuple[float, ...]]:
    """Six jittered centres, one on each half-axis."""
    centres = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            nominal = [0.0, 0.0, 0.0]
            nominal[axis] = sign * COVER_OFFSET
            centres.append(tuple(_r(rng, c - COVER_JITTER, c + COVER_JITTER) for c in nominal))
    return centres


def cover_3d(seed: int) -> Workload:
    """``gauge`` on a 3-d ``[cover]`` of six local certificates and no
    ``[pair]``.

    Every certificate brackets one affine target T(x) = <s, x> + b, built
    from a different family by certificate index (affine, sum with
    constants, scale of half-affines, constants on the ball).  The
    aggregated width at any covered x is min(active uppers) - max(active
    lowers), which lies between ``min(w_up) + min(w_lo)`` and the largest
    single-certificate width: closed forms the check uses.
    """
    rng = random.Random(seed)
    s = tuple(_r(rng, -0.5, 0.5) for _ in range(3))
    b = _r(rng, -0.2, 0.2)
    centres = cover_centres(rng)
    s_norm = math.sqrt(sum(v * v for v in s))
    fmt = " ".join
    lines = [f"# cover-3d workload, seed {seed}", "dimension = 3", ""]
    certs = []
    widths = []
    w_lo_all, w_up_all = [], []

    def func(name: str, family: str, **kv) -> None:
        lines.append(f"[function {name}]")
        lines.append(f"family = {family}")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")

    for i, ctr in enumerate(centres):
        w_lo, w_up = _r(rng, 0.01, 0.05), _r(rng, 0.01, 0.05)
        w_lo_all.append(w_lo)
        w_up_all.append(w_up)
        lo, up = f"L{i}", f"U{i}"
        kind = i % 4
        if kind == 0:    # affine
            func(lo, "affine", slope=fmt(map(repr, s)), intercept=repr(b - w_lo))
            func(up, "affine", slope=fmt(map(repr, s)), intercept=repr(b + w_up))
            widths.append(w_lo + w_up)
        elif kind == 1:  # sum of the target and a constant
            func(f"T{i}", "affine", slope=fmt(map(repr, s)), intercept=repr(b))
            func(f"CL{i}", "constant", value=repr(-w_lo))
            func(f"CU{i}", "constant", value=repr(w_up))
            func(lo, "sum", terms=f"T{i}, CL{i}")
            func(up, "sum", terms=f"T{i}, CU{i}")
            widths.append(w_lo + w_up)
        elif kind == 2:  # scale: 2 * (half-affine), exact in binary floating point
            half = fmt(repr(v / 2.0) for v in s)
            func(f"HL{i}", "affine", slope=half, intercept=repr((b - w_lo) / 2.0))
            func(f"HU{i}", "affine", slope=half, intercept=repr((b + w_up) / 2.0))
            func(lo, "scale", base=f"HL{i}", factor="2.0")
            func(up, "scale", base=f"HU{i}", factor="2.0")
            widths.append(w_lo + w_up)
        else:            # constants: T ranges over T(c) +- |s| r on the ball
            tc = b + sum(si * ci for si, ci in zip(s, ctr))
            spread = s_norm * COVER_RADIUS
            func(lo, "constant", value=repr(tc - spread - w_lo))
            func(up, "constant", value=repr(tc + spread + w_up))
            widths.append(2.0 * spread + w_lo + w_up)
        certs.append(f"cert = {fmt(map(repr, ctr))} | {COVER_RADIUS!r} | {lo} | {up}")

    lines += ["[cylinder]", "R = 1.0", "M = 1.0", "", "[cover]", *certs, "",
              "[grid]", f"step = {COVER_STEP!r}", ""]
    val_step = COVER_RADIUS / VALIDATION_POINTS
    n_val = lattice_size(3, COVER_RADIUS, val_step)[1]
    n_pack = lattice_size(3, 1.0, 1.0 / VALIDATION_POINTS)[1]
    n_scan = lattice_size(3, 1.0, COVER_STEP)[1]
    return Workload(
        name="cover-3d",
        argv=("gauge", "--spec", "{spec}"),
        problem="\n".join(lines),
        # certificate validation, the aggregated envelope's validation, the scan
        cells=len(centres) * n_val + n_pack + n_scan,
        lattice=(3, 1.0, COVER_STEP),
        facts={"width_max": max(widths), "width_min": min(w_up_all) + min(w_lo_all),
               "certs": len(centres),
               "probe": {"coeff": 1.0, "center": centres[0], "rho": 0.5, "amp": 0.05,
                         "shift": 0.02}},
    )


def make(name: str, seed: int, threads: int = 2) -> Workload:
    """The workload ``name`` for ``seed``; ``threads`` is the demo's
    ``--threads`` (the runner caps it at the machine's CPU count)."""
    if name == "certify-2d":
        return certify_2d(seed)
    if name == "sharpness-1d":
        return sharpness_1d(seed, threads)
    if name == "cover-3d":
        return cover_3d(seed)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("certify-2d", "sharpness-1d", "cover-3d")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def _record(text: str) -> dict[str, str]:
    """``section.key -> value`` of a certify record."""
    out: dict[str, str] = {}
    section = ""
    for line in text.splitlines():
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
        elif " = " in line:
            key, value = line.split(" = ", 1)
            out[f"{section}.{key}" if section else key] = value
    return out


def _check_certify(w: Workload, out: str) -> list[str]:
    rec = _record(out)
    errors = [f"{key} is not true" for key in
              ("value_control.value_control_consistent",
               "displacement.displacement_consistent", "displacement.valid")
              if rec.get(key) != "true"]
    try:
        num = {k: float(rec[k]) for k in (
            "gauge.delta", "oracle.grid_gauge", "oracle.grid_sup_abs_diff",
            "value_control.abs_diff_x_star", "value_control.abs_diff_x_tilde",
            "displacement.oracle_dist", "displacement.bound_with_slack")}
    except (KeyError, ValueError) as e:
        return errors + [f"record field missing or not a number: {e}"]
    delta = num["gauge.delta"]
    if not num["oracle.grid_gauge"] <= num["oracle.grid_sup_abs_diff"]:
        errors.append("grid_gauge > grid_sup_abs_diff")
    for key in ("oracle.grid_gauge", "value_control.abs_diff_x_star",
                "value_control.abs_diff_x_tilde"):
        if not num[key] <= delta + TAU:
            errors.append(f"{key} = {num[key]!r} exceeds certified delta {delta!r} + TAU")
    if not num["displacement.oracle_dist"] <= num["displacement.bound_with_slack"] + TAU:
        errors.append("oracle_dist exceeds bound_with_slack + TAU")
    if not num["oracle.grid_sup_abs_diff"] <= w.facts["sup_abs_diff"] + TAU:
        errors.append("grid_sup_abs_diff exceeds the construction's sup |F - G|")
    if not delta <= w.facts["tolerance_sup"] + TAU:
        errors.append("delta exceeds the tolerance field's closed-form sup")
    return errors


def _check_sharpness(w: Workload, out: str) -> list[str]:
    m = re.search(r"^(\d+)/(\d+) properties passed$", out, re.M)
    if m is None:
        return ["no 'n/n properties passed' line"]
    passed, total = int(m.group(1)), int(m.group(2))
    if passed != total or total != w.facts["properties"]:
        return [f"{passed}/{total} properties passed, expected "
                f"{w.facts['properties']}/{w.facts['properties']}"]
    return []


def _check_cover(w: Workload, out: str) -> list[str]:
    m = re.search(r"^gauge\[cover\]\s+(\S+)", out, re.M)
    if m is None:
        return ["no gauge[cover] row"]
    try:
        est = float(m.group(1))
    except ValueError:
        return [f"gauge[cover] value {m.group(1)!r} is not a number"]
    lo, hi = w.facts["width_min"], w.facts["width_max"]
    if not lo - TAU <= est <= hi + TAU:
        return [f"cover width {est!r} outside the closed-form range [{lo!r}, {hi!r}]"]
    return []


_CHECKS = {"certify-2d": _check_certify, "sharpness-1d": _check_sharpness,
           "cover-3d": _check_cover}


def check(w: Workload, exit_code: int, out: str) -> list[str]:
    """Every way the command's exit code or output breaks an invariant;
    an empty list means the operation succeeded."""
    errors = [] if exit_code == 0 else [f"exit code {exit_code}"]
    return errors + _CHECKS[w.name](w, out)
