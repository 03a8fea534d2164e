"""Fuzz of the command line over argv and problem text.

Whatever the input, ``main`` returns a documented exit code (0-5) instead
of raising, and a non-zero exit leaves exactly one line on stderr.  Where
the direct walk of argv takes a command line, argparse builds the same
namespace from it.  The
problem text is either damaged (``problem_texts``) or well formed
(``well_formed_problems``), so that the scans behind ``gauge`` and
``certify`` are reached as well as the parser.  Numeric values are drawn
from small pools so that every scan either evaluates fewer than about 10^5
lattice points or hits the lattice cap before it starts.
"""

from __future__ import annotations

import contextlib
import functools
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epigauge.cli import main
from epigauge.problem import parse_problem_text
from epigauge.errors import EpigaugeError
from test_cli_walk import walk_matches_argparse

# Bad tokens every numeric option and problem value may receive.
JUNK = ("0", "-1", "nan", "inf", "-inf", "abc", "", "1e-300", "1e300", "2.5.1")


# Strategies are cached: building them inside every draw costs more than
# drawing from them.
_sampled = functools.cache(st.sampled_from)


@functools.cache
def _num(*good: str) -> st.SearchStrategy[str]:
    """A good value nine times in ten, else a bad token."""
    return st.integers(0, 9).flatmap(lambda i: _sampled(JUNK if i == 0 else good))


@functools.cache
def _rarely(n: int) -> st.SearchStrategy[bool]:
    """True about once in ``n`` draws."""
    return st.integers(0, n - 1).map(lambda i: i == 0)


DIMS = ("1", "2", "3")
RADII = ("0.5", "1.0")
STEPS = ("0.125", "0.25", "0.5")
COEFFS = ("1.0", "-2.0", "0.5", "0.02", "1e308")
NAMES = ("F", "G", "H")
FAMILIES = {
    "quadratic": {"coeff": COEFFS},
    "constant": {"value": ("-3.0", "0.0", "0.05", "1e308")},
    "affine": {"slope": ("1.0", "0.5 -0.5", "1 2 3"), "intercept": COEFFS},
    "bump": {"center": ("0.0", "0 0", "0.1 0.2 0.3"), "rho": ("0.5", "0.1"),
             "amplitude": ("1.0", "0.2")},
    "clamp_shift": {"base": NAMES, "shift": ("0.02", "0.1")},
    "scale": {"base": NAMES, "factor": ("2.0", "-1.0")},
    "sum": {"terms": ("F G", "F,H", "G")},
}


@st.composite
def _section(draw, header: str, keys: dict[str, tuple[str, ...]]) -> list[str]:
    lines = [header]
    for key, good in keys.items():
        if not draw(_rarely(30)):
            lines.append(f"{key} = {draw(_num(*good))}")
    return lines


@st.composite
def _function(draw, name: str) -> list[str]:
    family = draw(st.sampled_from(sorted(FAMILIES)))
    keys = {"family": (family,), **FAMILIES[family]}
    if draw(_rarely(4)):
        keys["domain_radius"] = RADII
    return draw(_section(f"[function {name}]", keys))


SECTIONS = {
    "cylinder": {"R": RADII, "M": RADII},
    "pair": {"f": NAMES, "g": NAMES},
    "envelope": {"lower": NAMES, "upper": NAMES, "region_radius": RADII,
                 "grid_exact": ("true", "false")},
    "cover": {"cert": ("0 | 1.0 | F | G", "0.5 0.5 | 0.75 | G | H", "0 0 0 | 2 | F | F")},
    "tolerance": {"family": ("constant", "radial_affine"), "value": ("0.02", "0.1"),
                  "base": ("0.01",), "slope": ("0.02",), "grid_exact": ("true", "false")},
    "growth": {"mu": ("2.0", "0.5"), "radius": RADII, "inf_value": ("0.0", "-3.0"),
               "argmin_kind": ("points", "ball"), "argmin_points": ("0.0", "0 0; 0.1 0.1"),
               "argmin_center": ("0.0", "0 0 0"), "argmin_radius": ("0.0", "0.1")},
    "grid": {"step": STEPS, "level_step": STEPS},
}


@st.composite
def problem_texts(draw) -> str:
    lines = [f"dimension = {draw(_num(*DIMS))}"]
    for name in NAMES:
        lines += draw(_function(name))
    for kind, keys in SECTIONS.items():
        if not draw(_rarely(5)):
            lines += draw(_section(f"[{kind}]", keys))
    # Line-level damage: drop, repeat or replace a line.
    for _ in range(draw(st.sampled_from((0, 0, 0, 1, 2)))):
        i = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(("drop", "repeat", "replace")))
        if action == "drop":
            del lines[i]
        elif action == "repeat":
            lines.insert(i, lines[i])
        else:
            lines[i] = draw(st.text(max_size=12))
        if not lines:
            break
    return "\n".join(lines) + "\n"


# Section keys that only one value of the section's discriminator takes.
BRANCHES = {
    "tolerance": ("family", {"constant": ("value",), "radial_affine": ("base", "slope")}),
    "growth": ("argmin_kind", {"points": ("argmin_points",),
                               "ball": ("argmin_center", "argmin_radius")}),
}


def _sized(pool: tuple[str, ...], dim: int) -> tuple[str, ...]:
    """The entries of ``pool`` whose every point has ``dim`` coordinates,
    or the origin if there is none."""
    def fits(text: str) -> bool:
        return all(len(p.replace(",", " ").split()) == dim for p in text.split(";"))
    return tuple(v for v in pool if fits(v)) or (" ".join(["0"] * dim),)


@st.composite
def well_formed_problems(draw) -> str:
    """Problem text with every required key, points of the problem's
    dimension and functions that refer only to earlier ones; values come
    from the pools above.  What still fails to parse is a section that
    needs a missing one, crossed envelopes, or a function that overflows."""
    dim = int(draw(st.sampled_from(DIMS)))

    def value(pool: tuple[str, ...], point: bool) -> str:
        return draw(_sampled(_sized(pool, dim) if point else pool))

    lines = [f"dimension = {dim}"]
    for k, name in enumerate(NAMES):
        earlier = NAMES[:k]
        family = draw(st.sampled_from(sorted(
            f for f in FAMILIES if earlier or f not in ("clamp_shift", "scale", "sum"))))
        lines += [f"[function {name}]", f"family = {family}"]
        for key, pool in FAMILIES[family].items():
            if key == "base":
                pool = earlier
            elif key == "terms":  # one or two earlier names, repeats allowed
                pool = earlier + tuple(f"{a}, {b}" for a in earlier for b in earlier)
            lines.append(f"{key} = {value(pool, key in ('center', 'slope'))}")
    for kind, keys in SECTIONS.items():
        # Crossed envelopes fail to parse, so those sections come rarely.
        keep = draw(_rarely(3)) if kind in ("envelope", "cover") else not draw(_rarely(5))
        if not keep:
            continue
        lines.append(f"[{kind}]")
        if kind == "cover":  # one certificate over the whole domain
            keys = {"cert": tuple(f"{c} | 2.0 | F | F"
                                  for c in _sized(FAMILIES["bump"]["center"], dim))}
        if kind in BRANCHES:
            key, branches = BRANCHES[kind]
            choice = draw(st.sampled_from(sorted(branches)))
            other = {k for b, ks in branches.items() if b != choice for k in ks}
            keys = {k: (choice,) if k == key else v for k, v in keys.items() if k not in other}
        lines += [f"{key} = {value(pool, key in ('argmin_points', 'argmin_center'))}"
                  for key, pool in keys.items()]
    return "\n".join(lines) + "\n"


def test_well_formed_problems_mostly_parse():
    parsed: list[bool] = []

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None,
              suppress_health_check=list(HealthCheck))
    @given(well_formed_problems())
    def draw(text):
        try:
            parse_problem_text(text, "problem.prob")
        except EpigaugeError:
            parsed.append(False)
        else:
            parsed.append(True)

    draw()
    assert len(parsed) >= 1000 and 3 * sum(parsed) >= len(parsed), (sum(parsed), len(parsed))


# A writable path three times in six, else one that cannot be written.
OUT = ("{tmp}/out.txt",) * 3 + ("{tmp}/missing/out.txt", "{tmp}", "")


@st.composite
def _options(draw, table: dict[str, st.SearchStrategy[str]]) -> list[str]:
    """Each flag of ``table`` about once in three, with a drawn value."""
    argv: list[str] = []
    for flag in sorted(table):
        if draw(_rarely(3)):
            argv += [flag, draw(table[flag])]
    return argv


_RUN_OPTS = {"--threads": _num("1", "2"), "--out": st.sampled_from(OUT)}
_SPEC_OPTS = {"--grid-step": _num(*STEPS), **_RUN_OPTS}
_SHARPNESS_OPTS = {
    "--mu": _num("1.0", "2.0", "8.0"),
    "--delta-min": _num("1e-4", "1e-3", "1e-2"),
    "--delta-max": _num("1e-4", "1e-3", "1e-2"),
    "--num-deltas": _num("1", "2", "4", "8", "-3"),
    **_RUN_OPTS,
}
_DEMO_STEP = {"--grid-step": _num("3e-4", "1e-3", "1e-2")}
# Each demo declares only the flags it reads.
_DEMO_OPTS = {
    "sharpness": {**_SHARPNESS_OPTS, **_DEMO_STEP},
    "strictness": {**_RUN_OPTS, **_DEMO_STEP, "--R": _num(*RADII, "2.0"),
                   "--M": _num(*RADII, "2.0"), "--A": _num("5.0", "0.5")},
    "impossibility": {**_RUN_OPTS, **_DEMO_STEP, "--R": _num(*RADII, "2.0"),
                      "--A": _num("5.0", "0.5"), "--queries": _num("-0.5,0.5", "0.25", "0,1,-1"),
                      "--y": _num("0.0", "0.75")},
}
_ANY_DEMO_OPTS = {flag: v for opts in _DEMO_OPTS.values() for flag, v in opts.items()}
_SWEEP_OPTS = {
    **_SHARPNESS_OPTS,
    "--deltas": _num("1e-3,1e-4", "1e-2", "1e-3,"),
}


@st.composite
def argvs(draw) -> list[str]:
    command = draw(st.sampled_from(("gauge", "certify", "demo", "sweep")))
    if command in ("gauge", "certify"):
        return [command, "--spec", "{spec}"] + draw(_options(_SPEC_OPTS))
    if command == "demo":
        name = draw(st.sampled_from(sorted(_DEMO_OPTS)))
        argv = [command, name] + draw(_options(_DEMO_OPTS[name]))
        if draw(_rarely(10)):  # another demo's flag, which this demo rejects
            flag = draw(st.sampled_from(sorted(set(_ANY_DEMO_OPTS) - set(_DEMO_OPTS[name]))))
            argv += [flag, draw(_ANY_DEMO_OPTS[flag])]
        return argv + draw(st.sampled_from(([], ["--csv"])))
    # The sweep's default step (2e-5) would scan 10^5 cells per drop.
    argv = [command, "--grid-step", draw(_num("3e-4", "1e-3", "1e-2"))]
    if draw(st.booleans()):
        argv += ["--spec", "{spec}"]
    return argv + draw(_options(_SWEEP_OPTS))


SHARPNESS_PROBLEM = (
    "dimension = 1\n[function F]\nfamily = quadratic\ncoeff = 1.0\n"
    "[function G]\nfamily = clamp_shift\nbase = F\nshift = 0.02\n"
    "[cylinder]\nR = 1.0\nM = 1.0\n[pair]\nf = F\ng = G\n"
    "[tolerance]\nfamily = constant\nvalue = 0.02\ngrid_exact = true\n"
    "[growth]\nmu = 2.0\nradius = 1.0\ninf_value = 0.0\nargmin_kind = points\n"
    "argmin_points = 0.0\n[grid]\nstep = 0.01\nlevel_step = 0.1\n"
)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.one_of(problem_texts(), well_formed_problems()))
@example(["sweep", "--mu", "2", "--num-deltas", "-3"], SHARPNESS_PROBLEM)
@example(["certify", "--spec", "{spec}", "--out", "{tmp}/missing/dir/x"], SHARPNESS_PROBLEM)
@example(["demo", "sharpness", "--csv", "--out", "{tmp}/missing/x"], SHARPNESS_PROBLEM)
@example(["sweep", "--mu", "2", "--out", "{tmp}/missing/x"], SHARPNESS_PROBLEM)
@example(["demo", "strictness", "--M", "1e300"], SHARPNESS_PROBLEM)
@example(["gauge", "--spec", "{spec}"], b"dimension = 1\n\xd0\n")
@example(["demo", "sharpness", "--out", "{tmp}"], SHARPNESS_PROBLEM)
@example(["demo", "sharpness", "--delta-max", "1e-4"], SHARPNESS_PROBLEM)
@example(["certify", "--spec", "{spec}"],
         SHARPNESS_PROBLEM.replace("radius = 1.0", "radius = 0.5"))
def test_cli_exit_code_and_single_stderr_line(argv, problem):
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "problem.prob")
        with open(spec, "wb") as fh:
            fh.write(problem.encode("utf-8") if isinstance(problem, str) else problem)
        argv = [a.replace("{spec}", spec).replace("{tmp}", tmp) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
    assert code in range(6), (argv, code)
    if code != 0:
        assert len(err.getvalue().splitlines()) == 1, (argv, code, err.getvalue())


@st.composite
def _respelled(draw, argv: list[str]) -> list[str]:
    """``argv`` half the time, else with one flag respelled in a way
    argparse takes or rejects: joined to its value with "=", abbreviated,
    repeated, preceded by "-h", or left without its value."""
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    if not flags or draw(st.booleans()):
        return argv
    i = draw(st.sampled_from(flags))
    how = draw(st.sampled_from(("join", "abbreviate", "repeat", "help", "drop")))
    if how == "join":
        return argv[:i] + ["=".join(argv[i:i + 2])] + argv[i + 2:]
    if how == "abbreviate":
        return argv[:i] + [argv[i][:draw(st.integers(3, len(argv[i])))]] + argv[i + 1:]
    if how == "repeat":
        return argv + argv[i:i + 2]
    if how == "help":
        return argv[:i] + ["-h"] + argv[i:]
    return argv[:i + 1] + argv[i + 2:]


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs(), st.data())
def test_walk_matches_argparse(argv, data):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{spec}", os.path.join(tmp, "problem.prob")).replace("{tmp}", tmp)
                for a in argv]
        walk_matches_argparse(data.draw(_respelled(argv)))
