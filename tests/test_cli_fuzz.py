"""Fuzz of the command line over argv and problem text.

Whatever the input, ``main`` returns a documented exit code (0-5) instead
of raising, and a non-zero exit leaves exactly one line on stderr.  Numeric
values are drawn from small pools so that every scan either evaluates
fewer than about 10^5 lattice points or hits the lattice cap before it
starts.
"""

from __future__ import annotations

import contextlib
import io
import os
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epigauge.cli import main

# Bad tokens every numeric option and problem value may receive.
JUNK = ("0", "-1", "nan", "inf", "-inf", "abc", "", "1e-300", "1e300", "2.5.1")


def _num(*good: str) -> st.SearchStrategy[str]:
    """A good value nine times in ten, else a bad token."""
    return st.integers(0, 9).flatmap(lambda i: st.sampled_from(JUNK if i == 0 else good))


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


_SPEC_OPTS = {
    "--grid-step": _num(*STEPS),
    "--level-step": _num(*STEPS),
    "--threads": _num("1", "2"),
    "--out": st.sampled_from(OUT),
}
_SHARPNESS_OPTS = {
    "--mu": _num("1.0", "2.0", "8.0"),
    "--delta-min": _num("1e-4", "1e-3", "1e-2"),
    "--delta-max": _num("1e-4", "1e-3", "1e-2"),
    "--num-deltas": _num("1", "2", "4", "8", "-3"),
    "--threads": _num("1", "2"),
    "--out": st.sampled_from(OUT),
}
_DEMO_OPTS = {
    **_SHARPNESS_OPTS,
    "--grid-step": _num("3e-4", "1e-3", "1e-2"),
    "--R": _num(*RADII, "2.0"),
    "--M": _num(*RADII, "2.0"),
    "--A": _num("5.0", "0.5"),
    "--queries": _num("-0.5,0.5", "0.25", "0,1,-1"),
    "--y": _num("0.0", "0.75"),
    "--level-step": _num("0.02", "0.1", "0.5"),
}
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
        name = draw(st.sampled_from(("sharpness", "strictness", "impossibility")))
        return [command, name] + draw(_options(_DEMO_OPTS)) + draw(
            st.sampled_from(([], ["--csv"])))
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
@given(argvs(), problem_texts())
@example(["sweep", "--mu", "2", "--num-deltas", "-3"], SHARPNESS_PROBLEM)
@example(["certify", "--spec", "{spec}", "--out", "{tmp}/missing/dir/x"], SHARPNESS_PROBLEM)
@example(["demo", "sharpness", "--csv", "--out", "{tmp}/missing/x"], SHARPNESS_PROBLEM)
@example(["sweep", "--mu", "2", "--out", "{tmp}/missing/x"], SHARPNESS_PROBLEM)
@example(["demo", "strictness", "--M", "1e300", "--level-step", "1e-300"], SHARPNESS_PROBLEM)
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
