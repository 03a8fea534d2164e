"""The table-driven problem-file reader: no constructor precondition escapes
as anything but a line-anchored parse error, [growth] keys follow the
selected argmin_kind, a huge dimension hits the lattice cap at once, the
format is a module of its own that the command line only imports, a
problem's digest is ``hashlib``'s SHA-256 of its text, and the README's key
lists and module layout match the code."""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from epigauge import cli, problem
from epigauge.errors import EpigaugeError, PreconditionError, SpecParseError
from test_cli_fuzz import problem_texts

README = Path(__file__).resolve().parent.parent / "README.md"

GROWTH = (
    "dimension = 1\n"
    "[growth]\n"          # line 2
    "mu = 2.0\n"
    "radius = 1.0\n"
    "inf_value = 0.0\n"
)
NEGATIVE_BALL = GROWTH + "argmin_kind = ball\nargmin_center = 0.0\nargmin_radius = -1\n"


def test_the_format_module_stands_apart_from_the_command_line():
    code = "import sys, epigauge.problem\nprint('epigauge.cli' in sys.modules)\n"
    src = str(Path(problem.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"
    assert cli.load_problem is problem.load_problem
    assert not any(hasattr(cli, name) for name in ("_SECTIONS", "_tokenize", "_read"))


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem_texts())
@example(NEGATIVE_BALL)
def test_parse_raises_only_epigauge_errors_and_no_precondition_error(text):
    try:
        problem.parse_problem_text(text, "p.prob")
    except PreconditionError as e:
        pytest.fail(f"unanchored precondition failure: {e!r}")
    except EpigaugeError:
        pass


@pytest.mark.parametrize("tail, line, fragment", [
    ("argmin_kind = ball\nargmin_center = 0.0\nargmin_radius = -1\n", 2, "ball radius"),
    ("argmin_kind = points\nargmin_points = 0.0\nargmin_radius = 0.1\n", 8,
     "not valid for argmin_kind 'points'"),
    ("argmin_kind = ball\nargmin_center = 0.0\nargmin_radius = 0.1\nargmin_points = 0.0\n", 9,
     "not valid for argmin_kind 'ball'"),
])
def test_growth_errors_are_line_anchored(tail, line, fragment):
    with pytest.raises(SpecParseError) as exc:
        problem.parse_problem_text(GROWTH + tail, "p.prob")
    assert exc.value.line == line and fragment in str(exc.value)


COVER = (
    "dimension = 1\n"
    "[function L]\nfamily = constant\nvalue = 0.0\n"
    "[function U]\nfamily = constant\nvalue = 1.0\n"
    "[cover]\n"          # line 8
)


@pytest.mark.parametrize("text, line, message", [
    (COVER, 8, "missing key 'cert': required for section [cover]"),
    # every key is checked before any cert line is parsed
    (COVER + "cert = 0.0 | 0.5 | L\nradius = 1.0\n", 10,
     "unknown key 'radius': not valid for section [cover]"),
    # only a list kind may repeat: a repeat of any other key is a duplicate
    (COVER + "cert = 0.0 | 0.5 | L | U\nradius = 1.0\nradius = 2.0\n", 11,
     "duplicate key 'radius'"),
], ids=["empty", "unknown-before-bad-cert", "repeated-unknown"])
def test_cover_errors_are_line_anchored(text, line, message):
    with pytest.raises(SpecParseError) as exc:
        problem.parse_problem_text(text, "p.prob")
    assert (exc.value.line, exc.value.message) == (line, message)


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue().splitlines()


def test_constructor_precondition_exits_2_with_file_and_line(tmp_path):
    spec = tmp_path / "ball.prob"
    spec.write_text(NEGATIVE_BALL)
    code, err = _run(["gauge", "--spec", str(spec)])
    assert code == 2 and len(err) == 1 and f"{spec}:2:" in err[0]


def test_huge_dimension_hits_the_lattice_cap_at_once(tmp_path):
    spec = tmp_path / "huge.prob"
    spec.write_text(
        "dimension = 100000000\n"
        "[function F]\nfamily = quadratic\ncoeff = 1.0\n"
        "[cylinder]\nR = 1.0\nM = 1.0\n[pair]\nf = F\ng = F\n"
        "[grid]\nstep = 0.5\nlevel_step = 0.5\n")
    t = time.perf_counter()
    code, err = _run(["gauge", "--spec", str(spec)])
    assert time.perf_counter() - t < 2.0
    assert code == 4 and len(err) == 1 and "5^100000000" in err[0]


def test_one_point_lattice_in_a_huge_dimension_hits_the_cap_at_once(tmp_path):
    # step > R: one point per axis, so the cube count is 1 whatever the dimension.
    spec = tmp_path / "huge.prob"
    spec.write_text(
        "dimension = 1000000\n"
        "[function F]\nfamily = quadratic\ncoeff = 1.0\n"
        "[cylinder]\nR = 1.0\nM = 1.0\n[pair]\nf = F\ng = F\n"
        "[grid]\nstep = 2.0\nlevel_step = 0.5\n")
    t = time.perf_counter()
    code, err = _run(["gauge", "--spec", str(spec)])
    assert time.perf_counter() - t < 2.0
    assert code == 4 and len(err) == 1 and "dimension 1000000" in err[0]
    assert "exceeds cap" not in err[0]


# ---------------------------------------------------------------------------
# README key lists, rendered from the tables
# ---------------------------------------------------------------------------

KIND_WORDS = {
    problem._float: "number", problem._positive: "number > 0",
    problem._nonnegative: "number >= 0", problem._version: "integer",
    problem._dimension: "integer >= 1", problem._bool: "true/false", problem._point: "point",
    problem._points: "points separated by `;`", problem._func: "function name",
    problem._funcs: "function names", problem._cert: "`center | radius | lower | upper`",
}


def _keys(schema: dict) -> str:
    out = []
    for key, kind in schema.items():
        if isinstance(kind, list):  # a repeatable key: [kind of each entry]
            note = f"{KIND_WORDS[kind[0]]}, repeated"
        elif not isinstance(kind, tuple):
            note = KIND_WORDS[kind]
        elif kind[1] is None:
            note = f"{KIND_WORDS[kind[0]]}, optional"
        else:
            note = f"{KIND_WORDS[kind[0]]}, default {cli._fmt(kind[1])}"
        out.append(f"`{key}` ({note})")
    return ", ".join(out)


def _section(title: str, schema: dict, discriminator) -> list[str]:
    if discriminator is None:
        return [f"- {title}: {_keys(schema)}"]
    key, table = discriminator
    keys = ", ".join(filter(None, [f"`{key}`", _keys(schema)]))
    return [f"- {title}: {keys}; by `{key}`:"] + [
        f"  - `{name}`: {_keys(variant)}" for name, (variant, _build) in table.items()]


def schema_lines() -> list[str]:
    lines = _section("top level", problem._TOP, None)
    lines += _section("`[function NAME]`", problem._FUNCTION_KEYS, ("family", problem._FAMILIES))
    for kind, (schema, discriminator, _build) in problem._SECTIONS.items():
        lines += _section(f"`[{kind}]`", schema, discriminator)
    return lines


def test_readme_key_lists_match_the_tables():
    text = README.read_text(encoding="utf-8")
    begin, end = "<!-- problem keys: begin -->", "<!-- problem keys: end -->"
    block = text.split(begin, 1)[1].split(end, 1)[0].strip().splitlines()
    expected = schema_lines()
    assert block == expected, "README block should read:\n" + "\n".join(expected)


def test_readme_layout_names_every_module():
    text = README.read_text(encoding="utf-8")
    block = text.split("```\nsrc/epigauge/\n", 1)[1].split("```", 1)[0]
    named = {words[0] for words in map(str.split, block.splitlines())
             if words and words[0].endswith(".py")}
    modules = {p.name for p in Path(problem.__file__).parent.glob("*.py")} - {"__init__.py"}
    assert named == modules


def test_the_digest_is_hashlib_sha256_on_every_bundled_problem():
    paths = sorted((Path(problem.__file__).parent / "problems").glob("*.prob"))
    assert len(paths) >= 3
    for path in paths:
        text = path.read_text(encoding="utf-8")
        assert problem.load_problem(path).sha256 == hashlib.sha256(text.encode()).hexdigest()
    text = "dimension = 1\n# é, ∞, 𝔼 in a comment\n"
    assert problem.parse_problem_text(text, "t").sha256 == hashlib.sha256(text.encode()).hexdigest()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.text())
@example("")
@example("é∞𝔼\x00")
def test_the_digest_is_hashlib_sha256_on_any_text(text):
    data = text.encode("utf-8")
    assert problem.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()
