"""The table-driven problem-file reader: no constructor precondition escapes
as anything but a line-anchored parse error, [growth] keys follow the
selected argmin_kind, a huge dimension hits the lattice cap at once, and
the README's key lists match the tables."""

from __future__ import annotations

import contextlib
import io
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings

from epigauge import cli
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


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(problem_texts())
@example(NEGATIVE_BALL)
def test_parse_raises_only_epigauge_errors_and_no_precondition_error(text):
    try:
        cli.parse_problem_text(text, "p.prob")
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
        cli.parse_problem_text(GROWTH + tail, "p.prob")
    assert exc.value.line == line and fragment in str(exc.value)


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
    cli._float: "number", cli._positive: "number > 0", cli._nonnegative: "number >= 0",
    cli._version: "integer", cli._dimension: "integer >= 1", cli._bool: "true/false",
    cli._point: "point", cli._points: "points separated by `;`", cli._func: "function name",
    cli._funcs: "function names", cli._cert: "`center | radius | lower | upper`, repeated",
}


def _keys(schema: dict) -> str:
    out = []
    for key, kind in schema.items():
        if not isinstance(kind, tuple):
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
    lines = _section("top level", cli._TOP, None)
    lines += _section("`[function NAME]`", cli._FUNCTION_KEYS, ("family", cli._FAMILIES))
    for kind, (schema, discriminator, _build) in cli._SECTIONS.items():
        lines += _section(f"`[{kind}]`", schema, discriminator)
    return lines


def test_readme_key_lists_match_the_tables():
    text = README.read_text(encoding="utf-8")
    begin, end = "<!-- problem keys: begin -->", "<!-- problem keys: end -->"
    block = text.split(begin, 1)[1].split(end, 1)[0].strip().splitlines()
    expected = schema_lines()
    assert block == expected, "README block should read:\n" + "\n".join(expected)
