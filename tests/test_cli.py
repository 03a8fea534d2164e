"""Problem-file parsing (line-anchored errors), commands, exit codes."""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import epigauge
from epigauge import Point, SpecParseError
from epigauge.cli import main
from epigauge.problem import load_problem, parse_problem_text

PROBLEMS = Path(__file__).resolve().parent.parent / "src" / "epigauge" / "problems"

GOOD_SPEC = """\
version = 1
dimension = 1

[function F]
family = quadratic
coeff = 1.0

[function G]
family = clamp_shift
base = F
shift = 0.02

[function H]
family = sum
terms = F, G

[function K]
family = scale
base = H
factor = -0.5

[cylinder]
R = 1.0
M = 1.0

[pair]
f = F
g = G

[grid]
step = 0.01
level_step = 0.05
"""


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def test_parse_good_spec():
    spec = parse_problem_text(GOOD_SPEC, "good.prob")
    assert spec.dimension == 1
    assert set(spec.functions) == {"F", "G", "H", "K"}
    f, g = spec.pair
    assert f(Point.of(0.5)) == 0.25
    assert g(Point.of(0.5)) == 0.23
    assert spec.functions["H"](Point.of(0.5)) == 0.48
    assert spec.functions["K"](Point.of(0.5)) == -0.24
    assert spec.cylinder.R == 1.0
    assert spec.grid_step == 0.01


def test_the_pair_holds_the_problem_functions_themselves():
    spec = load_problem(PROBLEMS / "sharpness.prob")
    assert spec.pair[0] is spec.functions["F"] and spec.pair[1] is spec.functions["G"]
    assert not hasattr(spec, "pair_funcs")


def test_parse_forward_references_resolve():
    text = (
        "dimension = 1\n"
        "[function G]\n"
        "family = clamp_shift\n"
        "base = F\n"
        "shift = 0.1\n"
        "[function F]\n"
        "family = constant\n"
        "value = 0.5\n"
    )
    spec = parse_problem_text(text)
    assert spec.functions["G"](Point.of(0.0)) == 0.4


def _expect_parse_error(text: str, line: int, fragment: str) -> None:
    with pytest.raises(SpecParseError) as exc:
        parse_problem_text(text, "spec.prob")
    assert exc.value.line == line, f"expected line {line}, got {exc.value.line}: {exc.value}"
    assert fragment in str(exc.value)


def test_unknown_section_is_line_anchored():
    _expect_parse_error("dimension = 1\n[mystery]\nx = 1\n", 2, "unknown section")


def test_unknown_key_is_line_anchored():
    _expect_parse_error("dimension = 1\n[cylinder]\nR = 1.0\nMM = 2.0\n", 4, "unknown key")


def test_unknown_top_level_key():
    _expect_parse_error("dimension = 1\ncolour = blue\n", 2, "unknown key")


def test_duplicate_key_is_error():
    _expect_parse_error("dimension = 1\n[cylinder]\nR = 1.0\nR = 2.0\nM = 1.0\n",
                        4, "duplicate")


def test_duplicate_section_is_error():
    _expect_parse_error("dimension = 1\n[cylinder]\nR = 1\nM = 1\n[cylinder]\nR = 2\nM = 2\n",
                        5, "twice")


def test_bad_number_is_line_anchored():
    _expect_parse_error("dimension = 1\n[cylinder]\nR = one\nM = 2.0\n", 3, "expected a number")


def test_missing_dimension():
    _expect_parse_error("[cylinder]\nR = 1.0\nM = 1.0\n", 1, "dimension")


def test_unknown_family():
    _expect_parse_error(
        "dimension = 1\n[function F]\nfamily = septic\ncoeff = 1\n", 3, "unknown function family")


def test_wrong_key_for_family():
    _expect_parse_error(
        "dimension = 1\n[function F]\nfamily = constant\nvalue = 1\nrho = 2\n",
        5, "not valid for family")


def test_missing_family_key_anchors_at_header():
    _expect_parse_error(
        "dimension = 1\n[function F]\nfamily = quadratic\n", 2, "missing key 'coeff'")


def test_undefined_reference():
    _expect_parse_error(
        "dimension = 1\n[function G]\nfamily = clamp_shift\nbase = NOPE\nshift = 0.1\n",
        4, "undefined function")


def test_circular_definition():
    text = (
        "dimension = 1\n"
        "[function A]\n"          # line 2
        "family = scale\n"
        "base = B\n"
        "factor = 1.0\n"
        "[function B]\n"
        "family = scale\n"
        "base = A\n"
        "factor = 1.0\n"
    )
    _expect_parse_error(text, 2, "circular")


def test_dimension_mismatch_in_vector():
    _expect_parse_error(
        "dimension = 2\n[function F]\nfamily = affine\nslope = 1.0\nintercept = 0.0\n",
        4, "components")


def test_missing_equals():
    _expect_parse_error("dimension = 1\n[cylinder]\nR 1.0\nM = 1.0\n", 3, "key = value")


def test_cover_entry_format():
    text = (
        "dimension = 1\n"
        "[function L]\nfamily = constant\nvalue = 0.0\n"
        "[function U]\nfamily = constant\nvalue = 1.0\n"
        "[cover]\n"
        "cert = 0.0 | 0.5 | L\n"   # line 9: missing upper
    )
    _expect_parse_error(text, 9, "center | radius | lower | upper")


def test_inline_comments_are_stripped():
    spec = parse_problem_text(
        "dimension = 1   # ambient dimension\n"
        "[cylinder]  # window\n"
        "R = 1.0 # base\n"
        "M = 2.0\n")
    assert spec.cylinder.M == 2.0


def test_growth_block_points_and_ball():
    base = (
        "dimension = 1\n"
        "[growth]\n"
        "mu = 2.0\n"
        "radius = 1.0\n"
        "inf_value = 0.0\n"
    )
    spec = parse_problem_text(base + "argmin_kind = points\nargmin_points = 0.0 ; 0.5\n")
    assert len(spec.growth.argmin_set.points) == 2
    spec = parse_problem_text(
        base + "argmin_kind = ball\nargmin_center = 0.0\nargmin_radius = 0.25\n")
    assert spec.growth.argmin_set.radius == 0.25
    _expect_parse_error(base + "argmin_kind = blob\n", 6, "argmin_kind")


def test_bundled_problems_parse():
    for name in ("sharpness.prob", "strictness.prob", "envelope.prob"):
        spec = load_problem(PROBLEMS / name)
        assert spec.dimension == 1


COVER_SPEC = """\
dimension = 1

[function L1]
family = constant
value = 0.0

[function U1]
family = constant
value = 1.0

[function L2]
family = constant
value = 0.2

[function U2]
family = constant
value = 0.8

[cylinder]
R = 1.0
M = 1.0

[cover]
cert = -0.25 | 0.75 | L1 | U1
cert = 0.75 | 0.75 | L2 | U2

[grid]
step = 0.25
"""


def test_cover_spec_parses_and_gauges(tmp_path, capsys):
    p = tmp_path / "cover.prob"
    p.write_text(COVER_SPEC)
    spec = load_problem(p)
    assert [c.center.coords for c in spec.cover.certs] == [(-0.25,), (0.75,)]  # file order
    rc = main(["gauge", "--spec", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "gauge[cover]" in out
    # widest point: only the [0,1] band is active on the left
    line = next(l for l in out.splitlines() if l.startswith("gauge[cover]"))
    assert "1.0" in line


# ---------------------------------------------------------------------------
# Commands and exit codes
# ---------------------------------------------------------------------------


def test_gauge_strictness_output(capsys):
    rc = main(["gauge", "--spec", str(PROBLEMS / "strictness.prob")])
    out = capsys.readouterr().out
    assert rc == 0
    line_gauge = next(l for l in out.splitlines() if l.startswith("gauge"))
    line_sup = next(l for l in out.splitlines() if l.startswith("sup |f-g|"))
    assert "0.0" in line_gauge
    assert "5.0" in line_sup
    assert "certified" in out and "oracle" in out  # labeled columns


def test_gauge_envelope_output(capsys):
    rc = main(["gauge", "--spec", str(PROBLEMS / "envelope.prob")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0.1" in out
    assert "gauge[envelope]" in out


def test_gauge_requires_certificate_or_pair(tmp_path, capsys):
    p = tmp_path / "empty.prob"
    p.write_text("dimension = 1\n[cylinder]\nR = 1.0\nM = 1.0\n[grid]\nstep = 0.1\n")
    rc = main(["gauge", "--spec", str(p)])
    capsys.readouterr()
    assert rc == 3


def test_parse_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.prob"
    p.write_text("dimension = 1\n[wat]\n")
    rc = main(["gauge", "--spec", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad.prob:2" in err


def test_missing_file_exit_code(tmp_path, capsys):
    rc = main(["gauge", "--spec", str(tmp_path / "nope.prob")])
    capsys.readouterr()
    assert rc == 2


def test_oracle_cap_exit_code(capsys):
    rc = main(["gauge", "--spec", str(PROBLEMS / "strictness.prob"),
               "--grid-step", "1e-12"])
    capsys.readouterr()
    assert rc == 4


HUGE_PAIR = """\
dimension = 2
[function F]
family = quadratic
coeff = 1.0
[cylinder]
R = {R}
M = 1.0
[pair]
f = F
g = F
[grid]
step = {step}
"""


# Overflow in the array path rounds to inf, as the scalar path does, with no
# RuntimeWarning (an error under this suite's filterwarnings); where an
# overflow would void the demo, it exits 3 naming the cause.
@pytest.mark.parametrize("argv, problem, code, err", [
    (["demo", "impossibility", "--R", "1e300", "--grid-step", "1e299"], None, 3,
     "precondition failure: R is too large: (2R)^2 overflows, got 1e+300\n"),
    (["demo", "impossibility", "--queries=1,-1", "--y", "0", "--A", "1e308",
      "--grid-step", "0.5"], None, 3,
     "precondition failure: slope bound A/rho overflows: A = 1e+308, rho = 0.5\n"),
    (["gauge", "--spec"], HUGE_PAIR.format(R="1e200", step="1e199"), 0, ""),  # squares overflow
    (["gauge", "--spec"], HUGE_PAIR.format(R="1.3e154", step="1.3e153"), 0, ""),  # sums do
], ids=["impossibility-peak", "impossibility-slope", "gauge-squares", "gauge-sums"])
def test_overflow_in_the_array_path_warns_nothing(argv, problem, code, err, tmp_path, capsys):
    if problem is not None:
        p = tmp_path / "huge.prob"
        p.write_text(problem)
        argv = [*argv, str(p)]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == code
    assert captured.err == err
    if code == 3:
        assert captured.out == ""


@pytest.mark.parametrize("A", ["1", "1e6", "1e15", "1e100"])
def test_impossibility_slope_check_holds_at_every_scale_of_A(A, capsys):
    # The lattice slope's rounding grows with A/rho, so the slack on it must too.
    rc = main(["demo", "impossibility", "--queries=1,-1", "--y", "0", "--A", A,
               "--grid-step", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0 and "PASS finite_difference_slope_bounded" in out, out


@pytest.mark.parametrize("certificate", [
    "[tolerance]\nfamily = constant\nvalue = 0.02\ngrid_exact = true\n",
    "[envelope]\nregion_radius = 1.0\nlower = G\nupper = F\n",
], ids=["tolerance", "envelope"])
def test_certify_checks_the_gauge_cap_before_any_scan(certificate, tmp_path, monkeypatch,
                                                      capsys):
    blocks = epigauge.Grid.blocks

    def no_fine_scan(self):  # the envelope's validation lattice may run
        assert self.step != 1e-9, "the over-cap lattice was scanned"
        return blocks(self)

    p = tmp_path / "problem.prob"
    p.write_text((PROBLEMS / "sharpness.prob").read_text().replace(
        "[tolerance]\nfamily = constant\nvalue = 0.02\ngrid_exact = true\n", certificate))
    monkeypatch.setattr(epigauge.Grid, "blocks", no_fine_scan)
    rc = main(["certify", "--spec", str(p), "--grid-step", "1e-9"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == ("oracle cap exceeded: lattice step 1e-09 on radius 1.0 gives more "
                            "than 100000000 points per axis\n")


def test_over_cap_certify_builds_no_axis(monkeypatch, capsys):
    axis_values = epigauge.oracle._axis_values

    def no_fine_axis(*args):
        assert 1e-9 not in args, "the over-cap axis was built"
        return axis_values(*args)

    monkeypatch.setattr(epigauge.oracle, "_axis_values", no_fine_axis)
    rc = main(["certify", "--spec", str(PROBLEMS / "sharpness.prob"), "--grid-step", "1e-9"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("oracle cap exceeded: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


CAP_ERROR = ("oracle cap exceeded: lattice step 1e-09 on radius 1.0 gives more than "
             "100000000 points per axis\n")


def test_over_cap_cover_gauge_packages_no_cover(tmp_path, monkeypatch, capsys):
    def not_packaged(*args):
        raise AssertionError("the cover was packaged before the cap check")

    p = tmp_path / "cover.prob"
    p.write_text(COVER_SPEC)
    monkeypatch.setattr(epigauge.certificates.AggregatedEnvelope, "to_envelope_cert",
                        not_packaged)
    rc = main(["gauge", "--spec", str(p), "--grid-step", "1e-9"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (4, "", CAP_ERROR)


def test_the_cap_is_reported_before_the_certified_region(tmp_path, capsys):
    p = tmp_path / "envelope.prob"
    p.write_text((PROBLEMS / "envelope.prob").read_text().replace(
        "region_radius = 1.0", "region_radius = 0.5"))
    assert main(["gauge", "--spec", str(p)]) == 3
    assert capsys.readouterr().err.startswith("precondition failure: cylinder base radius")
    rc = main(["gauge", "--spec", str(p), "--grid-step", "1e-9"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (4, "", CAP_ERROR)


@pytest.mark.parametrize("argv", [
    ["gauge", "--spec", str(PROBLEMS / "sharpness.prob")],
    ["certify", "--spec", str(PROBLEMS / "sharpness.prob")],
    ["demo", "strictness"],
], ids=["gauge", "certify", "demo-strictness"])
def test_level_step_flag_is_a_usage_error(argv, monkeypatch, capsys):
    def not_loaded(*args):
        raise AssertionError("the problem was loaded")

    monkeypatch.setattr(epigauge.cli, "load_problem", not_loaded)
    rc = main([*argv, "--level-step", "0.01"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --level-step 0.01\n")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--mu", "2", "--num-deltas", "100000000"],
    ["sweep", "--spec", str(PROBLEMS / "sharpness.prob"), "--num-deltas", "100000000"],
    ["demo", "sharpness", "--num-deltas", "100000000"],
    ["sweep", "--mu", "2", "--num-deltas", "6667"],  # 6667 x 15,001 points
])
def test_over_cap_sweep_builds_no_drop(argv, monkeypatch, capsys):
    def nothing_built(*args, **kwargs):
        raise AssertionError("drops or families were built before the cap check")

    # Patched so that a missing check fails fast instead of building 10^8 drops.
    monkeypatch.setattr(epigauge.cli, "_log_deltas", nothing_built)
    monkeypatch.setattr(epigauge.cli, "build_sharpness_pair", nothing_built)
    monkeypatch.setattr(epigauge.constructions, "build_sharpness_pair", nothing_built)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err.startswith("oracle cap exceeded: sweep of ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


def test_certificate_inconsistency_exit_code(tmp_path, capsys):
    p = tmp_path / "crossed.prob"
    p.write_text(
        "dimension = 1\n"
        "[function L]\nfamily = constant\nvalue = 1.0\n"
        "[function U]\nfamily = constant\nvalue = 0.0\n"
        "[cylinder]\nR = 1.0\nM = 1.0\n"
        "[envelope]\nlower = L\nupper = U\nregion_radius = 1.0\n"
        "[grid]\nstep = 0.1\n")
    rc = main(["gauge", "--spec", str(p)])
    capsys.readouterr()
    assert rc == 5


def test_certify_sharpness_record(capsys):
    rc = main(["certify", "--spec", str(PROBLEMS / "sharpness.prob")])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(
        line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert fields["delta"] == "0.02"
    assert fields["bound"] == "0.2"
    assert fields["valid"] == "true"
    assert fields["value_control_consistent"] == "true"
    assert fields["displacement_consistent"] == "true"
    assert fields["provenance"] == "ToleranceField"
    assert abs(float(fields["oracle_dist"]) - math.sqrt(0.02)) <= 1e-3
    # the oracle scan estimates the gauge: no more than certified + slack
    assert float(fields["grid_gauge"]) <= 0.02 + 1e-12
    # fixed section order
    idx = {name: out.find(f"[{name}]") for name in
           ("problem", "gauge", "oracle", "window_x_star", "window_x_tilde",
            "value_control", "displacement")}
    assert all(v >= 0 for v in idx.values())
    assert sorted(idx.values()) == list(idx.values())


_FILE_ECHOES = re.compile(r"(?m)^(problem_sha256|spec_path|generated_utc) = .*$")


def _bundled_runs():
    """``gauge`` on each bundled problem, and ``certify`` where it has a
    [growth]."""
    for spec in sorted(PROBLEMS.glob("*.prob")):
        yield "gauge", spec
        if load_problem(spec).growth is not None:
            yield "certify", spec


@pytest.mark.parametrize("command, spec", _bundled_runs(), ids=lambda v: getattr(v, "stem", v))
def test_level_step_changes_nothing_but_its_echo(command, spec, tmp_path, capsys):
    """``[grid] level_step`` is checked and ignored: with the file's hash and
    path masked, no output byte depends on it, and a value <= 0 still
    fails to parse."""
    text = re.sub(r"(?m)^level_step = .*\n", "", spec.read_text())
    assert "[" not in text.split("[grid]")[1]  # an appended line lands in [grid]
    p = tmp_path / spec.name
    outputs = set()
    for level in ("", "level_step = 0.3\n", "level_step = 0.07\n", "level_step = 1e300\n"):
        p.write_text(text + level)
        rc = main([command, "--spec", str(p)])
        captured = capsys.readouterr()
        outputs.add((rc, _FILE_ECHOES.sub(r"\1 = <masked>", captured.out), captured.err))
    assert len(outputs) == 1
    for level in ("0", "-0.5", "nan"):
        p.write_text(f"{text}level_step = {level}\n")
        rc = main([command, "--spec", str(p)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(f"parse error: {p}:") and "level_step" in captured.err


def test_certify_window_failure_exit_code(tmp_path, capsys):
    # shrink the level band so the surrogate minimizer's target value escapes
    text = (PROBLEMS / "sharpness.prob").read_text().replace("M = 1.0", "M = 0.001")
    p = tmp_path / "tight.prob"
    p.write_text(text)
    rc = main(["certify", "--spec", str(p)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "valid = false" in out
    assert "level window" in out


def test_certify_requires_blocks(tmp_path, capsys):
    p = tmp_path / "nogrowth.prob"
    p.write_text(
        "dimension = 1\n"
        "[function F]\nfamily = constant\nvalue = 0.0\n"
        "[cylinder]\nR = 1.0\nM = 1.0\n"
        "[pair]\nf = F\ng = F\n"
        "[tolerance]\nfamily = constant\nvalue = 0.0\n"
        "[grid]\nstep = 0.1\nlevel_step = 0.1\n")
    rc = main(["certify", "--spec", str(p)])
    capsys.readouterr()
    assert rc == 3


def test_certify_zero_delta(tmp_path, capsys):
    text = (PROBLEMS / "sharpness.prob").read_text()
    text = text.replace("shift = 0.02", "shift = 0.0").replace("value = 0.02", "value = 0.0")
    p = tmp_path / "zero.prob"
    p.write_text(text)
    rc = main(["certify", "--spec", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    fields = dict(line.split(" = ", 1) for line in out.splitlines() if " = " in line)
    assert fields["bound"] == "0.0"
    assert fields["delta"] == "0.0"


def test_demo_exit_codes(capsys):
    assert main(["demo", "strictness", "--grid-step", "0.05"]) == 0
    assert main(["demo", "impossibility", "--queries=-0.5,0.5", "--y", "0",
                 "--grid-step", "0.01"]) == 0
    assert main(["demo", "sharpness", "--delta-min", "1e-3", "--num-deltas", "4",
                 "--grid-step", "1e-3"]) == 0
    capsys.readouterr()


def test_demo_sharpness_does_not_import_numpy_random():
    # The sandwich check reads the sweep's own lattice; it draws no random points.
    code = ("import io, contextlib, sys\n"
            "from epigauge.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['demo', 'sharpness']) == 0\n"
            "print('numpy.random' in sys.modules)\n")
    src = str(Path(epigauge.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_demo_sharpness_under_the_sweep_cap_runs_to_the_end(capsys):
    # 6 drops x 1,000,001 points is under the sweep's cap; the demo's gauge
    # comes from the sweep's scans, so no base x level cap applies to it.
    assert main(["demo", "sharpness", "--grid-step", "3e-7"]) == 0
    captured = capsys.readouterr()
    assert captured.out.endswith("\n5/5 properties passed\n") and captured.err == ""


def test_sum_overflow_exits_3_with_one_line(tmp_path, capsys):
    # G = F + F overflows in fsum's partial sums: no finite value there.
    spec = tmp_path / "overflow.prob"
    spec.write_text("dimension = 1\n[function F]\nfamily = affine\nslope = 1.0\n"
                    "intercept = 1e308\n[function G]\nfamily = sum\nterms = F, F\n"
                    "[envelope]\nlower = F\nupper = G\nregion_radius = 0.5\n")
    assert main(["gauge", "--spec", str(spec)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "function G returned non-finite value" in err[0]


TINY_PAIR = """\
dimension = 1
{functions}[function Z]
family = constant
value = 0.0
[cylinder]
R = 1.0
M = 1.0
[pair]
f = Z
g = {g}
[tolerance]
family = constant
value = 1.0
[grid]
step = 0.25
"""


def test_a_quotient_or_difference_that_rounds_to_minus_inf_clips_to_zero(tmp_path, capsys):
    # ||x|| / 1e-310 overflows off the bump's center, and -1e308 - 1e308
    # rounds to -inf: both lie outside the positive part, as in exact arithmetic.
    bump = "[function F]\nfamily = bump\ncenter = 0.0\nrho = 1e-310\namplitude = 1.0\n"
    clamp = ("[function F]\nfamily = affine\nslope = 0.0\nintercept = -1e308\n"
             "[function G]\nfamily = clamp_shift\nbase = F\nshift = 1e308\n")
    for functions, g, oracle in [(bump, "F", "1.0"), (clamp, "G", "0.0")]:
        spec = tmp_path / "tiny.prob"
        spec.write_text(TINY_PAIR.format(functions=functions, g=g))
        assert main(["gauge", "--spec", str(spec)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = {line[:25].strip(): line.split()[-1] for line in captured.out.splitlines()
                if line.startswith(("gauge[", "sup "))}
        assert rows == {"gauge[tolerance]": oracle, "sup |f-g|": oracle}


def test_demo_emits_pass_lines(capsys):
    main(["demo", "strictness", "--grid-step", "0.05"])
    out = capsys.readouterr().out
    assert out.count("PASS") == 2
    assert "2/2 properties passed" in out


def test_sweep_csv_stdout(capsys):
    rc = main(["sweep", "--mu", "2", "--deltas", "0.001,0.01", "--grid-step", "1e-3"])
    captured = capsys.readouterr()
    assert rc == 0
    lines = captured.out.strip().splitlines()
    assert lines[0] == "delta,argmin,dist,bound,slack"
    assert len(lines) == 3
    assert "slope = " in captured.err


def test_sweep_out_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--mu", "2", "--deltas", "0.001,0.01",
               "--grid-step", "1e-3", "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert out.read_text().startswith("delta,argmin,dist,bound,slack")
    assert "slope = " in captured.out


def test_sweep_needs_mu(capsys):
    rc = main(["sweep", "--deltas", "0.01"])
    capsys.readouterr()
    assert rc == 3


def test_usage_error_exit_code(capsys):
    rc = main(["frobnicate"])
    capsys.readouterr()
    assert rc == 2


def test_sweep_spec_alone_takes_mu_from_growth(capsys):
    # sharpness.prob claims mu = 2.0 in its [growth] section
    drops = ["--grid-step", "1e-4", "--num-deltas", "3", "--delta-min", "1e-4"]
    assert main(["sweep", "--spec", str(PROBLEMS / "sharpness.prob"), *drops]) == 0
    from_spec = capsys.readouterr()
    assert main(["sweep", "--mu", "2.0", *drops]) == 0
    assert capsys.readouterr() == from_spec
    assert from_spec.out.startswith("delta,argmin,dist,bound,slack\n")


def test_certify_ball_minimizer_set(tmp_path, capsys):
    text = (PROBLEMS / "sharpness.prob").read_text()
    assert "argmin_kind = points\nargmin_points = 0.0" in text
    p = tmp_path / "ball.prob"
    p.write_text(text.replace("argmin_kind = points\nargmin_points = 0.0",
                              "argmin_kind = ball\nargmin_center = 0.0\nargmin_radius = 0.0"))
    rc = main(["certify", "--spec", str(p)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "x_star = 0.0\n" in out
    assert "valid = true\n" in out


def _without(text: str, *blocks: str) -> str:
    for block in blocks:
        assert block in text
        text = text.replace(block, "")
    return text


SHARPNESS = (PROBLEMS / "sharpness.prob").read_text()


# A [tolerance] section needs the cylinder to parse, so it goes with it.
NO_CYLINDER = _without(SHARPNESS, "[cylinder]\nR = 1.0\nM = 1.0\n",
                       "[tolerance]\nfamily = constant\nvalue = 0.02\ngrid_exact = true\n")


@pytest.mark.parametrize("command, text, message", [
    ("certify", SHARPNESS.replace("argmin_points = 0.0", "argmin_points = 2.0"),
     "no listed minimizer lies inside the cylinder base ball"),
    ("gauge", NO_CYLINDER, "gauge requires a [cylinder] section"),
    ("certify", NO_CYLINDER, "certify requires a [cylinder] section"),
    ("certify", _without(SHARPNESS, "[pair]\nf = F\ng = G\n"),
     "certify requires a [pair] section"),
], ids=["far-minimizer", "gauge-no-cylinder", "certify-no-cylinder", "no-pair"])
def test_missing_input_exits_3_with_its_message(command, text, message, tmp_path, capsys):
    p = tmp_path / "problem.prob"
    p.write_text(text)
    rc = main([command, "--spec", str(p)])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == f"precondition failure: {message}\n"


@pytest.mark.parametrize("command", ["gauge", "certify"])
def test_pair_and_tolerance_need_no_level_step(command, tmp_path, capsys):
    p = tmp_path / "problem.prob"
    p.write_text(_without(SHARPNESS, "level_step = 0.01\n"))
    rc = main([command, "--spec", str(p)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert "0.02" in captured.out
