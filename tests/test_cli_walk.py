"""The direct walk of the command line (``cli._walk``) against argparse.

Whenever the walk returns a namespace, ``_build_parser().parse_args``
returns one with equal ``vars()`` for the same argv.  The walk takes every
well-formed command the other tests and the benchmark workloads run, and
such a run builds no argument parser at all.  Any other spelling goes to
argparse and prints what the canonical spelling prints.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import test_cli_arguments
import test_golden_output
import test_usage_golden
from epigauge import cli
from epigauge.cli import main

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "src" / "epigauge" / "problems"
sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402  (imports nothing from the program)


def walk_matches_argparse(argv: list[str]) -> argparse.Namespace | None:
    """``cli._walk(argv)``, checked against argparse whenever it is not None."""
    args = cli._walk(argv)
    if args is not None:
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err):
                expected = cli._build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the walk took {argv} and argparse rejects it: {err.getvalue()}")
        assert vars(args) == vars(expected), argv
    return args


# The command lines the other tests of test_cli_arguments run inline.
INLINE = [
    ["sweep", "--mu", "2", "--deltas", "1e-3,1e-4", "--grid-step", "1e-4"],
    ["demo", "strictness", "--threads", "1"],
    ["demo", "strictness", "--threads", "3"],
    ["sweep", "--mu", "2"],
    ["demo", "strictness", "--out", "{tmp}/" + "x" * 300],
    ["sweep", "--mu", "2", "--deltas", "1e-3", "--grid-step", "1e-3", "--out", "{tmp}/sweep.csv"],
    ["sweep", "--spec", "{problems}/sharpness.prob", "--mu", "8"],
]


@pytest.mark.parametrize("argv", test_cli_arguments.BAD_DELTAS
                         + test_cli_arguments.BAD_BEFORE_ANY_SCAN
                         + test_cli_arguments.OTHER_DEMOS_FLAG + INLINE)
def test_walk_matches_argparse_on_the_argument_tests(argv, tmp_path):
    walk_matches_argparse([a.format(problems=PROBLEMS, tmp=tmp_path) for a in argv])


@pytest.mark.parametrize("name", sorted(test_golden_output.CASES))
def test_walk_takes_every_golden_command(name, tmp_path):
    argv = [a.replace("<problems>", str(PROBLEMS)).replace("<tmp>", str(tmp_path))
            for a in test_golden_output.CASES[name][0]]
    assert walk_matches_argparse(argv) is not None


@pytest.mark.parametrize("name", sorted(test_usage_golden.CASES))
def test_help_and_usage_errors_go_to_argparse(name):
    assert cli._walk(test_usage_golden.CASES[name]) is None


@pytest.mark.parametrize("seed", range(1, 11))
def test_walk_takes_every_workload_argv(seed):
    for w in (workloads.certify_2d(seed), workloads.sharpness_1d(seed, 1),
              workloads.sharpness_1d(seed, 2), workloads.cover_3d(seed)):
        argv = [a.replace("{spec}", "problem.prob") for a in w.argv]
        assert walk_matches_argparse(argv) is not None, argv


@pytest.mark.parametrize("name", sorted(test_golden_output.CASES))
def test_a_well_formed_run_prints_its_golden_bytes_without_argparse(name, tmp_path,
                                                                    monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("an argument parser was built")

    expected = (test_golden_output.GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    assert test_golden_output.transcript(name, tmp_path) == expected


SPEC = f"{PROBLEMS}/sharpness.prob"


# (another spelling, the canonical one)
@pytest.mark.parametrize("other, canonical", [
    (["gauge", f"--spec={SPEC}", "--grid-step=0.01"],
     ["gauge", "--spec", SPEC, "--grid-step", "0.01"]),
    (["gauge", "--spec", SPEC, "--grid-s", "0.01"],
     ["gauge", "--spec", SPEC, "--grid-step", "0.01"]),
    (["gauge", "--spec", f"{PROBLEMS}/missing.prob", "--spec", SPEC],
     ["gauge", "--spec", SPEC]),
    (["demo", "impossibility", "--y", "-0.2"], ["demo", "impossibility", "--y=-0.2"]),
])
def test_other_spellings_print_what_the_canonical_one_prints(other, canonical):
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    assert cli._walk(other) is None
    expected = run(canonical)
    assert expected[0] == 0
    assert run(other) == expected


def test_a_well_formed_run_loads_no_locale():
    # argparse's first parser imports gettext's locale tables.
    script = ("import sys; from epigauge.cli import main; before = 'locale' in sys.modules; "
              "main(['demo', 'strictness']); print(before or 'locale' not in sys.modules)")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert done.stdout.splitlines()[-1] == "True"


# A reversed log drop range, given or by default, on the walk's spelling and
# on argparse's: one usage line, exit 2, before any drop is built.  The
# cases and their transcripts are the usage golden ones named "*-reversed-*".
REVERSED_DROPS = sorted(name for name in test_usage_golden.CASES if "-reversed-" in name)


@pytest.mark.parametrize("name", REVERSED_DROPS)
def test_a_reversed_drop_range_is_a_usage_error(name, monkeypatch):
    if not test_usage_golden.GOLDEN.is_dir():
        pytest.skip(f"no usage transcripts for this Python version ({test_usage_golden.GOLDEN.name})")

    def no_drops(*args, **kwargs):
        raise AssertionError("a drop was built")

    assert cli._walk(test_usage_golden.CASES[name]) is None
    monkeypatch.setattr(cli, "_log_deltas", no_drops)
    monkeypatch.setattr(cli, "sharpness_sweep", no_drops)
    expected = (test_usage_golden.GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert test_usage_golden.transcript(name) == expected


@pytest.mark.parametrize("argv", [
    ["sweep", "--mu", "2", "--delta-min", "1e-3", "--delta-max", "1e-3", "--grid-step", "1e-4"],
    ["demo", "sharpness", "--delta-min", "1e-2"],
    ["sweep", "--mu", "2", "--deltas", "1e-2,1e-4", "--grid-step", "1e-4"],
])
def test_an_equal_or_listed_drop_range_is_taken_by_the_walk(argv):
    assert walk_matches_argparse(argv) is not None
