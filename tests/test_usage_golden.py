"""Golden help and usage errors: the exact bytes argparse writes, pinned.

Each case runs one command line through ``main`` and compares a transcript
of its exit code, stdout and stderr with ``tests/golden-usage/``.  Help is
wrapped at a fixed 80 columns.  argparse's wording and wrapping differ
between Python versions, so the transcripts are kept per Python version
(``python3.11/``, ...) and a version without its own directory skips.
To write them for the running version, or after a deliberate change, run

    PYTHONPATH=src python tests/test_usage_golden.py
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from epigauge import cli
from epigauge.cli import _build_parser, main
from epigauge.errors import PreconditionError

GOLDEN = (Path(__file__).resolve().parent / "golden-usage"
          / f"python{sys.version_info[0]}.{sys.version_info[1]}")

# name -> argv
CASES = {
    "help": ["--help"],
    **{f"{cmd}-help": [cmd, "--help"] for cmd in ("gauge", "certify", "demo", "sweep")},
    **{f"demo-{name}-help": ["demo", name, "--help"]
       for name in ("strictness", "impossibility", "sharpness")},
    "no-command": [],
    "unknown-command": ["bogus"],
    "demo-alone": ["demo"],
    "unknown-demo": ["demo", "bogus"],
    "certify-without-spec": ["certify"],
    "unknown-flag": ["gauge", "--spec", "x.prob", "--bogus"],
    # a reversed log drop range, given or by default, on the walk's spelling
    # and on argparse's (test_cli_walk checks that no drop is built)
    "sweep-reversed-drops": ["sweep", "--mu", "2", "--delta-min", "1e-2", "--delta-max", "1e-4",
                             "--grid-step", "1e-4"],
    "sweep-reversed-default-min": ["sweep", "--mu", "2", "--delta-max", "1e-6"],
    "demo-sharpness-reversed-drops": ["demo", "sharpness", "--delta-min=1e-2",
                                      "--delta-max", "1e-4"],
    "demo-sharpness-reversed-default-max": ["demo", "sharpness", "--delta-min", "0.05"],
}


def transcript(name: str) -> str:
    argv = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return "".join([f"$ epigauge {' '.join(argv)}\n", f"exit {code}\n",
                    "--- stdout\n", out.getvalue(), "--- stderr\n", err.getvalue()])


@pytest.mark.parametrize("name", sorted(CASES))
def test_usage_matches_golden(name, monkeypatch):
    if not GOLDEN.is_dir():
        pytest.skip(f"no usage transcripts for this Python version ({GOLDEN.name})")
    monkeypatch.setenv("COLUMNS", "80")
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(name) == expected


def test_a_well_formed_run_builds_no_parser(monkeypatch, capsys):
    [commands] = [a.choices for a in _build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == ["gauge", "certify", "demo", "sweep"]

    def no_parser(*args, **kwargs):
        raise AssertionError("an argument parser was built")

    def load_problem(path):
        loaded.append(path)
        raise PreconditionError("stop after the argument parsing")

    loaded: list[str] = []
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", no_parser)
    monkeypatch.setattr(cli, "load_problem", load_problem)
    assert main(["certify", "--spec", "x.prob"]) == 3
    assert loaded == ["x.prob"]
    assert capsys.readouterr().err == "precondition failure: stop after the argument parsing\n"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.txt").write_text(transcript(case), encoding="utf-8")
        print(f"wrote {GOLDEN / case}.txt", file=sys.stderr)
