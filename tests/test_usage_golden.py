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

from epigauge.cli import _build_parser, main

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


def test_a_run_adds_only_the_arguments_of_its_command():
    parser = _build_parser()
    parser.parse_args(["certify", "--spec", "x.prob"])
    [commands] = [a.choices for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
    assert list(commands) == ["gauge", "certify", "demo", "sweep"]
    for name, command in commands.items():
        dests = [a.dest for a in command._actions]
        assert (dests == ["help"]) == (name != "certify"), (name, dests)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.txt").write_text(transcript(case), encoding="utf-8")
        print(f"wrote {GOLDEN / case}.txt", file=sys.stderr)
