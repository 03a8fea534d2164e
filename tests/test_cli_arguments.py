"""Command-line values are validated by argparse: a bad value ends in exit
code 2 with a single stderr line, never a traceback."""

from __future__ import annotations

import pytest

from epigauge.cli import main


@pytest.mark.parametrize("argv", [
    ["sweep", "--mu", "2", "--deltas", "abc"],
    ["sweep", "--mu", "2", "--delta-min", "-1"],
    ["demo", "sharpness", "--delta-min", "0"],
    ["sweep", "--mu", "2", "--deltas", "1e-3,nan"],
    ["sweep", "--mu", "2", "--deltas", "1e-3,"],
    ["sweep", "--mu", "2", "--delta-max", "inf"],
    ["demo", "sharpness", "--delta-max", "-1e-2"],
])
def test_bad_delta_values_exit_2_with_one_stderr_line(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error: argument --delta" in captured.err


def test_explicit_deltas_are_sorted(capsys):
    rc = main(["sweep", "--mu", "2", "--deltas", "1e-3,1e-4", "--grid-step", "1e-4"])
    out = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert [line.split(",")[0] for line in out[1:]] == ["0.0001", "0.001"]


def test_threads_is_accepted_and_has_no_effect(capsys):
    outputs = []
    for threads in ("1", "3"):
        assert main(["demo", "strictness", "--threads", threads]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
