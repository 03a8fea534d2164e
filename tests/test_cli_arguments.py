"""Command-line values are validated by argparse: a bad value ends in exit
code 2 with a single stderr line, never a traceback, and before any scan."""

from __future__ import annotations

from pathlib import Path

import pytest

from epigauge import cli
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


@pytest.mark.parametrize("argv", [
    ["sweep", "--mu", "2", "--num-deltas", "-3"],
    ["sweep", "--mu", "2", "--num-deltas", "0"],
    ["demo", "sharpness", "--num-deltas", "2.5"],
    ["certify", "--spec", "{problems}/sharpness.prob", "--out", "{tmp}/missing/dir/x"],
    ["certify", "--spec", "{problems}/sharpness.prob", "--out", "{tmp}"],
    ["sweep", "--mu", "2", "--out", "{tmp}/missing/x.csv"],
    ["demo", "sharpness", "--csv", "--out", "{tmp}/missing/x.csv"],
])
def test_bad_count_or_output_path_exits_2_before_any_scan(argv, tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran before the argument check")

    for name in ("sharpness_sweep", "grid_argmin", "grid_gauge", "load_problem"):
        monkeypatch.setattr(cli, name, no_scan)
    problems = Path(cli.__file__).parent / "problems"
    argv = [a.format(problems=problems, tmp=tmp_path) for a in argv]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error: argument --" in captured.err


def test_overlong_output_name_exits_2_with_one_stderr_line(tmp_path, capsys):
    rc = main(["demo", "strictness", "--out", str(tmp_path / ("x" * 300))])
    captured = capsys.readouterr()
    assert rc == 2
    assert len(captured.err.splitlines()) == 1
    assert not any(tmp_path.iterdir())


def test_output_write_failure_exits_2_with_one_stderr_line(tmp_path, capsys, monkeypatch):
    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    # The path passes the parse-time check; opening it fails after the scans.
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    rc = main(["sweep", "--mu", "2", "--deltas", "1e-3", "--grid-step", "1e-3",
               "--out", str(tmp_path / "sweep.csv")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"cannot write output: [Errno 13] Permission denied: " \
                           f"{str(tmp_path / 'sweep.csv')!r}\n"
