"""Command-line values are validated by argparse: a bad value ends in exit
code 2 with a single stderr line, never a traceback, and before any scan."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from epigauge import cli
from epigauge.cli import main


BAD_DELTAS = [
    ["sweep", "--mu", "2", "--deltas", "abc"],
    ["sweep", "--mu", "2", "--delta-min", "-1"],
    ["demo", "sharpness", "--delta-min", "0"],
    ["sweep", "--mu", "2", "--deltas", "1e-3,nan"],
    ["sweep", "--mu", "2", "--deltas", "1e-3,"],
    ["sweep", "--mu", "2", "--delta-max", "inf"],
    ["demo", "sharpness", "--delta-max", "-1e-2"],
]


@pytest.mark.parametrize("argv", BAD_DELTAS)
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


BAD_BEFORE_ANY_SCAN = [
    ["sweep", "--mu", "2", "--num-deltas", "-3"],
    ["sweep", "--mu", "2", "--num-deltas", "0"],
    ["demo", "sharpness", "--num-deltas", "2.5"],
    ["certify", "--spec", "{problems}/sharpness.prob", "--out", "{tmp}/missing/dir/x"],
    ["certify", "--spec", "{problems}/sharpness.prob", "--out", "{tmp}"],
    ["sweep", "--mu", "2", "--out", "{tmp}/missing/x.csv"],
    ["demo", "sharpness", "--csv", "--out", "{tmp}/missing/x.csv"],
    ["gauge", "--spec", "{problems}/sharpness.prob", "--grid-step", "0"],
    ["certify", "--spec", "{problems}/sharpness.prob", "--level-step", "nan"],
    ["sweep", "--mu", "-2"],
    ["demo", "strictness", "--R", "-1"],
    ["demo", "impossibility", "--queries", "0,inf"],
    ["demo", "sharpness", "--grid-step", "inf"],
    ["demo", "strictness", "--threads", "0"],
    ["demo", "strictness", "--csv", "--out", "{tmp}/x.csv"],
    ["demo", "impossibility", "--out", "{tmp}/x.csv", "--csv"],
    ["demo", "sharpness", "--csv", "--out", "{tmp}/x.csv"],
    ["sweep", "--mu", "2", "--deltas", "1e-3,1e-2", "--num-deltas", "5", "--delta-min", "5e-4"],
    ["sweep", "--mu", "2", "--delta-min", "5e-4", "--deltas", "1e-3"],
    ["sweep", "--mu", "2", "--deltas", "1e-3", "--delta-max", "1e-2"],
]


@pytest.mark.parametrize("argv", BAD_BEFORE_ANY_SCAN)
def test_bad_count_or_output_path_exits_2_before_any_scan(argv, tmp_path, capsys, monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran before the argument check")

    for name in ("sharpness_sweep", "grid_argmin", "grid_pair_scan", "grid_sup_abs_diff",
                 "load_problem"):
        monkeypatch.setattr(cli, name, no_scan)
    problems = Path(cli.__file__).parent / "problems"
    argv = [a.format(problems=problems, tmp=tmp_path) for a in argv]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "error: argument --" in captured.err


OTHER_DEMOS_FLAG = [
    ["demo", "strictness", "--mu", "2"],
    ["demo", "strictness", "--queries", "0.5"],
    ["demo", "impossibility", "--M", "2"],
    ["demo", "impossibility", "--level-step", "0.1"],
    ["demo", "sharpness", "--R", "2"],
    ["demo", "sharpness", "--A", "1"],
]


@pytest.mark.parametrize("argv", OTHER_DEMOS_FLAG)
def test_demo_rejects_another_demos_flag(argv, capsys):
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert f"unrecognized arguments: {argv[2]}" in captured.err


@pytest.mark.parametrize("lo, hi, n", [(1e-5, 1e-2, 8), (3e-5, 7e-3, 5), (1e-4, 1e-2, 6),
                                       (2e-4, 2e-4, 3), (1e-3, 1e-2, 2), (1e-3, 1e-2, 1)])
def test_drop_sizes_end_exactly_at_the_given_bounds(lo, hi, n):
    deltas = cli._log_deltas(argparse.Namespace(delta_min=lo, delta_max=hi, num_deltas=n))
    assert len(deltas) == n
    assert deltas[0] == lo
    assert deltas[-1] == (hi if n > 1 else lo)
    assert deltas == sorted(deltas)


def test_drop_sizes_do_not_depend_on_numpy_cpu_dispatch():
    # These features select numpy's AVX-512 power, whose last bit differs.
    baseline = {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4"}
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if subprocess.run([sys.executable, "-c", "import numpy"], env={**env, **baseline},
                      capture_output=True).returncode != 0:
        pytest.skip("this numpy rejects the feature list")
    outputs = [subprocess.run([sys.executable, "-m", "epigauge.cli", "sweep", "--mu", "2"],
                              env=e, capture_output=True, check=True).stdout
               for e in (env, {**env, **baseline})]
    assert outputs[0] == outputs[1]
    assert outputs[0].splitlines()[1].startswith(b"1e-05,")


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


def test_sweep_spec_and_mu_together_exit_2_before_any_scan(capsys, monkeypatch):
    # mu comes from one place: the [growth] section of --spec, or --mu.
    def no_scan(*args, **kwargs):
        raise AssertionError("a scan ran before the argument check")

    for name in ("sharpness_sweep", "load_problem"):
        monkeypatch.setattr(cli, name, no_scan)
    problem = Path(cli.__file__).parent / "problems" / "sharpness.prob"
    rc = main(["sweep", "--spec", str(problem), "--mu", "8"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert "argument --mu: not allowed with argument --spec" in captured.err
