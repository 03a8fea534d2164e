"""Golden output: the exact bytes every command writes, pinned.

Each case runs one command through ``main`` and compares a transcript of
its exit code, stdout, stderr and ``--out`` file with ``tests/golden/``.
Only ``generated_utc`` and the paths (problem files, the temporary
directory) are masked; padding, trailing spaces and float reprs are part of
what is pinned.  After a deliberate output change, rewrite the files with

    PYTHONPATH=src python tests/test_golden_output.py
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

import pytest

from epigauge import oracle
from epigauge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = Path(__file__).resolve().parent.parent / "src" / "epigauge" / "problems"

COVER_1D = """\
dimension = 1
[function L0]
family = constant
value = 0.0
[function U1]
family = constant
value = 1.0
[function L1]
family = constant
value = 0.25
[function U2]
family = constant
value = 0.75
[cylinder]
R = 1.0
M = 1.0
[cover]
cert = -0.5 | 0.6 | L0 | U1
cert = 0.5 | 0.6 | L1 | U2
[grid]
step = 0.25
"""

# name -> (argv, problem text written to <tmp>/problem.prob or None, --out file or None)
CASES = {
    **{f"{cmd}-{p}": ([cmd, "--spec", f"<problems>/{p}.prob"], None, None)
       for cmd in ("gauge", "certify") for p in ("envelope", "sharpness", "strictness")},
    # valid = false through the level window: value gaps read 'invalid'
    "certify-sharpness-tight-level": (
        ["certify", "--spec", "<tmp>/problem.prob"],
        (PROBLEMS / "sharpness.prob").read_text().replace("M = 1.0", "M = 0.001"), None),
    "gauge-cover-1d": (["gauge", "--spec", "<tmp>/problem.prob"], COVER_1D, None),
    "demo-strictness-out": (["demo", "strictness", "--out", "<tmp>/demo.csv"], None,
                            "demo.csv"),
    # --csv writes every demo's CSV to stdout; the sharpness defaults are
    # its own (6 drops from 1e-4), not the sweep's (8 drops from 1e-5).
    "demo-impossibility-csv": (["demo", "impossibility", "--csv"], None, None),
    "demo-sharpness-csv": (["demo", "sharpness", "--csv"], None, None),
    "sweep-out": (["sweep", "--mu", "2", "--num-deltas", "3", "--delta-min", "1e-4",
                   "--out", "<tmp>/sweep.csv"], None, "sweep.csv"),
    # 150,001 points, so each drop streams its lattice in 3 blocks
    "sweep-streamed": (["sweep", "--mu", "2", "--grid-step", "2e-6", "--num-deltas", "3",
                        "--delta-min", "1e-4"], None, None),
}


def transcript(name: str, tmp: Path) -> str:
    argv, problem, out_file = CASES[name]
    if problem is not None:
        (tmp / "problem.prob").write_text(problem)
    real = [a.replace("<problems>", str(PROBLEMS)).replace("<tmp>", str(tmp)) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(real)
    parts = [f"$ epigauge {' '.join(argv)}\n", f"exit {code}\n",
             "--- stdout\n", out.getvalue(), "--- stderr\n", err.getvalue()]
    if out_file is not None:
        parts += [f"--- {out_file}\n", (tmp / out_file).read_text(encoding="utf-8")]
    text = "".join(parts).replace(str(PROBLEMS), "<problems>").replace(str(tmp), "<tmp>")
    return re.sub(r"(?m)^generated_utc = .*$", "generated_utc = <masked>", text)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert transcript(name, tmp_path) == expected


def test_no_command_builds_a_level_lattice(tmp_path, monkeypatch):
    def no_levels(self):
        raise AssertionError("a level lattice was built")

    monkeypatch.setattr(oracle.LevelGrid, "__post_init__", no_levels)
    for name in sorted(CASES):
        case = tmp_path / name
        case.mkdir()
        assert transcript(name, case) == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as d:
            (GOLDEN / f"{case}.txt").write_text(transcript(case, Path(d)), encoding="utf-8")
        print(f"wrote {GOLDEN / case}.txt", file=sys.stderr)
