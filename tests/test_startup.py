"""Start-up: what a well-formed command loads, each in a fresh interpreter.

Neither ``argparse`` nor ``csv`` loads for a command that does not use
it, no command loads OpenSSL (``_hashlib``) on CPython, the set of
``epigauge`` modules a command loads is pinned, and every record class is
built by ``core.record``, never by ``@dataclass``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PROBLEMS = ROOT / "src" / "epigauge" / "problems"

SCRIPT = """
import contextlib, io, json, sys
from epigauge.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps({"exit": code,
                  "epigauge": sorted(m for m in sys.modules if m.split(".")[0] == "epigauge"),
                  "unused": [m for m in ("argparse", "csv") if m in sys.modules],
                  "openssl": "_hashlib" in sys.modules}))
"""

ALL_MODULES = ["epigauge", "epigauge.certificates", "epigauge.cli", "epigauge.constructions",
               "epigauge.core", "epigauge.errors", "epigauge.oracle", "epigauge.problem",
               "epigauge.stability"]


@pytest.mark.parametrize("argv", [
    ["certify", "--spec", str(PROBLEMS / "sharpness.prob")],
    ["demo", "sharpness"],
], ids=" ".join)
def test_a_command_loads_neither_argparse_nor_csv(argv):
    loaded = _loaded(argv)
    assert (loaded["exit"], loaded["epigauge"], loaded["unused"]) == (0, ALL_MODULES, [])


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="the lean SHA-256 module is CPython's")
@pytest.mark.parametrize("argv", [
    ["certify", "--spec", str(PROBLEMS / "sharpness.prob")],
    ["gauge", "--spec", str(PROBLEMS / "sharpness.prob")],
    ["demo", "sharpness"],
], ids=" ".join)
def test_no_command_loads_openssl(argv):
    loaded = _loaded(argv)
    assert (loaded["exit"], loaded["openssl"]) == (0, False)


def _loaded(argv: list[str]) -> dict:
    """What ``SCRIPT`` reports after running ``argv`` in a fresh interpreter."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_no_record_is_built_by_dataclass():
    lines = [f"{path.name}:{n}" for path in sorted((ROOT / "src").rglob("*.py"))
             for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if line.lstrip().startswith("@dataclass")]
    assert lines == []
