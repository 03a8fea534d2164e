"""Self-tests of the benchmark: generators, lattice counts, output checks,
span arithmetic and the BENCHMARK.json contract.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from epigauge import Grid, LevelGrid, cli  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(name):
    a, b = workloads.make(name, 7), workloads.make(name, 7)
    assert a.problem == b.problem and a.argv == b.argv and a.facts == b.facts


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_changes_values_not_counts(name):
    a, b = workloads.make(name, 1), workloads.make(name, 2)
    assert (a.problem, a.argv) != (b.problem, b.argv)
    assert a.cells == b.cells
    if name == "cover-3d":
        assert a.facts["certs"] == b.facts["certs"] == a.problem.count("cert = ")
    for w in (a, b):
        dim, radius, step = w.lattice
        grid = Grid(dim, radius, step)
        assert workloads.lattice_size(dim, radius, step) == (
            grid.cube_size(), sum(1 for _ in grid.points()))


def test_level_count_matches_program():
    for M, step in ((1.0, 0.1), (1.0, 0.02), (2.0, 0.3)):
        assert workloads.level_count(M, step) == len(LevelGrid(M, step).values)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sharpness_sweep_lattice_is_fixed(seed):
    """The demo derives its sweep radius from its own logspace of drops;
    the generated step must still give exactly 2K+1 points."""
    import numpy as np

    w = workloads.make("sharpness-1d", seed)
    args = dict(zip(w.argv[2::2], w.argv[3::2]))
    mu, h = float(args["--mu"]), float(args["--grid-step"])
    deltas = np.logspace(math.log10(float(args["--delta-min"])),
                         math.log10(float(args["--delta-max"])), workloads.SHARPNESS_DROPS)
    radius = max(1.5 * math.sqrt(2.0 * float(deltas[-1]) / mu), 20.0 * h)
    assert Grid(1, radius, h).cube_size() == 2 * workloads.SHARPNESS_HALF_POINTS + 1


@pytest.mark.parametrize("seed", range(1, 6))
def test_cover_centres_cover_the_ball(seed):
    w = workloads.make("cover-3d", seed)
    centres = [tuple(float(v) for v in line.split("=", 1)[1].split("|")[0].split())
               for line in w.problem.splitlines() if line.startswith("cert = ")]
    axis = workloads.axis_values(1.0, 0.05)
    for x in itertools.product(axis, repeat=3):
        if math.dist(x, (0.0, 0.0, 0.0)) <= 1.0:
            assert min(math.dist(x, c) for c in centres) <= workloads.COVER_RADIUS - 0.02


def _run_cli(w: workloads.Workload, tmp: Path) -> tuple[int, str]:
    argv = list(w.argv)
    if w.problem is not None:
        spec = tmp / f"{w.name}.prob"
        spec.write_text(w.problem, encoding="utf-8")
        argv = [str(spec) if a == "{spec}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def outputs():
    tmp = Path(__file__).resolve().parent / ".work"
    tmp.mkdir(exist_ok=True)
    res = {}
    for name in workloads.WORKLOADS:
        w = workloads.make(name, 3, threads=1)
        res[name] = (w, *_run_cli(w, tmp))
    return res


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_checks_accept_program_output(outputs, name):
    w, code, out = outputs[name]
    assert workloads.check(w, code, out) == []
    assert workloads.check(w, 3, out) == ["exit code 3"]


def _tamper(out: str, key: str, value: str) -> str:
    lines = out.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + " = "):
            lines[i] = f"{key} = {value}"
            return "\n".join(lines) + "\n"
    raise AssertionError(f"{key} not in output")


def test_certify_check_rejects_tampered_records(outputs):
    w, _, out = outputs["certify-2d"]
    rec = workloads._record(out)
    delta = float(rec["gauge.delta"])
    for key, value in (
        ("valid", "false"),
        ("value_control_consistent", "false"),
        ("displacement_consistent", "false"),
        ("grid_gauge", repr(float(rec["oracle.grid_sup_abs_diff"]) + 1e-9)),
        ("abs_diff_x_tilde", repr(delta + 1e-9)),
        ("oracle_dist", repr(float(rec["displacement.bound_with_slack"]) + 1e-9)),
        ("grid_sup_abs_diff", repr(w.facts["sup_abs_diff"] + 1e-9)),
        ("delta", "not-a-number"),
    ):
        assert workloads.check(w, 0, _tamper(out, key, value)), key


def test_sharpness_check_rejects_a_failed_property(outputs):
    w, _, out = outputs["sharpness-1d"]
    assert workloads.check(w, 0, out.replace("5/5 properties", "4/5 properties"))
    assert workloads.check(w, 0, out.replace("5/5 properties", "4/4 properties"))
    assert workloads.check(w, 0, "")


def test_cover_check_rejects_estimate_above_the_closed_form(outputs):
    w, _, out = outputs["cover-3d"]
    est = out.split("gauge[cover]", 1)[1].split()[0]
    for wrong in (w.facts["width_max"] * 1.01, w.facts["width_min"] * 0.99):
        assert workloads.check(w, 0, out.replace(est, repr(wrong), 1))


def test_self_times_on_a_synthetic_tree():
    def s(i, parent, start, end):
        return {"id": i, "parent": parent, "name": f"s{i}", "run": "r", "start": start,
                "end": end}
    tree = [s(0, None, 0.0, 10.0), s(1, 0, 1.0, 4.0), s(2, 1, 2.0, 3.0),
            s(3, 0, 3.0, 6.0), s(4, 0, 9.0, 12.0)]
    # root: children cover [1, 6] and [9, 10] of [0, 10]; overlap counted once.
    assert spans.self_times(tree) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0, 4: 3.0}


def test_tracer_records_parents():
    t = spans.Tracer("run-1")
    f = t.wrap("inner", lambda x: x + 1, lambda sp, a, k, r: sp.update(cells=r))
    with t.span("outer"):
        assert f(1) == 2
    outer, inner = t.spans
    assert (outer["parent"], inner["parent"], inner["cells"]) == (None, outer["id"], 2)
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    assert {sp["run"] for sp in t.spans} == {"run-1"}


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(k, *v) for k, v in run.PER_LAYER.items()]


def test_run_refuses_a_directory_without_the_program():
    bare = Path(__file__).resolve().parent / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "certify-2d",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""


def test_traced_command_nests_layer_spans():
    import child
    from epigauge import oracle

    tracer = spans.Tracer("t")
    restore = child.install_spans(tracer)
    try:
        with tracer.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
            cli.main(["demo", "sharpness", "--mu", "2", "--delta-min", "1e-4",
                      "--delta-max", "1e-2", "--num-deltas", "3", "--grid-step", "5e-4"])
    finally:
        restore()
    assert cli.grid_argmin is oracle.grid_argmin
    by_id = {s["id"]: s for s in tracer.spans}
    sweep = [s for s in tracer.spans if s["name"] == "constructions.sharpness_sweep"]
    argmins = [s for s in tracer.spans if s["name"] == "oracle.grid_argmin"]
    assert len(sweep) == 1 and len(argmins) == 3
    assert all(by_id[s["parent"]] is sweep[0] for s in argmins)
    assert sweep[0]["cells"] == sum(s["cells"] for s in argmins) == 3 * 601
