"""The argmin summary that ``grid_pair_scan`` feeds: its tie count, first
tie and value against ``grid_argmin``'s rows, bit for bit; the cap on the
rows it holds, judged when the count or first tie is read, so that only
``certify`` can exit 4 on it; and a traced peak that does not grow with the
tie count.

Floats are compared by ``float.hex`` so that a ``-0.0`` in place of a
``0.0`` counts as a difference.
"""

from __future__ import annotations

import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epigauge import TAU, Func, Grid, OracleCapError, grid_argmin, grid_gauge, grid_sup_abs_diff
from epigauge import oracle
from epigauge.cli import main
from epigauge.constructions import build_sharpness_pair
from epigauge.problem import load_problem

from helpers import pair_scan, random_analytic

PROBLEMS = Path(__file__).resolve().parents[1] / "src" / "epigauge" / "problems"


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def assert_summary_matches_rows(g: Func, grid: Grid) -> None:
    """The pair scan's summary of ``g`` against ``grid_argmin(g)``."""
    *_, summary = pair_scan(Func.constant(0.0, dim=grid.dim), g, grid, 1.0)
    full = grid_argmin(g, grid)
    assert summary.value.hex() == full.value.hex()
    assert summary.count == len(full.rows)
    assert hexes(summary.first) == hexes(full.rows[0])


def table_func(table: np.ndarray, step: float) -> Func:
    """A 1-d function on ``Grid(1, 1.0, step)`` reading ``table`` by node."""
    def index(x):
        return np.rint((x + 1.0) / step).astype(int)

    return Func(lambda p: float(table[index(p.coords[0])]), label="table",
                batch=lambda X: table[index(X[:, 0])])


def cases():
    rng = np.random.default_rng(2718)
    out = []
    for dim, step in ((1, 0.01), (2, 0.05), (3, 0.125)):
        out += [(random_analytic(rng, dim), step) for _ in range(4)]
        out += [(Func.clamp_shift(Func.quadratic(1.0, dim=dim), 0.05), step),  # a plateau
                (Func.constant(0.5, dim=dim), step),  # every node ties
                (Func.quadratic(1.0, dim=dim), step),  # one minimizer
                (Func.quadratic(1e-13, dim=dim), step)]  # every node within TAU of it
    zeros = Func(lambda p: 0.0 if p.coords[0] < 0.5 else -0.0, label="zeros",
                 batch=lambda X: np.where(X[:, 0] < 0.5, 0.0, -0.0))
    return out + [(zeros, 0.01)]


@pytest.mark.parametrize("block", [None, 64, 7])
@pytest.mark.parametrize("case", range(len(cases())))
def test_summary_matches_the_rows_in_one_block_and_streamed(case, block):
    g, step = cases()[case]
    grid = Grid(g.dim, 1.0, step)
    with mock.patch.object(oracle, "BLOCK_CELLS", block or oracle.BLOCK_CELLS):
        blocks = len(list(grid.blocks()))
        assert (blocks == 1) == (block is None)
        assert_summary_matches_rows(g, grid)


def test_a_plateau_that_spans_block_boundaries():
    # 200,001 points in four blocks; the plateau |x| <= sqrt(0.5) holds
    # 141,421 of them, across the three block boundaries
    grid = Grid(1, 1.0, 1e-5)
    g = build_sharpness_pair(2.0, 0.5).g
    assert len(list(grid.blocks())) == 4
    assert_summary_matches_rows(g, grid)
    *_, summary = pair_scan(g, g, grid, 1.0)
    assert summary.count == 141_421 and summary.first == (-70710 * 1e-5,)


def test_near_ties_of_a_held_block_that_a_lower_minimum_cuts_or_drops():
    # Blocks of 3 nodes.  Block 0 reaches 1.0 at node 2 and holds nodes 0-1
    # at 1.0 + 0.5 TAU, which tie while 1.0 is the minimum.  Node 3 falls to
    # 1.0 - 0.7 TAU: nodes 0-1 stop tying, so the first tie moves to node 2.
    # Node 6 falls more than TAU below blocks 0 and 1 and drops both.
    step = 0.25  # 9 nodes, x = -1.0 + 0.25 k
    base = np.full(9, 2.0)
    base[[0, 1]] = 1.0 + 0.5 * TAU
    base[2] = 1.0
    for tail, first in (((), -1.0), ((1.0 - 0.7 * TAU,), -0.5),
                        ((1.0 - 0.7 * TAU, 1.0 - 2 * TAU), 0.5)):
        table = base.copy()
        table[[3, 6][:len(tail)]] = tail
        g = table_func(table, step)
        with mock.patch.object(oracle, "BLOCK_CELLS", 3):
            assert_summary_matches_rows(g, Grid(1, 1.0, step))
            *_, summary = pair_scan(g, g, Grid(1, 1.0, step), 1.0)
        assert summary.first == (first,)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 5), min_size=41, max_size=41),
       st.sampled_from([0.0, 0.2, 0.7, 1.3]), st.sampled_from([1, 2, 3, 8, 64]))
def test_near_ties_across_many_blocks(levels, fall, block):
    # Values a fraction of TAU apart on a falling trend: block minima tie,
    # fall by less and by more than TAU, and climb again.
    table = np.array(levels) * 0.45 * TAU - np.arange(41) // 5 * fall * TAU
    with mock.patch.object(oracle, "BLOCK_CELLS", block):
        assert_summary_matches_rows(table_func(table, 0.05), Grid(1, 1.0, 0.05))


def test_held_rows_past_the_cap_raise(monkeypatch):
    # 1e-13 * x^2 is within TAU of its minimum 0 at every node but x = 0:
    # the summary holds all 20 of them; grid_argmin keeps every tie.
    g, grid = Func.quadratic(1e-13), Grid(1, 1.0, 0.1)
    monkeypatch.setattr(oracle, "ARGMIN_HELD_CAP", 20)
    *_, summary = pair_scan(g, g, grid, 1.0)
    assert summary.count == 21
    monkeypatch.setattr(oracle, "ARGMIN_HELD_CAP", 19)
    gauge, sup, summary = pair_scan(g, g, grid, 1.0)  # the scan itself completes
    assert (gauge, sup, summary.value) == (0.0, 0.0, 0.0)
    assert summary._blocks == []  # past the cap it holds no row
    for read in ("count", "first"):
        with pytest.raises(OracleCapError, match=r"^argmin scan holds 20 rows strictly above a "
                           r"block minimum and within TAU of it, more than the cap 19$"):
            getattr(summary, read)
    assert len(grid_argmin(g, grid).rows) == 21


NEAR_TIES = """\
dimension = 1
[function F]
family = quadratic
coeff = 1e-20
[cylinder]
R = 1.0
M = 1.0
[pair]
f = F
g = F
[tolerance]
family = constant
value = 0.0
grid_exact = true
[growth]
mu = 2e-20
radius = 1.0
inf_value = 0.0
argmin_kind = points
argmin_points = 0.0
"""


def test_certify_past_the_cap_exits_4_with_one_line(tmp_path, capsys):
    # 200,000 of the 200,001 nodes lie strictly above the minimum and within TAU
    spec = tmp_path / "near.prob"
    spec.write_text(NEAR_TIES)
    assert main(["certify", "--spec", str(spec), "--grid-step", "1e-5"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("oracle cap exceeded: argmin scan holds 131070 rows strictly above a block "
                   f"minimum and within TAU of it, more than the cap {oracle.ARGMIN_HELD_CAP}\n")
    # At step 1e-4 the scan stays under the cap; certify then exits 3, as every
    # node ties within TAU and x_tilde is the rim node -1.0 (ROADMAP item 17).
    assert main(["certify", "--spec", str(spec), "--grid-step", "1e-4"]) == 3


@pytest.mark.parametrize("step", ["1e-5", "1e-4"])
def test_gauge_past_the_cap_prints_its_oracle_columns(tmp_path, capsys, step):
    # gauge never reads the argmin summary, so its cap cannot fail it
    spec = tmp_path / "near.prob"
    spec.write_text(NEAR_TIES)
    assert main(["gauge", "--spec", str(spec), "--grid-step", step]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    f, g = load_problem(spec).pair
    grid = Grid(1, 1.0, float(step))
    gauge, sup = grid_gauge(f, g, grid, 1.0), grid_sup_abs_diff(f, g, grid)
    assert f"gauge[tolerance]         0.0                        {gauge!r:<26}\n" in out
    assert f"sup |f-g|                n/a                        {sup!r:<26}\n" in out


def test_traced_peak_does_not_grow_with_the_tie_count():
    f, g = load_problem(PROBLEMS / "sharpness.prob").pair
    counts, peaks = [], []
    for step in (1e-6, 5e-7, 2.5e-7):
        tracemalloc.start()
        try:
            *_, summary = pair_scan(f, g, Grid(1, 1.0, step), 1.0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        counts.append(summary.count)
    assert counts == [282_843, 565_685, 1_131_371]
    assert max(peaks) <= 1.05 * min(peaks), peaks
    # a few block-sized arrays: the scan held 26 MB of ties at 2.5e-7
    assert max(peaks) < 8e6, peaks
