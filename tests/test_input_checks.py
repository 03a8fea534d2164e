"""Input checks that no other test reaches: every problem-file parse error
below ends in exit 2 with its one ``parse error: path:line: message``
line, and every library precondition below raises its class with its
message.  Also the default exact-minimizer path of ``displacement_bound``
and the step-down of an axis whose rounded length overshoots the radius."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from epigauge import (
    Cover,
    Cylinder,
    DisplacementCert,
    DomainError,
    FinitePointSet,
    Func,
    GaugeBound,
    Grid,
    GrowthCert,
    LevelGrid,
    LocalCert,
    OracleCapError,
    Point,
    PreconditionError,
    Provenance,
    WindowCheck,
    build_impossibility_pair,
    dist_to_set,
    displacement_bound,
    falsify_quadratic_growth,
    grid_gauge,
    sharpness_sweep,
    value_gap_from_gauge,
)
from epigauge.cli import main
from epigauge.constructions import sweep_lattice
from epigauge.core import ClosedBall, distances
from epigauge.oracle import dist_to_set_rows

from helpers import axis_of


# ---------------------------------------------------------------------------
# Problem-file parse errors, through main
# ---------------------------------------------------------------------------

F = "[function F]\nfamily = quadratic\ncoeff = 1.0\n"
CYLINDER = "[cylinder]\nR = 1.0\nM = 1.0\n"


@pytest.mark.parametrize("body, line, message", [
    ("[cylinder\n", 2, "unterminated section header"),
    ("[ ]\n", 2, "empty section header"),
    ("[function]\n", 2, "function section needs a name: [function NAME]"),
    ("[cylinder one]\n", 2, "section [cylinder] takes no argument"),
    ("= 1\n", 2, "missing key before '='"),
    (CYLINDER + "[tolerance]\nfamily = constant\nvalue = -1\n", 7, "value must be >= 0"),
    ("version = 2\n", 2, "unsupported version '2'"),
    (F + "[function G]\nfamily = quadratic\ncoeff = 2.0\n" + "[envelope]\nregion_radius = 1.0\n"
     "lower = F\nupper = G\ngrid_exact = maybe\n", 12,
     "grid_exact: expected true/false, got 'maybe'"),
    ("[function A]\nfamily = affine\nslope = ,\nintercept = 0.0\n", 4,
     "slope: expected coordinates, got ','"),
    ("[growth]\nmu = 2.0\nradius = 1.0\ninf_value = 0.0\nargmin_kind = points\n"
     "argmin_points = ;\n", 7, "argmin_points: expected ';'-separated points, got ';'"),
    ("[function S]\nfamily = sum\nterms = ,\n", 4, "terms: expected function names, got ','"),
    (F + F, 5, "function 'F' defined twice"),
], ids=["unterminated", "empty-header", "unnamed-function", "section-argument", "no-key",
        "negative-tolerance", "version", "bool", "no-coordinates", "no-points", "no-terms",
        "function-twice"])
def test_a_parse_error_exits_2_with_its_line(body, line, message, tmp_path, capsys):
    spec = tmp_path / "p.prob"
    spec.write_text("dimension = 1\n" + body)
    assert main(["gauge", "--spec", str(spec)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"parse error: {spec}:{line}: {message}\n"


# ---------------------------------------------------------------------------
# Library preconditions, called directly
# ---------------------------------------------------------------------------


def _zero(p: Point) -> float:
    return 0.0


ORIGIN, FAR, PLANE = Point.of(0.0), Point.of(2.0), Point.of(0.0, 0.0)
QUAD, QUAD2 = Func.quadratic(1.0), Func.quadratic(1.0, dim=2)
CYL = Cylinder(1.0, 1.0)
GAUGE = GaugeBound(0.5, CYL, Provenance.ENVELOPE, True, "d")
GROWTH = GrowthCert(2.0, 1.0, FinitePointSet((ORIGIN,)), 0.0)
CHECK = WindowCheck(ORIGIN, 0.0, 0.0, CYL)
OTHER_CYL = Cylinder(2.0, 1.0)
LOCAL2 = LocalCert(PLANE, 0.5, Func.constant(0.0, dim=2), Func.constant(1.0, dim=2))

CHECKS = {
    # core
    "Point.dist": (lambda: ORIGIN.dist(PLANE), DomainError, "dimension mismatch: 1 vs 2"),
    "distances": (lambda: distances(np.zeros((1, 1)), PLANE), DomainError,
                  "dimension mismatch: 1 vs 2"),
    "Func-eval": (lambda: Func(1.0), PreconditionError, "eval must be callable"),
    "Func-batch": (lambda: Func(_zero, batch=1), PreconditionError, "batch must be callable"),
    "Func-domain": (lambda: Func(_zero, domain_radius=0.0), PreconditionError,
                    "domain_radius must be > 0, got 0.0"),
    "Func-dim": (lambda: Func(_zero, dim=0), PreconditionError,
                 "dim must be an integer >= 1, got 0"),
    "affine": (lambda: Func.affine((), 0.0), PreconditionError,
               "affine slope must have at least one component"),
    "bump": (lambda: Func.bump(ORIGIN, 0.0, 1.0), PreconditionError, "rho must be > 0, got 0.0"),
    "sum_of-empty": (lambda: Func.sum_of(), PreconditionError, "sum_of needs at least one term"),
    "sum_of-dims": (lambda: Func.sum_of(QUAD, QUAD2), PreconditionError,
                    "sum_of terms must share a dimension"),
    "FinitePointSet-empty": (lambda: FinitePointSet(()), PreconditionError,
                             "FinitePointSet must be nonempty"),
    "FinitePointSet-dims": (lambda: FinitePointSet((ORIGIN, PLANE)), PreconditionError,
                            "FinitePointSet points must share a dimension"),
    # constructions
    "impossibility-A": (lambda: build_impossibility_pair(1.0, (ORIGIN,), math.inf),
                        PreconditionError, "A must be finite and >= 0, got inf"),
    "impossibility-no-query": (lambda: build_impossibility_pair(1.0, (), 1.0),
                               PreconditionError, "at least one query point is required"),
    "impossibility-query-dims": (lambda: build_impossibility_pair(1.0, (ORIGIN, PLANE), 1.0),
                                 PreconditionError, "query points must share a dimension"),
    "impossibility-far-query": (lambda: build_impossibility_pair(1.0, (FAR,), 1.0),
                                PreconditionError,
                                "query (2.0) lies outside the ball of radius 1.0"),
    "impossibility-peak-dims": (lambda: build_impossibility_pair(1.0, (ORIGIN,), 1.0, y=PLANE),
                                PreconditionError,
                                "peak point dimension does not match the queries"),
    "impossibility-far-peak": (lambda: build_impossibility_pair(1.0, (ORIGIN,), 1.0, y=FAR),
                               PreconditionError,
                               "peak point (2.0) lies outside the ball of radius 1.0"),
    "sweep_lattice": (lambda: sweep_lattice(2.0, 1e-3, 0.0, 1), PreconditionError,
                      "grid_step must be > 0, got 0.0"),
    "sweep-no-delta": (lambda: sharpness_sweep(2.0, [], 1e-4), PreconditionError,
                       "at least one delta is required"),
    "sweep-zero-delta": (lambda: sharpness_sweep(2.0, [0.0], 1e-4), PreconditionError,
                         "all deltas must be finite and > 0"),
    # stability
    "GrowthCert-set": (lambda: GrowthCert(2.0, 1.0, "origin", 0.0), PreconditionError,
                       "unsupported minimizer-set representation: str"),
    "GrowthCert-inf": (lambda: GrowthCert(2.0, 1.0, FinitePointSet((ORIGIN,)), math.inf),
                       PreconditionError, "inf_value must be finite, got inf"),
    "value_gap-cylinder": (lambda: value_gap_from_gauge(GAUGE, WindowCheck(ORIGIN, 0.0, 0.0,
                                                                           OTHER_CYL)),
                           PreconditionError, f"window check cylinder {OTHER_CYL} does not "
                           f"match gauge cylinder {CYL}"),
    "DisplacementCert-step": (lambda: DisplacementCert(GAUGE, GROWTH, (CHECK, CHECK), 0.0),
                              PreconditionError, "grid_step must be > 0, got 0.0"),
    "displacement-far-target": (lambda: displacement_bound(GAUGE, GROWTH, FAR, ORIGIN, QUAD,
                                                           QUAD),
                                PreconditionError,
                                "target minimizer (2.0) lies outside the base ball of radius 1.0"),
    "displacement-not-minimizer": (lambda: displacement_bound(GAUGE, GROWTH, Point.of(0.5),
                                                              ORIGIN, QUAD, QUAD),
                                   PreconditionError,
                                   "point (0.5) is not in the claimed minimizer set "
                                   "(distance 0.5)"),
    "displacement-value": (lambda: displacement_bound(GAUGE, GROWTH, ORIGIN, ORIGIN,
                                                      Func.constant(1.0), QUAD),
                           PreconditionError, "claimed minimizer value 1.0 differs from "
                           "inf_value 0.0 by more than 1e-12"),
    "falsify-step": (lambda: falsify_quadratic_growth(QUAD, GROWTH, CYL, 0.0),
                     PreconditionError, "grid_step must be > 0, got 0.0"),
    # oracle
    "grid-dim": (lambda: grid_gauge(QUAD2, QUAD2, Grid(1, 1.0, 0.5), 1.0), DomainError,
                 "grid dimension 1 does not match function 1.0*|x|^2 of dimension 2"),
    "grid-domain": (lambda: grid_gauge(QUAD, dataclasses.replace(QUAD, domain_radius=0.5),
                                       Grid(1, 1.0, 0.5), 1.0), DomainError,
                    "grid radius 1.0 exceeds domain radius 0.5 of function 1.0*|x|^2"),
    "LevelGrid-cap": (lambda: LevelGrid(1.0, 1.6e-8), OracleCapError,
                      "level lattice of 125000003 points exceeds cap 100000000"),
    "dist_to_set-points": (lambda: dist_to_set(ORIGIN, FinitePointSet((PLANE,))), DomainError,
                           "dimension mismatch: point 1, set 2"),
    "dist_to_set-ball": (lambda: dist_to_set(ORIGIN, ClosedBall(PLANE, 1.0)), DomainError,
                         "dimension mismatch: point 1, set 2"),
    "dist_to_set-kind": (lambda: dist_to_set(ORIGIN, "origin"), PreconditionError,
                         "unsupported minimizer-set representation: str"),
    "dist_to_set_rows-kind": (lambda: dist_to_set_rows(np.zeros((1, 1)), "origin"),
                              PreconditionError, "unsupported minimizer-set representation: str"),
    "dist_to_set_rows-dims": (lambda: dist_to_set_rows(np.zeros((1, 1)), ClosedBall(PLANE, 1.0)),
                              DomainError, "dimension mismatch: point 1, set 2"),
    # certificates
    "LocalCert-dims": (lambda: LocalCert(PLANE, 0.5, Func.constant(0.0), Func.constant(1.0)),
                       PreconditionError,
                       "local cert center and envelopes must share a dimension"),
    "Cover-dims": (lambda: Cover((LocalCert(ORIGIN, 0.5, Func.constant(0.0), Func.constant(1.0)),
                                  LOCAL2)),
                   PreconditionError, "cover certificates must share a dimension"),
}


@pytest.mark.parametrize("name", CHECKS)
def test_a_precondition_raises_its_class_and_message(name):
    call, cls, message = CHECKS[name]
    with pytest.raises(cls) as exc:
        call()
    assert type(exc.value) is cls
    assert str(exc.value) == message


def test_an_exact_surrogate_minimizer_carries_no_grid_slack():
    cert = displacement_bound(GAUGE, GROWTH, ORIGIN, ORIGIN, QUAD, QUAD)
    assert cert.grid_step is None and cert.slack == 0.0
    assert cert.bound_with_slack == cert.bound == 2.0 * math.sqrt(0.5 / 2.0)
    assert cert.detail == "surrogate minimizer caller-certified exact; no grid slack"


def test_an_axis_whose_rounded_length_overshoots_steps_down():
    # radius/step rounds up to 3 within the slack, yet 3 * step lies beyond
    # slack_radius(radius): the axis keeps k = 2
    radius, step = 3000.0 - 3.5e-9, 1000.0
    assert math.floor(radius / step * (1 + 1e-12) + 1e-12) == 3
    assert axis_of(Grid(1, radius, step)) == (-2000.0, -1000.0, 0.0, 1000.0, 2000.0)
