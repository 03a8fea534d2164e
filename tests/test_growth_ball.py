"""A displacement certificate holds only where the growth claim is made:
the growth ball must contain the base ball, or the surrogate minimizer
may sit where the target was never claimed to grow."""

from __future__ import annotations

from pathlib import Path

import pytest

from epigauge import (
    Cylinder,
    FinitePointSet,
    Func,
    Grid,
    GrowthCert,
    Point,
    displacement_bound,
    gauge_from_value_bound,
    grid_argmin,
    grid_sup_abs_diff,
)
from epigauge.cli import main
from epigauge.core import slack_radius

PROBLEMS = Path(__file__).resolve().parents[1] / "src" / "epigauge" / "problems"


def _far_descent_pair() -> tuple[Func, Func]:
    """f = x^2 on |x| <= 0.3, then a slow descent to 0.001 at |x| = 1;
    g drops the far part by 0.001, so |f - g| <= 0.001 everywhere."""

    def f_eval(p: Point) -> float:
        a = abs(p.coords[0])
        return a * a if a <= 0.3 else 0.09 - (a - 0.3) * (0.089 / 0.7)

    def g_eval(p: Point) -> float:
        return f_eval(p) if abs(p.coords[0]) <= 0.3 else f_eval(p) - 0.001

    return Func(f_eval, 1.0, 1, "f"), Func(g_eval, 1.0, 1, "g")


def test_small_growth_ball_invalidates_displacement_certificate():
    f, g = _far_descent_pair()
    cyl = Cylinder(1.0, 1.0)
    grid = Grid(1, 1.0, 0.001)
    assert grid_sup_abs_diff(f, g, grid) <= 0.001 + 1e-12
    xtilde = Point.of(1.0)
    assert abs(grid_argmin(g, grid).points[-1].coords[0]) == 1.0
    growth = GrowthCert(mu=2.0, radius=0.1, argmin_set=FinitePointSet((Point.of(0.0),)),
                        inf_value=0.0)
    cert = displacement_bound(gauge_from_value_bound(0.001, cyl), growth, Point.of(0.0),
                              xtilde, f, g, grid_step=0.001)
    # Without the growth-ball condition this would claim dist <= ~0.047
    # while the surrogate minimizer is at distance 1.
    assert abs(cert.bound_with_slack - 0.0467) < 1e-3
    assert all(c.in_base and c.in_level for c in cert.window_checks)
    assert not cert.growth_covers_base
    assert cert.valid is False
    assert cert.reverify() is False
    assert "does not cover the base ball" in cert.detail


def test_growth_ball_covering_base_ball_keeps_certificate_valid():
    f, g = _far_descent_pair()
    cyl = Cylinder(1.0, 1.0)
    for radius in (1.0, 1.0 + 1e-13, 2.0):
        growth = GrowthCert(2.0, radius, FinitePointSet((Point.of(0.0),)), 0.0)
        cert = displacement_bound(gauge_from_value_bound(0.001, cyl), growth, Point.of(0.0),
                                  Point.of(0.0), f, g)
        assert cert.growth_covers_base and cert.valid and cert.reverify()


def test_certify_rejects_growth_ball_smaller_than_base(tmp_path, capsys):
    text = (PROBLEMS / "sharpness.prob").read_text()
    assert text.count("radius = 1.0") == 1  # the [growth] radius
    p = tmp_path / "small_growth.prob"
    p.write_text(text.replace("radius = 1.0", "radius = 0.5"))
    rc = main(["certify", "--spec", str(p)])
    out = capsys.readouterr().out
    assert rc == 3
    assert "valid = false" in out
    assert "does not cover the base ball" in out


def _parse_record(text: str) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {"": {}}
    current = sections[""]
    for line in text.splitlines():
        if line.startswith("["):
            current = sections.setdefault(line[1:-1], {})
        else:
            key, value = line.split(" = ", 1)
            current[key] = value
    return sections


@pytest.mark.parametrize("growth_radius, valid", [("1.0", "true"), ("0.5", "false")])
def test_valid_is_rederived_from_the_record_alone(growth_radius, valid, tmp_path, capsys):
    # sharpness.prob as bundled, and with the growth ball smaller than the base ball
    p = tmp_path / "problem.prob"
    p.write_text((PROBLEMS / "sharpness.prob").read_text().replace(
        "radius = 1.0", f"radius = {growth_radius}"))
    rc = main(["certify", "--spec", str(p)])
    record = _parse_record(capsys.readouterr().out)
    assert rc == (0 if valid == "true" else 3)
    windows = [record[name] for name in ("window_x_star", "window_x_tilde")]
    in_windows = all(w["in_base"] == "true" and w["in_level"] == "true" for w in windows)
    covers = (float(record["problem"]["cylinder_R"])
              <= slack_radius(float(record["displacement"]["growth_radius"])))
    rederived = "true" if in_windows and covers else "false"
    assert rederived == record["displacement"]["valid"] == valid
