"""Known overclaims, each pinned as a strict xfail that asserts the sound outcome.

Every case is a problem file on which a command prints a certificate that a
closed-form truth contradicts.  When the fix lands the case passes, strict
mode turns the pass into a failure, and the fix drops the marker.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from epigauge.cli import main

PROBLEMS = Path(__file__).resolve().parent.parent / "src" / "epigauge" / "problems"


def _certified_gauge(out: str) -> float:
    """The certified column of the ``gauge[...]`` row of a ``gauge`` report."""
    row = next(line for line in out.splitlines() if line.startswith("gauge["))
    return float(row.split()[1])


def _run(tmp_path: Path, command: str, text: str, capsys) -> tuple[int, str]:
    spec = tmp_path / "p.prob"
    spec.write_text(text, encoding="utf-8")
    rc = main([command, "--spec", str(spec)])
    return rc, capsys.readouterr().out


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_certify_rejects_a_growth_modulus_the_target_does_not_have(tmp_path, capsys):
    # f = x^2 grows with mu = 2 around 0; mu = 3 claims more than f gives.
    text = (PROBLEMS / "sharpness.prob").read_text(encoding="utf-8")
    assert "mu = 2.0\n" in text
    rc, _ = _run(tmp_path, "certify", text.replace("mu = 2.0\n", "mu = 3.0\n"), capsys)
    assert rc == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_gauge_on_a_bump_envelope_certifies_at_least_its_width_sup(tmp_path, capsys):
    # The width is the bump itself, whose sup 1.0 sits at 0.013, off the
    # 0.05 lattice; grid_exact=true lets the lattice max 0.87 pass as the sup.
    rc, out = _run(tmp_path, "gauge", """dimension = 1

[function LO]
family = constant
value = 0

[function HI]
family = bump
center = 0.013
rho = 0.1
amplitude = 1

[cylinder]
R = 1.0
M = 1.0

[envelope]
lower = LO
upper = HI
region_radius = 1.0
grid_exact = true

[grid]
step = 0.05
""", capsys)
    assert rc == 3 or _certified_gauge(out) >= 1.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_gauge_on_a_radial_tolerance_certifies_at_least_its_sup(tmp_path, capsys):
    # ||x|| / R reaches 1.0 on the rim of the unit disc; the 0.3 lattice's
    # farthest point in the disc is at sqrt(0.9^2 + 0.3^2) = 0.9487.
    rc, out = _run(tmp_path, "gauge", """dimension = 2

[cylinder]
R = 1.0
M = 1.0

[tolerance]
family = radial_affine
base = 0
slope = 1
grid_exact = true

[grid]
step = 0.3
level_step = 0.5
""", capsys)
    assert rc == 3 or _certified_gauge(out) >= 1.0
