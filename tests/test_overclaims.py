"""Known overclaims and false failures, each pinned as a strict xfail that
asserts the sound outcome.

Every case is a problem file on which a command prints a certificate that a
closed-form truth contradicts, or fails a certificate that a closed-form
truth upholds.  When the fix lands the case passes, strict mode turns the
pass into a failure, and the fix drops the marker; a case without a marker
is an overclaim or false failure already mended.
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


def test_certify_rejects_a_growth_modulus_the_target_does_not_have(tmp_path, capsys):
    # f = x^2 grows with mu = 2 around 0; mu = 3 claims more than f gives.
    text = (PROBLEMS / "sharpness.prob").read_text(encoding="utf-8")
    assert "mu = 2.0\n" in text
    rc, _ = _run(tmp_path, "certify", text.replace("mu = 2.0\n", "mu = 3.0\n"), capsys)
    assert rc == 3


@pytest.mark.xfail(strict=True, reason="ROADMAP item 12")
def test_certify_holds_when_the_band_is_narrower_than_the_plateau(tmp_path, capsys):
    # With M = 0.01 the gauge is still certified (0.02) and g's minimizers
    # fill [-0.1414, 0.1414], inside the bound 0.2; yet x_tilde = -0.141 has
    # f = 0.019881, outside the band [-0.01, 0.01], and certify exits 3 with
    # valid, displacement_consistent = false.
    text = (PROBLEMS / "sharpness.prob").read_text(encoding="utf-8")
    assert text.count("\nM = 1.0\n") == 1
    rc, _ = _run(tmp_path, "certify", text.replace("\nM = 1.0\n", "\nM = 0.01\n"), capsys)
    assert rc == 0


def test_certify_holds_with_no_margin_on_a_surrogate_that_attains_the_bound(tmp_path, capsys):
    # g = max(f - 2*delta, 0) + delta keeps |f - g| <= delta = 0.02, and its
    # minimizers fill {x^2 <= 0.04}: the farthest is at 0.2 = 2*sqrt(delta/mu)
    # exactly, so the constant 2 is attained.  The nodes +-0.2 read
    # g = 0.020000000000000007 and tie with the plateau only through TAU, so
    # a change of rounding or of the tie window shows here first.
    text = (PROBLEMS / "sharpness.prob").read_text(encoding="utf-8")
    old = "[function G]\nfamily = clamp_shift\nbase = F\nshift = 0.02\n"
    assert text.count(old) == 1
    text = text.replace(old, """[function H]
family = clamp_shift
base = F
shift = 0.04

[function C]
family = constant
value = 0.02

[function G]
family = sum
terms = H, C
""")
    rc, out = _run(tmp_path, "certify", text, capsys)
    assert rc == 0
    lines = out.splitlines()
    for line in ("argmin_tie_count = 401", "x_tilde = -0.2", "bound = 0.2",
                 "oracle_dist = 0.2"):
        assert line in lines, line


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_certify_holds_when_every_value_is_scaled_by_a_power_of_two(tmp_path, capsys):
    # Scaling coeff, shift, the tolerance, mu and M by 2^-35 is exact and
    # leaves the displacement bound 2*sqrt(delta/mu) = 0.2 unchanged, yet the
    # absolute tie window TAU makes hundreds of lattice points argmin ties and
    # x_tilde lands at -0.233, outside the bound (at 2^-30 certify exits 0).
    text = (PROBLEMS / "sharpness.prob").read_text(encoding="utf-8")
    k = 2.0 ** -35
    for key, value in (("coeff", 1.0), ("shift", 0.02), ("value", 0.02), ("mu", 2.0),
                       ("M", 1.0)):
        assert text.count(f"\n{key} = {value!r}\n") == 1
        text = text.replace(f"\n{key} = {value!r}\n", f"\n{key} = {value * k!r}\n")
    rc, _ = _run(tmp_path, "certify", text, capsys)
    assert rc == 0


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


def test_gauge_rejects_a_radial_tolerance_that_goes_negative_between_nodes(tmp_path, capsys):
    # 0.1 - 0.105 * ||x|| is -0.005 on the rim of the unit disc, but the 0.3
    # lattice's farthest point is at 0.9487, where it reads 0.0004; a scan
    # alone sees a nonnegative field and certifies its max 0.1.
    spec = tmp_path / "p.prob"
    spec.write_text("""dimension = 2

[cylinder]
R = 1.0
M = 1.0

[tolerance]
family = radial_affine
base = 0.1
slope = -0.105
grid_exact = true

[grid]
step = 0.3
level_step = 0.5
""", encoding="utf-8")
    rc = main(["gauge", "--spec", str(spec)])
    out, err = capsys.readouterr()
    assert rc == 5 and out == ""
    assert err.startswith("certificate inconsistency: ") and err.count("\n") == 1


def test_certify_fails_on_a_gauge_that_is_only_a_lattice_estimate(tmp_path, capsys):
    # The envelope is true, with width sup 1.0: the dip of g below f sits
    # between the 0.05 lattice nodes, so the lattice estimate of the gauge
    # is 0 and the displacement window passes.  g's minimizer is near 0.525,
    # about five times the printed bound_with_slack 0.1 away from X* = {0}.
    spec = tmp_path / "p.prob"
    spec.write_text("""dimension = 1

[function F]
family = quadratic
coeff = 1

[function BUMP]
family = bump
center = 0.525
rho = 0.02
amplitude = 1

[function NEG]
family = scale
base = BUMP
factor = -1

[function G]
family = sum
terms = F, NEG

[cylinder]
R = 1
M = 1

[pair]
f = F
g = G

[envelope]
lower = G
upper = F
region_radius = 1

[growth]
argmin_kind = points
argmin_points = 0
mu = 2
radius = 1
inf_value = 0

[grid]
step = 0.05
level_step = 0.1
""", encoding="utf-8")
    rc = main(["certify", "--spec", str(spec)])
    out, err = capsys.readouterr()
    assert "\ncertified = false\n" in out and "\nvalid = true\n" in out
    assert rc == 3
    assert err == "certificate check failed: certified = false in the record\n"
