"""Differential tests: the one certified-sup scan against the two scans it
replaced.

``envelope_width_bound`` and ``gauge_from_tolerance_field`` are each one
call into ``certificates._certified_sup``.  The two functions below are the
separate scans they were before, kept verbatim as references (with the
``_estimate_note`` they shared).  The reference tolerance scan reads the
field the way it was built then: a point callable ``eta``, an optional
``batch`` and a recorded range, which ``old_field`` takes from the ``Func``
a field now holds.  Each case compares ``delta.hex()``, ``certified``,
``detail`` and provenance, or the exception type and message.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from epigauge import (
    CertificateViolationError,
    Cover,
    Cylinder,
    EnvelopeCert,
    Func,
    GaugeBound,
    Grid,
    LocalCert,
    Point,
    PreconditionError,
    Provenance,
    ToleranceField,
    aggregate_cover,
    envelope_width_bound,
    gauge_from_tolerance_field,
)
from epigauge.certificates import _require_in_region
from epigauge.core import evaluated
from epigauge.problem import load_problem

from helpers import random_analytic, random_polyquad

PROBLEMS = Path(__file__).resolve().parent.parent / "src" / "epigauge" / "problems"


# ---------------------------------------------------------------------------
# The two scans before they shared one, verbatim
# ---------------------------------------------------------------------------


def _estimate_note(grid_exact: bool, what: str = "envelope family") -> str:
    if grid_exact:
        return f"certified: {what} declared grid-exact"
    return "grid estimate; not a certificate"


def old_envelope_width_bound(cert: EnvelopeCert, cyl: Cylinder, grid_step: float) -> GaugeBound:
    """Scan the envelope width ``upper - lower`` over the base lattice.

    The width supremum on the ball bounds the gauge for *every* level band,
    so the returned bound carries ``cyl`` unchanged.  Certified only when
    the certificate is declared grid-exact; otherwise the record is marked
    as a grid estimate.
    """
    _require_in_region(cert, cyl)
    grid = Grid(cert.dim, cyl.R, grid_step)
    width = 0.0
    for X, (hi, lo) in evaluated(grid.blocks(), cert.upper, cert.lower):
        with np.errstate(over="ignore"):  # rounds to inf, as the scalar difference does
            w = hi - lo
        negative = np.flatnonzero(w < 0)
        if negative.size:
            i = negative[0]
            raise CertificateViolationError(
                f"envelope width negative ({float(w[i])!r}) at "
                f"{Point(tuple(X[i].tolist()))}: certificate inconsistent"
            )
        wm = float(w.max())
        if wm > width:
            width = wm
    return GaugeBound(
        delta=width,
        cylinder=cyl,
        provenance=Provenance.ENVELOPE,
        certified=cert.grid_exact,
        detail=f"width sup over base lattice (step={grid_step!r}); {_estimate_note(cert.grid_exact)}",
    )


def old_gauge_from_tolerance_field(tf, grid_step: float) -> GaugeBound:
    """The sup of a tolerance field over the base ball, as a gauge bound.

    ``eta`` must be finite and nonnegative everywhere on the base ball.
    The base lattice is held to the oracle's cap first, whatever path
    follows.  A field from ``ToleranceField.constant`` or ``radial_affine``
    whose recorded range is finite and nonnegative returns its closed-form
    max, certified, without evaluating ``eta`` or ``batch``.

    Any other field is scanned over the base lattice: rows the batch
    leaves non-finite or negative (every row without ``batch``) are
    replayed through ``eta``, the first non-finite or negative value
    raises, in lattice order, and the lattice max is certified only when
    the field is declared grid-exact.  A recorded range that fails the
    check raises too, even where no lattice node sees the bad value.
    """
    grid = Grid(tf.dim, tf.cylinder.R, grid_step)
    closed = tf._range  # (min, max); NaN fails both tests, and min <= max otherwise
    if closed is not None and 0.0 <= closed[0] and math.isfinite(closed[1]):
        return GaugeBound(
            delta=closed[1],
            cylinder=tf.cylinder,
            provenance=Provenance.TOLERANCE_FIELD,
            certified=True,
            detail="tolerance sup over the base ball in closed form; certified, no lattice scan",
        )
    best = 0.0
    for X in grid.blocks():
        V = np.full(len(X), np.nan)
        if tf.batch is not None:
            with np.errstate(all="ignore"):
                V[...] = tf.batch(X)
        for i in np.flatnonzero(~(np.isfinite(V) & (V >= 0))).tolist():
            p = Point(tuple(X[i].tolist()))
            v = float(tf.eta(p))
            if not math.isfinite(v) or v < 0:
                raise CertificateViolationError(
                    f"tolerance field returned {v!r} at {p}; "
                    f"a vertical tolerance must be finite and >= 0"
                )
            V[i] = v
        best = max(best, float(V.max()))
    if closed is not None:  # the bad value lies between the lattice nodes
        lo, hi = closed
        bad = hi if 0.0 <= lo else lo
        raise CertificateViolationError(
            f"tolerance field reaches {bad!r} on the base ball (closed form, between "
            f"lattice nodes); a vertical tolerance must be finite and >= 0"
        )
    return GaugeBound(
        delta=best,
        cylinder=tf.cylinder,
        provenance=Provenance.TOLERANCE_FIELD,
        certified=tf.grid_exact,
        detail=(
            f"tolerance sup over base lattice (step={grid_step!r}); "
            f"{_estimate_note(tf.grid_exact, 'tolerance field')}"
        ),
    )


def old_field(tf: ToleranceField) -> SimpleNamespace:
    """``tf`` as the reference scan reads a field: ``eta`` the raw point
    callable, ``batch`` beside it, and the recorded range."""
    return SimpleNamespace(eta=tf.eta.eval, batch=tf.eta.batch, dim=tf.dim,
                           cylinder=tf.cylinder, grid_exact=tf.grid_exact, _range=tf._range)


def outcome(fn, *args):
    try:
        b = fn(*args)
    except Exception as e:  # noqa: BLE001 - the type is part of the comparison
        return (type(e), str(e))
    return ("ok", b.delta.hex(), b.certified, b.detail, b.provenance, b.cylinder)


def assert_width_parity(cert: EnvelopeCert, cyl: Cylinder, step: float):
    got = outcome(envelope_width_bound, cert, cyl, step)
    assert got == outcome(old_envelope_width_bound, cert, cyl, step)
    return got


def assert_tolerance_parity(tf: ToleranceField, step: float):
    got = outcome(gauge_from_tolerance_field, tf, step)
    assert got == outcome(old_gauge_from_tolerance_field, old_field(tf), step)
    return got


# ---------------------------------------------------------------------------
# Certificates built from the acceptance criteria's inputs
# ---------------------------------------------------------------------------


def _first(a, b):
    """``min`` and ``max`` as Python takes them: the first of two equal
    values, so the batch matches the scalar bits, signed zeros included."""
    lo = Func(lambda p: min(a(p), b(p)), math.inf, a.dim, "min",
              lambda X: (lambda u, v: np.where(v < u, v, u))(a._rows(X), b._rows(X)))
    hi = Func(lambda p: max(a(p), b(p)), math.inf, a.dim, "max",
              lambda X: (lambda u, v: np.where(v > u, v, u))(a._rows(X), b._rows(X)))
    return lo, hi


def _fields(f: Func, g: Func, cyl: Cylinder, grid_exact: bool) -> list[ToleranceField]:
    """|f - g| and f - g (negative somewhere unless f >= g), each with and
    without a batch."""
    out = []
    for eval_, batch in ((lambda p: abs(f(p) - g(p)), lambda X: np.abs(f._rows(X) - g._rows(X))),
                         (lambda p: f(p) - g(p), lambda X: f._rows(X) - g._rows(X))):
        for b in (batch, None):
            out.append(ToleranceField(Func(eval_, math.inf, f.dim, "eta", b), cyl, grid_exact))
    return out


def criterion_7_pairs():
    rng = np.random.default_rng(577215)
    return [(random_analytic(rng), random_analytic(rng)) for _ in range(100)]


def criterion_8_covers():
    """The 100 covers of criterion 8, drawn from its seed with the same
    sequence of draws (its probe points are drawn and dropped)."""
    rng = np.random.default_rng(141421)
    covers = []
    for _ in range(100):
        truth = random_polyquad(rng)
        certs = []
        for _ in range(int(rng.integers(1, 6))):
            center = Point.of(float(rng.uniform(-1.0, 1.0)))
            radius = float(rng.uniform(0.2, 0.8))
            a_lo = float(rng.uniform(0.0, 0.5))
            b_lo = float(rng.uniform(0.0, 1.0))
            a_hi = float(rng.uniform(0.0, 0.5))
            b_hi = float(rng.uniform(0.0, 1.0))

            def lo_eval(p, _a=a_lo, _b=b_lo, _c=center):
                return truth(p) - (_a + _b * (p.coords[0] - _c.coords[0]) ** 2)

            def hi_eval(p, _a=a_hi, _b=b_hi, _c=center):
                return truth(p) + (_a + _b * (p.coords[0] - _c.coords[0]) ** 2)

            certs.append(LocalCert(center, radius,
                                   lower=Func(lo_eval, math.inf, 1),
                                   upper=Func(hi_eval, math.inf, 1)))
        for _ in range(1000):
            cert = certs[int(rng.integers(0, len(certs)))]
            rng.uniform(-cert.radius, cert.radius)
        covers.append(Cover(tuple(certs)))
    return covers


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def test_criterion_7_pairs_scan_as_before():
    kinds = set()
    for n, (f, g) in enumerate(criterion_7_pairs()):
        cyl = Cylinder(1.0, 1.0)
        lo, hi = _first(f, g)
        certs = [EnvelopeCert(1.0, lo, hi, n % 2 == 0)]
        try:  # f and g themselves, where the validation lattice sees no crossing
            certs.append(EnvelopeCert(1.0, f, g, n % 3 == 0))
        except CertificateViolationError:
            pass
        for step in (0.2, 0.1, 0.05, 0.025):
            for cert in certs:
                kinds.add(assert_width_parity(cert, cyl, step)[0])
            for tf in _fields(f, g, cyl, n % 2 == 1):
                kinds.add(assert_tolerance_parity(tf, step)[0])
    assert kinds == {"ok", CertificateViolationError}


def test_criterion_8_covers_scan_as_before():
    kinds = set()
    scanned = 0
    for cover in criterion_8_covers():
        agg = aggregate_cover(cover)
        for R in (0.25, 1.0):
            try:
                cert = agg.to_envelope_cert(R)
            except Exception:  # noqa: BLE001 - a gap the validation lattice sees
                continue
            scanned += 1
            for step in (R / 16, R / 40, R / 64):
                kinds.add(assert_width_parity(cert, Cylinder(R, 1.0), step)[0])
    assert scanned >= 50 and "ok" in kinds


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_closed_form_fields_scan_as_before(dim):
    details = set()
    for R in (0.3, 1.0):
        cyl = Cylinder(R, 1.0)
        fields = [ToleranceField.constant(v, cyl, dim)
                  for v in (0.0, -0.0, 0.25, -1.0, math.inf, math.nan)]
        fields += [ToleranceField.radial_affine(b, s, cyl, dim) for b, s in (
            (0.5, 0.25), (0.5, -0.25), (0.0, 1.0), (0.0, -0.0),
            # negative at the rim: seen by a node of norm R, or by none
            (0.1, -0.2), (0.1, -0.1000001), (0.0, -1e-300),
            (-0.1, 0.2), (math.nan, 1.0), (1.0, math.inf), (1.0, -math.inf))]
        for tf in fields:
            for step in (0.1, 0.125, 0.3):
                got = assert_tolerance_parity(tf, step)
                details.add(got[3] if got[0] == "ok" else got[1].split(" on ")[0])
    assert any("closed form" in d for d in details)
    assert any(d.startswith("tolerance field reaches") for d in details)


def test_replaced_fields_are_scanned_as_before():
    cyl = Cylinder(1.0, 1.0)
    for dim in (1, 2):
        for tf in (ToleranceField.constant(0.25, cyl, dim),
                   ToleranceField.radial_affine(0.5, 0.25, cyl, dim),
                   ToleranceField.radial_affine(0.1, -0.1000001, cyl, dim)):
            for copy in (dataclasses.replace(tf), dataclasses.replace(tf, grid_exact=True)):
                assert copy._range is None
                got = assert_tolerance_parity(copy, 0.3)
                assert got[0] != "ok" or "over base lattice" in got[3]


def test_an_overflowing_width_is_an_inf_delta_that_a_later_violation_overrides():
    # width 2e308 rounds to inf near x = -1; at 0.515625, between the
    # validation nodes, the bump puts lower above upper.
    upper = Func.clamp_shift(Func.affine((-1e308,), 0.0), 0.0)
    lower = Func.scaled(upper, -1.0)
    spiked = Func.sum_of(lower, Func.bump(Point.of(0.53125), 0.02, 1.0))
    cyl = Cylinder(1.0, 1.0)
    got = assert_width_parity(EnvelopeCert(1.0, lower, upper), cyl, 1.0 / 64)
    assert got == (PreconditionError, "delta must be finite, got inf")
    got = assert_width_parity(EnvelopeCert(1.0, spiked, upper), cyl, 1.0 / 64)
    assert got == (CertificateViolationError,
                   "envelope width negative (-0.21875) at (0.515625): certificate inconsistent")


def test_bundled_problems_scan_as_before():
    seen = 0
    for path in sorted(PROBLEMS.glob("*.prob")):
        spec = load_problem(str(path))
        step = spec.grid_step
        if spec.envelope is not None:
            assert_width_parity(spec.envelope, spec.cylinder, step)
            seen += 1
        if spec.tolerance is not None:
            assert_tolerance_parity(spec.tolerance, step)
            assert_tolerance_parity(dataclasses.replace(spec.tolerance), step)
            seen += 1
    assert seen >= 2


def test_signed_zero_values_give_a_positive_zero_delta():
    cyl = Cylinder(1.0, 1.0)
    for dim in (1, 2):
        zero, neg_zero = Func.constant(0.0, dim=dim), Func.constant(-0.0, dim=dim)
        got = assert_width_parity(EnvelopeCert(1.0, zero, neg_zero), cyl, 0.25)
        assert got[1] == "0x0.0p+0"
        for eta in (neg_zero, Func(lambda p: -0.0, dim=dim)):
            assert assert_tolerance_parity(ToleranceField(eta, cyl), 0.25)[1] == "0x0.0p+0"
