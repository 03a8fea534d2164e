"""The package surface: what ``import epigauge`` exports and loads, and the
README's library quick start run against it."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import epigauge

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = ("certificates", "constructions", "core", "errors", "oracle", "stability")

PUBLIC = [
    "AggregatedEnvelope", "ArgminResult", "ArgminSet", "CertificateViolationError",
    "ClosedBall", "ConstructionError", "Cover", "CoverageError", "Cylinder", "DisplacementCert",
    "DomainError", "EnvelopeCert", "EpigaugeError", "EvaluationError", "FinitePointSet", "Func",
    "GaugeBound", "Grid", "GrowthCert", "GrowthFalsificationReport", "ImpossibilityPair",
    "InconsistentCoverError", "LATTICE_CAP", "LevelGrid", "LocalCert",
    "OracleCapError", "Point", "PreconditionError", "Provenance", "SharpnessFamily",
    "SpecParseError", "StrictnessPair", "SweepResult", "SweepRow", "TAU", "ToleranceField",
    "ValueGapResult", "WindowCheck", "__version__", "aggregate_cover",
    "build_impossibility_pair", "build_sharpness_pair", "build_strictness_pair",
    "displacement_bound", "dist_to_set", "envelope_width_bound", "falsify_quadratic_growth",
    "gauge_from_tolerance_field", "gauge_from_value_bound", "grid_argmin", "grid_gauge",
    "grid_sup_abs_diff", "in_closed_ball", "pointwise_discrepancy", "pos_part",
    "sharpness_sweep", "value_gap_from_gauge", "window_check",
]


def test_package_exports_the_pinned_names():
    assert sorted(epigauge.__all__) == PUBLIC
    assert len(epigauge.__all__) == len(PUBLIC)


def test_each_export_is_the_object_its_modules_bind():
    for name in set(PUBLIC) - {"__version__"}:
        homes = [m for m in MODULES if hasattr(getattr(epigauge, m), name)]
        assert homes, name
        for module in homes:
            assert getattr(epigauge, name) is getattr(getattr(epigauge, module), name)


def test_no_name_is_in_two_module_export_lists():
    owners: dict[str, str] = {}
    for module in MODULES:
        for name in getattr(getattr(epigauge, module), "__all__", ()):
            assert name not in owners, f"{name} in {owners[name]} and {module}"
            owners[name] = module


def test_import_loads_and_binds_the_six_library_modules_only():
    # A fresh interpreter: importing epigauge.cli or epigauge.problem, as
    # other tests do, binds them on the package too.
    src = str(Path(epigauge.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = ("import sys, epigauge\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('epigauge.'))))\n"
            "print(' '.join(n for n in dir(epigauge) if not n.startswith('__')))\n")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded, bound = done.stdout.splitlines()
    assert loaded.split() == [f"epigauge.{m}" for m in MODULES]
    assert set(bound.split()) == set(PUBLIC) - {"__version__"} | set(MODULES)


def test_readme_library_quick_start_prints_its_comment():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README quick start", "exec"), {})
    assert out.getvalue() == "0.2 0.202 True\n"
