"""One benchmark sample, run in a fresh interpreter by ``run.py``.

    python3 bench/child.py REQUEST_JSON

Imports ``epigauge`` from the checkout's ``src/`` and refuses any other
copy.  Then, by ``"mode"``:

- ``setup``: times the import plus ``load_problem`` of the workload's spec;
- ``plain``: times ``epigauge.cli.main(argv)`` after the import, with its
  output captured, and a fixed reference loop just before and after it;
- ``traced``: the same command with spans around the calls that cross a
  module boundary (the wrappers live here, nothing in ``src/`` changes),
  followed by probes that time ``core`` and ``oracle`` functions directly
  on the workload's lattice.

Prints one JSON object.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from spans import Tracer

PROBE_POINTS = 20000  # lattice points the core probes evaluate at
REF_ITERS = 1_000_000  # iterations of the reference loop, about 0.07 s


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _points(grid) -> int:
    return workloads.lattice_size(grid.dim, grid.radius, grid.step)[1]


def _cells(count):
    """Span annotation recording ``count(args, kwargs, result)`` cells."""
    def annotate(span, args, kwargs, result):
        span["cells"] = count(args, kwargs, result)
    return annotate


def _argmin(span, args, kwargs, result):
    span["cells"] = _points(_arg(args, kwargs, 1, "grid"))
    span["ties"] = len(result.points)


def install_spans(tracer: Tracer):
    """Wrap every cross-module call the CLI pipelines make into a layer's
    public API, at the importing module's binding.  A binding the program
    no longer has is skipped, so its metrics read 0.  Returns a function
    that puts the original bindings back."""
    from epigauge import certificates, cli, constructions

    def tolerance(args, kwargs, result):
        tf, step_x, step_t = args[:3]
        return (workloads.lattice_size(tf.dim, tf.cylinder.R, step_x)[1]
                * workloads.level_count(tf.cylinder.M, step_t))

    targets = (
        (cli, "load_problem", "cli.load_problem", None),
        (cli, "LocalCert", "certificates.LocalCert", None),
        (certificates.AggregatedEnvelope, "to_envelope_cert", "certificates.to_envelope_cert",
         None),
        (cli, "envelope_width_bound", "certificates.envelope_width_bound",
         _cells(lambda a, k, r: workloads.lattice_size(a[0].dim, a[1].R, a[2])[1])),
        (cli, "gauge_from_tolerance_field", "certificates.gauge_from_tolerance_field",
         _cells(tolerance)),
        (cli, "sharpness_sweep", "constructions.sharpness_sweep",
         _cells(lambda a, k, r: len(r.rows) * workloads.lattice_size(1, r.radius,
                                                                     r.grid_step)[1])),
        (cli, "grid_gauge", "oracle.grid_gauge",
         _cells(lambda a, k, r: _points(_arg(a, k, 2, "grid"))
                * len(_arg(a, k, 3, "lgrid").values))),
        (cli, "grid_sup_abs_diff", "oracle.grid_sup_abs_diff",
         _cells(lambda a, k, r: _points(_arg(a, k, 2, "grid")))),
        (cli, "grid_argmin", "oracle.grid_argmin", _argmin),
        (constructions, "grid_argmin", "oracle.grid_argmin", _argmin),
        (cli, "displacement_bound", "stability.displacement_bound", None),
        (cli, "value_gap_from_gauge", "stability.value_gap_from_gauge", None),
    )
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in targets
                 if hasattr(owner, attr)]
    for owner, attr, name, annotate in targets:
        if hasattr(owner, attr):
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), annotate))

    def restore() -> None:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
    return restore


def reference_s() -> float:
    """Time of a fixed pure-Python loop: the host's speed at this moment."""
    t = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        acc += i * 0.5
    return time.perf_counter() - t


def _per_call_ns(fn, items) -> float:
    t = time.perf_counter()
    for x in items:
        fn(x)
    return (time.perf_counter() - t) / len(items) * 1e9


def probes(req: dict, spec) -> dict:
    """Direct timings of ``core`` and ``oracle`` public functions on the
    workload's main lattice."""
    from epigauge import Func, Grid, Point, aggregate_cover, grid_argmin

    dim, radius, step = req["lattice"]
    p = req["probe"]
    out: dict[str, float] = {}
    grid = Grid(dim, radius, step)
    t = time.perf_counter()
    points = list(grid.points())
    out["oracle.grid_points_ns_per_pt"] = (time.perf_counter() - t) / len(points) * 1e9
    out["oracle.grid_points_count"] = len(points)
    out["oracle.grid_cube_count"] = grid.cube_size()
    out["oracle.ball_accept_ratio"] = len(points) / grid.cube_size()

    sample = points[::max(1, len(points) // PROBE_POINTS)]
    coords = [q.coords for q in sample]
    out["core.point_new_ns"] = _per_call_ns(Point, coords)
    quad = Func.quadratic(p["coeff"], dim=dim)
    bump = Func.bump(Point(tuple(p["center"])), p["rho"], p["amp"])
    families = {
        "quadratic": quad,
        "constant": Func.constant(p["shift"], dim=dim),
        "affine": Func.affine((p["coeff"],) * dim, p["shift"]),
        "bump": bump,
        "clamp_shift": Func.clamp_shift(quad, p["shift"]),
        "scale": Func.scaled(quad, 2.0),
        "sum": Func.sum_of(quad, bump),
    }
    for name, f in families.items():
        out[f"core.eval_ns.{name}"] = _per_call_ns(f, sample)

    # Same grid_argmin serially and on the pool (the width the workload uses).
    times = {}
    for threads in (1, req["threads"]):
        t = time.perf_counter()
        grid_argmin(families["clamp_shift"], grid, threads=threads)
        times[threads] = time.perf_counter() - t
    out["oracle.pool_serial_s"] = times[1]
    out["oracle.pool_threads_s"] = times[req["threads"]]
    out["oracle.pool_speedup"] = times[1] / times[req["threads"]]

    active = 0.0
    if spec is not None and spec.cover is not None:
        agg = aggregate_cover(spec.cover)
        active = sum(len(agg.active(q)) for q in points) / len(points)
    out["certificates.cover_active_mean"] = active
    return out


def main() -> int:
    req = json.loads(sys.argv[1])
    root = Path(req["root"])
    t0 = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    try:
        import epigauge
        from epigauge import cli
    except ImportError as e:
        print(json.dumps({"error": f"cannot import epigauge from {root / 'src'}: {e}"}))
        return 3
    loaded = Path(epigauge.__file__).resolve().parent
    if loaded != (root / "src" / "epigauge").resolve():
        print(json.dumps({"error": f"imported epigauge from {loaded}, not from the checkout"}))
        return 3
    result = {"epigauge_file": epigauge.__file__, "numpy": sys.modules["numpy"].__version__}

    if req["mode"] == "setup":
        if req["spec"]:
            cli.load_problem(req["spec"])
        result["setup_s"] = time.perf_counter() - t0
        print(json.dumps(result))
        return 0

    tracer = Tracer(req["run"]) if req["mode"] == "traced" else None
    if tracer is not None:
        restore = install_spans(tracer)
    out, err = io.StringIO(), io.StringIO()
    ref_before = reference_s()
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            code = cli.main(req["argv"])
        else:
            with tracer.span("cli.main"):
                code = cli.main(req["argv"])
    wall_s = time.perf_counter() - t1
    result.update(wall_s=wall_s, ref_s=[ref_before, reference_s()],
                  exit=code, stdout=out.getvalue(),
                  stderr=err.getvalue(),
                  rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if tracer is not None:
        restore()
        result["spans"] = tracer.spans
        spec = cli.load_problem(req["spec"]) if req["spec"] else None
        result["probes"] = probes(req, spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
