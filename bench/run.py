"""epigauge benchmark: one seeded workload through ``epigauge.cli.main``.

    python3 bench/run.py --workload certify-2d --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` and nothing is installed.  Each sample is a fresh
interpreter (``child.py``) running one CLI command; samples run one after
another (a closed loop with one client) until ``--seconds`` have passed.
Every output is checked against the invariants in ``workloads.check``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run that alternates untraced and traced samples.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 2 without a result when the checkout has no
program to measure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"      # generated problem files and span dumps
HARD_LIMIT_S = 170.0        # a run never lasts longer than this
MIN_SAMPLES = 3             # per kind of sample, even past --seconds

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("wall_ref", "ratio", "lower"),
    ("setup_s", "s", "lower"),
    ("pts_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

FAMILIES = ("quadratic", "constant", "affine", "bump", "clamp_shift", "scale", "sum")

# Per-layer metric -> (unit, better).  Span-based times are 0 on a workload
# whose command never enters that call; bench/README.md lists, for each
# metric, the end-to-end metric and workload it should move.
PER_LAYER = {
    "core.point_new_ns": ("ns", "lower"),
    **{f"core.eval_ns.{f}": ("ns", "lower") for f in FAMILIES},
    "oracle.grid_points_ns_per_pt": ("ns/pt", "lower"),
    "oracle.grid_points_count": ("count", "lower"),
    "oracle.grid_cube_count": ("count", "lower"),
    "oracle.ball_accept_ratio": ("ratio", "higher"),
    "oracle.grid_gauge_s": ("s", "lower"),
    "oracle.grid_gauge_ns_per_cell": ("ns/cell", "lower"),
    "oracle.grid_sup_abs_diff_s": ("s", "lower"),
    "oracle.grid_sup_abs_diff_ns_per_pt": ("ns/pt", "lower"),
    "oracle.grid_argmin_s": ("s", "lower"),
    "oracle.grid_argmin_ns_per_pt": ("ns/pt", "lower"),
    "oracle.argmin_ties": ("count", "lower"),
    "oracle.pool_speedup": ("ratio", "higher"),
    "oracle.pool_serial_s": ("s", "lower"),
    "oracle.pool_threads_s": ("s", "lower"),
    "oracle.self_s": ("s", "lower"),
    "certificates.tolerance_scan_s": ("s", "lower"),
    "certificates.tolerance_ns_per_cell": ("ns/cell", "lower"),
    "certificates.local_cert_validate_s": ("s", "lower"),
    "certificates.cover_package_s": ("s", "lower"),
    "certificates.cover_width_s": ("s", "lower"),
    "certificates.cover_width_ns_per_pt": ("ns/pt", "lower"),
    "certificates.cover_active_mean": ("count", "lower"),
    "certificates.self_s": ("s", "lower"),
    "stability.displacement_bound_s": ("s", "lower"),
    "stability.self_s": ("s", "lower"),
    "constructions.sharpness_sweep_s": ("s", "lower"),
    "constructions.sweep_ns_per_pt": ("ns/pt", "lower"),
    "constructions.self_s": ("s", "lower"),
    "cli.load_problem_s": ("s", "lower"),
    "cli.output_bytes": ("B", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# (metric stem, span name, per-cell metric or None): ``<stem>_s`` is the
# summed span time, and the per-cell metric divides it by the summed cells.
SPAN_METRICS = (
    ("oracle.grid_gauge", "oracle.grid_gauge", "oracle.grid_gauge_ns_per_cell"),
    ("oracle.grid_sup_abs_diff", "oracle.grid_sup_abs_diff",
     "oracle.grid_sup_abs_diff_ns_per_pt"),
    ("oracle.grid_argmin", "oracle.grid_argmin", "oracle.grid_argmin_ns_per_pt"),
    ("certificates.tolerance_scan", "certificates.gauge_from_tolerance_field",
     "certificates.tolerance_ns_per_cell"),
    ("certificates.local_cert_validate", "certificates.LocalCert", None),
    ("certificates.cover_package", "certificates.to_envelope_cert", None),
    ("certificates.cover_width", "certificates.envelope_width_bound",
     "certificates.cover_width_ns_per_pt"),
    ("stability.displacement_bound", "stability.displacement_bound", None),
    ("constructions.sharpness_sweep", "constructions.sharpness_sweep",
     "constructions.sweep_ns_per_pt"),
    ("cli.load_problem", "cli.load_problem", None),
)


class SetupError(Exception):
    """The checkout cannot be measured (no program, or the wrong one)."""


# ---------------------------------------------------------------------------
# Machine and program identity
# ---------------------------------------------------------------------------


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# Samples
# ---------------------------------------------------------------------------


def run_child(req: dict, timeout: float) -> tuple[dict | None, str]:
    """One fresh-interpreter sample: ``(result, why)``; ``result`` is None
    when the child did not produce one, and ``why`` says why."""
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py"), json.dumps(req)],
                              capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"sample timed out after {timeout:.0f} s"
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    if "error" in result:
        raise SetupError(result["error"])
    return result, ""


def sample_loop(w: workloads.Workload, spec: Path | None, seconds: float, cycle: tuple,
                threads: int, run_id: str) -> tuple[dict, int, list[str], list[str]]:
    """Samples in the order of ``cycle`` (repeated) until ``seconds`` have
    passed and every mode has MIN_SAMPLES samples.  Returns the results by
    mode, the number of CLI operations attempted, the failed operations and
    the failed set-up probes (which are not CLI operations)."""
    argv = [str(spec) if a == "{spec}" else a for a in w.argv]
    done: dict[str, list[dict]] = {mode: [] for mode in cycle}
    failures: list[str] = []
    setup_failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    for i in itertools.count():
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_LIMIT_S - 10.0 or (
                elapsed >= seconds and all(len(v) >= MIN_SAMPLES for v in done.values())):
            break
        mode = cycle[i % len(cycle)]
        req = {"root": str(ROOT), "mode": mode, "argv": argv,
               "spec": str(spec) if spec else None, "run": f"{run_id}-{i}",
               "lattice": list(w.lattice), "probe": w.facts["probe"], "threads": threads}
        result, why = run_child(req, HARD_LIMIT_S - elapsed)
        if mode != "setup":
            attempted += 1
            errors = [why] if result is None else workloads.check(w, result["exit"],
                                                                  result["stdout"])
            if errors:
                detail = (result or {}).get("stderr", "").strip()
                failures.append("; ".join(errors) + (f" [{detail}]" if detail else ""))
        elif result is None:
            setup_failures.append(why)
        if result is not None:
            done[mode].append(result)
    return done, attempted, failures, setup_failures


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(w: workloads.Workload, plain: list[dict],
               setup: list[dict]) -> dict[str, tuple[float, str]]:
    wall = [r["wall_s"] for r in plain]
    med = statistics.median(wall)
    q1, _, q3 = statistics.quantiles(wall, n=4) if len(wall) > 1 else wall * 3
    ref = statistics.median(t for r in plain for t in r["ref_s"])
    return {
        "wall_s": (med, f"median of {len(wall)} samples; p25 {q1:.4f}, p75 {q3:.4f}"),
        "wall_ref": (med / ref, f"median wall_s / median reference loop time ({ref:.4f} s, "
                                f"{2 * len(plain)} timings in the command samples)"),
        "setup_s": (statistics.median(r["setup_s"] for r in setup),
                    f"median of {len(setup)} fresh interpreters (import + load_problem)"),
        "pts_per_s": (w.cells / med, f"{w.cells} lattice cells per command / median wall_s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in plain),
                        "median over sample processes"),
    }


def layer_metrics(sample: dict) -> dict[str, float]:
    """Per-layer metrics of one traced sample."""
    sp = sample["spans"]
    root = next(s for s in sp if s["parent"] is None)
    out = dict(sample["probes"])
    for stem, span_name, per_cell in SPAN_METRICS:
        mine = [s for s in sp if s["name"] == span_name]
        secs = sum((s["end"] - s["start"] for s in mine), 0.0)
        out[f"{stem}_s"] = secs
        if per_cell:
            cells = sum(s.get("cells", 0) for s in mine)
            out[per_cell] = secs / cells * 1e9 if cells else 0.0
    out["oracle.argmin_ties"] = sum(s.get("ties", 0) for s in sp)
    own = spans.self_times(sp)
    for layer in ("oracle", "certificates", "stability", "constructions"):
        out[f"{layer}.self_s"] = sum((own[s["id"]] for s in sp
                                      if s["name"].startswith(layer + ".")), 0.0)
    out["cli.output_bytes"] = len(sample["stdout"].encode())
    out["_root_s"] = root["end"] - root["start"]
    out["_children_s"] = sum(s["end"] - s["start"] for s in sp if s["parent"] == root["id"])
    return out


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    rows = [layer_metrics(s) for s in traced]
    med = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    wall = statistics.median(r["wall_s"] for r in plain)
    med["cli.self_s"] = wall - med["_children_s"]
    med["trace.overhead_s"] = med["_root_s"] - wall
    note = f"median of {len(traced)} traced samples"
    out = {name: (med[name], note) for name in PER_LAYER}
    out["cli.self_s"] = (med["cli.self_s"], "derived: untraced wall_s minus summed traced spans")
    out["trace.overhead_s"] = (med["trace.overhead_s"], "traced minus untraced wall")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "epigauge" / "__init__.py").is_file():
        print(f"bench: no program to measure: {ROOT / 'src' / 'epigauge'} is missing",
              file=sys.stderr)
        return 2
    # The demo's --threads never exceeds the CPUs this machine has.
    threads = min(2, os.cpu_count() or 1)
    w = workloads.make(args.workload, args.seed, threads)
    spec = None
    if w.problem is not None:
        WORK.mkdir(exist_ok=True)
        spec = WORK / f"{w.name}-{args.seed}.prob"
        spec.write_text(w.problem, encoding="utf-8")
    run_id = f"{w.name}-{args.seed}-{'traced' if args.trace else 'plain'}"
    # Set-up probes are a quarter of an end-to-end run's samples, spread
    # over it like the command samples, so slow drift hits both alike.
    cycle = ("plain", "traced") if args.trace else ("setup", "plain", "plain", "plain")
    try:
        done, attempted, failures, setup_failures = sample_loop(
            w, spec, args.seconds, cycle, threads, run_id)
    except SetupError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2
    if not all(done.values()):
        why = "; ".join((failures + setup_failures)[:3])
        print(f"bench: a kind of sample never completed ({why})", file=sys.stderr)
        return 1
    plain = done["plain"]

    first = plain[0]
    print(f"bench: workload={w.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}; closed loop, one client, one fresh interpreter per sample")
    print(f"machine: nproc={os.cpu_count()} cpu={cpu_model()!r} "
          f"python={platform.python_version()} numpy={first['numpy']}; no bandwidth metric "
          f"is taken because the kernels are interpreter-bound")
    print(f"program: {first['epigauge_file']} at commit {git_commit(ROOT)}")
    print(f"command: epigauge {' '.join(str(spec) if a == '{spec}' else a for a in w.argv)}; "
          f"{w.cells} lattice cells")
    if args.trace:
        metrics = per_layer(plain, done["traced"])
        units = {k: v[0] for k, v in PER_LAYER.items()}
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{run_id}.jsonl", "w", encoding="utf-8") as fh:
            for s in done["traced"]:
                for rec in s["spans"]:
                    fh.write(json.dumps(rec) + "\n")
    else:
        metrics = end_to_end(w, plain, done["setup"])
        units = {name: unit for name, unit, _ in END_TO_END}
    for name, (value, note) in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]:<8} {note}")
    failed = len(failures)
    print(f"  {'ops_failed_ratio':<40} {failed / attempted:>16.6g} {'ratio':<8} "
          f"{failed} failed of {attempted} attempted")
    for f in failures:
        print(f"  failed: {f}")
    for f in setup_failures:
        print(f"  failed set-up probe: {f}")
    print(json.dumps({
        "correct": not failures and not setup_failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
