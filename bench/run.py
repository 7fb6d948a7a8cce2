"""contactrel benchmark: four workloads through the public API.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

BENCHMARK.json lists gas-flat and verify-all.  gas-curved and single-suite
run the same way but are left out of it: on a shared 2-vCPU host their best
samples spread by 0.2-0.3 of the median between runs of 18-24 s, wider than
the benchmark's bounds, because their many small NumPy calls slow down most
when a neighbour loads the host.  Compare them by hand with paired runs.

Closed loop, one client, one process per workload (verify-all adds one
fresh child interpreter per job).  With ``--trace 0`` the run repeats the
workload's job while one more repetition would end within ``--seconds`` (at
least once), times a round of set-ups before each job and after the last,
gates every output, and prints the end-to-end metrics: the best (lowest) job
wall and CPU time and the best set-up time of the run.  The best sample, not
the median, because a shared host runs in slow phases: on a 2-vCPU virtual
machine each vCPU ran 1.3-1.9x slower for tens of seconds at a time, so a
run's median lands in either phase, while its best sample usually comes from
a fast one.  The medians, maxima and sample counts go to the human lines and
the run record.  With ``--trace 1`` it runs the job once untraced, then one
set-up and one job with the layer wrappers of ``tracing.py`` installed, then
the layer probes of ``probes.py``, and prints the per-layer metrics (totals
over the traced set-up and job) and the tracing overhead (traced minus
untraced job wall time).  End-to-end metrics always come from untraced runs.

Byte determinism is a gate between the repetitions of the job in one run:
every output file and every count must repeat.  A run that repeats the job
once (verify-all, and gas-flat when one job takes over half the run) is
covered by its traced run, which always runs the job twice.

The human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  A run record
with the machine and the workload's counts goes to
``.bench_out/<workload>/record.json`` in the checkout.  Exit code: 0 when
every gate passed, 1 when one failed, 2 when the checkout holds no
contactrel source.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
# A round of set-ups times SETUP_ROUND_MIN reps, and more while the round so far
# took under SETUP_ROUND_S, up to SETUP_ROUND_MAX; a round runs before each job
# and after the last, so that the set-ups are spread over the run.
SETUP_ROUND_MIN = 3
SETUP_ROUND_MAX = 200
SETUP_ROUND_S = 2.0
# Every run ends within this many seconds, child processes included.
RUN_LIMIT_S = 170.0
WORKLOAD_NAMES = ("gas-flat", "gas-curved", "single-suite", "verify-all")

END_TO_END_UNITS = {
    "solve_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SECONDS = ("scenario.load_s", "scenario.build_s", "kinetic.sample_s", "kinetic.entropy_s",
            "integrators.self_s", "integrators.resample_s", "geometry.metric_eval.s",
            "geometry.derivatives.s", "output.write_s", "checks.presets_s", "cli.self_s",
            "trace.overhead_s")
_COUNTS = ("kinetic.entropy_calls", "kinetic.marker_steps", "integrators.steps_accepted",
           "integrators.steps_rejected", "integrators.advance_calls",
           "integrators.resample_points", "geometry.metric_eval.calls",
           "geometry.derivatives.calls", "output.rows", "trace.spans")
_BYTES = ("geometry.derivatives.bytes", "output.bytes")


def per_layer_units(check_names) -> dict[str, str]:
    units = {name: "s" for name in _SECONDS}
    units.update({name: "count" for name in _COUNTS})
    units.update({name: "bytes" for name in _BYTES})
    units.update({f"checks.{name}_s": "s" for name in check_names})
    return units


# --- run record ---------------------------------------------------------------------


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    """BLAS library as NumPy was built with it, and its live thread count."""
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    try:
        libs = {line.split()[-1] for line in Path("/proc/self/maps").read_text().splitlines()
                if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine(seed) -> dict:
    import numpy as np

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# --- measurement ----------------------------------------------------------------------


def output_digest(out_dir: Path) -> dict:
    """sha256 of every file under out_dir, keyed by relative path."""
    return {
        str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*")) if p.is_file()
    }


def timed(fn, *args, **kwargs):
    """(result, wall seconds, CPU seconds of this process and its children)."""
    def cpu():
        s = resource.getrusage(resource.RUSAGE_SELF)
        c = resource.getrusage(resource.RUSAGE_CHILDREN)
        return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime
    c0, t0 = cpu(), time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0, cpu() - c0


def _peak_rss_mb(in_child: bool) -> float:
    who = resource.RUSAGE_CHILDREN if in_child else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def _sample(wl, out_dir: Path, **job_kwargs) -> dict:
    res, wall, cpu = timed(wl.job, out_dir, **job_kwargs)
    ops = wl.check(res)
    digest = output_digest(out_dir) if out_dir.exists() else {}
    return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "counts": res.counts, "digest": digest}


def _determinism(samples) -> list:
    """One operation per extra repetition: identical bytes and identical counts."""
    from workloads import Op

    first = samples[0]
    ops = []
    for k, s in enumerate(samples[1:], start=1):
        same = s["digest"] == first["digest"] and s["counts"] == first["counts"]
        ops.append(Op(f"byte-determinism-{k}", same,
                      "" if same else f"repetition {k} differs from repetition 0"))
    return ops


def _setup_round(wl) -> list[float]:
    times = []
    while len(times) < SETUP_ROUND_MIN or (
            sum(times) < SETUP_ROUND_S and len(times) < SETUP_ROUND_MAX):
        times.append(timed(wl.setup)[1])
    return times


def _spread(values) -> dict:
    return {"n": len(values), "min": min(values), "median": statistics.median(values),
            "max": max(values)}


def measure(wl, seconds: float, out_root: Path) -> tuple[dict, list, dict]:
    timed(wl.setup)  # warm-up: imports, compiled bytecode, first allocations
    setups = []
    samples = []
    t_start = time.perf_counter()
    while True:
        k = len(samples)
        setups += _setup_round(wl)
        samples.append(_sample(wl, out_root / f"sample{k}"))
        if k:
            shutil.rmtree(out_root / f"sample{k - 1}", ignore_errors=True)
        if time.perf_counter() - t_start + samples[-1]["wall_s"] > seconds:
            break
    setups += _setup_round(wl)

    walls = [s["wall_s"] for s in samples]
    cpu_times = [s["cpu_s"] for s in samples]
    metrics = {
        "solve_s": min(walls),
        "cpu_s": min(cpu_times),
        "setup_s": min(setups),
        "peak_rss_mb": _peak_rss_mb(wl.in_child),
    }
    ops = [op for s in samples for op in s["ops"]] + _determinism(samples)
    detail = {
        "samples": len(samples),
        "setup_reps": len(setups),
        "spread": {"solve_s": _spread(walls), "cpu_s": _spread(cpu_times),
                   "setup_s": _spread(setups)},
        "wall_s": walls,
        "cpu_s": cpu_times,
        "setup_s": setups,
        "counts": samples[0]["counts"],
    }
    return metrics, ops, detail


def measure_traced(wl, out_root: Path, check_names) -> tuple[dict, list, dict, dict]:
    from probes import probe_metrics
    from tracing import Tracer, layer_metrics, load_spans

    untraced = _sample(wl, out_root / "untraced")
    spans_path = out_root / "spans.npz"
    if wl.in_child:
        traced = _sample(wl, out_root / "traced", spans=spans_path)
        spans = load_spans(spans_path)
    else:
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.span("bench.setup"):
                wl.setup()
            tracer.run_id = 1
            traced = _sample(wl, out_root / "traced")
        finally:
            tracer.uninstall()
        tracer.save(spans_path)
        spans = tracer.arrays()

    metrics = layer_metrics(spans, check_names)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    probes = probe_metrics(out_root / "probes")
    samples = [untraced, traced]
    ops = [op for s in samples for op in s["ops"]] + _determinism(samples)
    detail = {
        "untraced_solve_s": untraced["wall_s"],
        "traced_solve_s": traced["wall_s"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts": untraced["counts"],
    }
    return metrics, ops, detail, probes


# --- entry point -------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description="contactrel benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=None,
                        help="ensemble seed for gas-flat (default 12345, the preset's) "
                             "and gas-curved; the other workloads take fixed inputs")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="repeat the job while it ends within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes; the figures mean nothing")
    parser.add_argument("--perturb", action="store_true",
                        help="negative control: corrupt the gas-curved result, or run "
                             "verify with --perturb-divergence; the gates must fail")
    return parser.parse_args(argv)


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the child clean-up


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "contactrel" / "__init__.py").is_file():
        print(f"bench: no contactrel package under {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from contactrel import checks
    from workloads import DEFAULT_SEEDS, make

    seed = DEFAULT_SEEDS.get(args.workload) if args.seed is None else args.seed
    try:
        wl = make(args.workload, seed, args.tiny, args.perturb, ROOT,
                  deadline=time.monotonic() + RUN_LIMIT_S)
    except ValueError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_root = OUT / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    check_names = [name for name, _ in checks.CHECKS]

    if args.trace:
        values, ops, detail, probes = measure_traced(wl, out_root, check_names)
        units = per_layer_units(check_names)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        metrics.update({name: {"value": v, "unit": u} for name, (v, u) in probes.items()})
    else:
        values, ops, detail = measure(wl, args.seconds, out_root)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    failed = [op for op in ops if not op.passed]
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "tiny": args.tiny,
        "perturb": args.perturb,
        "seconds": args.seconds,
        "machine": machine(seed),
        **detail,
        "error_rate": len(failed) / len(ops),
        "failures": [{"name": op.name, "detail": op.detail} for op in failed],
        "metrics": metrics,
    }
    record_path = out_root / "record.json"
    record_path.write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"record {record_path.relative_to(ROOT)}")
    for key in ("samples", "setup_reps"):
        if key in detail:
            print(f"  {key:<42} {detail[key]}")
    for name, sp in detail.get("spread", {}).items():
        print(f"  {name + ' over the run':<42} min {sp['min']:.6g}  median {sp['median']:.6g}  "
              f"max {sp['max']:.6g}  n {sp['n']}")
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':<42} {record['error_rate']:.6g} ratio "
          f"({len(failed)} failed of {len(ops)})")
    for op in failed:
        print(f"  FAILED {op.name}: {op.detail}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
