"""One workload in a fresh interpreter; started by run.py.

Imports spindj from ``src/`` of the current directory, warms up every
path (diagonal, dense, pseudo-pure, sweep) and prints ``ready``. Unless
``--setup-only`` is given it then runs whole passes of the workload
through ``spindj.cli.main`` until ``--seconds`` have elapsed, gates each
invocation, and prints one JSON line with the raw measurements.

With ``--trace 1`` the passes are split in two halves: untraced, then
traced with every layer wrapped; the spans are written to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import COUNTERS, SPAN_NAMES, Tracer, self_times

# Small invocations that load and exercise every code path once, so the
# timed passes pay no import, first-call or BLAS start-up cost.
WARM_UP = (
    ["run", "--n", "3", "--oracle", "constant0"],
    ["run", "--n", "6", "--oracle", "balanced-random", "--seed", "1", "--backend", "both",
     "--detection", "separate", "--thermal-p", "1e-5"],
    ["sweep", "--n", "1..2", "--trials", "2", "--seed", "1"],
)


def invoke(cli, argv: list[str]) -> tuple[object, str, float]:
    """Run one CLI invocation in-process: (exit code, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:  # a traceback is a failed invocation, not a benchmark crash
        traceback.print_exc()
        code = "uncaught exception"
    return code, out.getvalue(), time.perf_counter() - start


def run_passes(cli, workload: str, rng: random.Random, seconds: float, tiny: bool) -> dict:
    """Whole passes while another one fits in ``seconds`` (at least one)."""
    result = {"latencies_s": [], "pass_walls_s": [], "protocol_runs": 0,
              "failed": 0, "errors": [], "contradictions": []}
    walls = result["pass_walls_s"]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + walls[-1] <= seconds:
        wall = 0.0
        for inv in workloads.make_pass(workload, rng, tiny):
            argv = inv.argv()
            code, output, elapsed = invoke(cli, argv)
            errors, contradictions = workloads.check(inv, code, output)
            wall += elapsed
            result["latencies_s"].append(elapsed)
            result["protocol_runs"] += len(inv.protocols)
            result["failed"] += bool(errors or contradictions)
            result["errors"] += [f"{' '.join(argv)}: {e}" for e in errors]
            result["contradictions"] += [f"{' '.join(argv)}: {c}" for c in contradictions]
        walls.append(wall)
    return result


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass self time (ms) and calls of every span name, plus counters."""
    times = self_times(tracer.names, tracer.name_id, tracer.start, tracer.end, tracer.parent)
    metrics = {}
    for name in SPAN_NAMES:
        self_s, calls = times.get(name, (0.0, 0))
        metrics[f"{name}.self_ms"] = self_s * 1e3 / passes
        metrics[f"{name}.calls"] = calls / passes
    for name in COUNTERS:
        value = tracer.counters[name]
        metrics[name] = value if name.endswith(".max") else value / passes
    return metrics


def _read_first(path: str, prefix: str) -> str | None:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    with contextlib.suppress(OSError, StopIteration):
        with open("/proc/self/maps") as maps:
            path = next(line.split()[-1] for line in maps if "openblas" in line.lower())
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    mem_kib = _read_first("/proc/meminfo", "MemTotal")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mib": int(mem_kib.split()[0]) // 1024 if mem_kib else None,
        "cpu_model": _read_first("/proc/cpuinfo", "model name"),
        "workload_seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where --trace 1 writes the spans (gzip'd TSV)")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import spindj
    from spindj import cli

    if Path(spindj.__file__).resolve().parent != (src / "spindj").resolve():
        print(f"spindj imported from {spindj.__file__}, not from {src}", file=sys.stderr)
        return 2
    for argv in WARM_UP:
        code, _, _ = invoke(cli, argv)
        if code != 0:
            print(f"warm-up {' '.join(argv)} exited {code}", file=sys.stderr)
            return 2
    print("ready", flush=True)
    if args.setup_only:
        return 0

    # The first call at each full size pays one-off costs (allocator growth,
    # BLAS buffers) that later calls in the same process do not.
    for inv in workloads.shapes(args.workload, args.tiny):
        invoke(cli, inv.argv())
    rng = random.Random(args.seed)
    report = {"environment": environment(args.seed)}
    if not args.trace:
        report["untraced"] = run_passes(cli, args.workload, rng, args.seconds, args.tiny)
        report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        report["untraced"] = run_passes(cli, args.workload, rng, args.seconds / 2, args.tiny)
        tracer = Tracer()
        tracer.install(spindj)
        try:
            traced = run_passes(cli, args.workload, rng, args.seconds / 2, args.tiny)
        finally:
            tracer.uninstall()
        passes = len(traced["pass_walls_s"])
        traced["layers"] = layer_metrics(tracer, passes)
        traced["layers"]["trace.overhead_s"] = statistics.median(traced["pass_walls_s"]) - (
            statistics.median(report["untraced"]["pass_walls_s"])
        )
        report["traced"] = traced
        if args.spans:
            tracer.write_tsv(args.spans)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
