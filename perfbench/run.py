#!/usr/bin/env python3
"""Benchmark of the cvbell package: one seeded workload per run.

    python3 perfbench/run.py --workload point --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  A run measures set-up time (fresh interpreters importing
`cvbell` and `cvbell.cli`), then runs ops of the workload in a closed loop
for `--seconds`, checking every output.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:

    setup_s          fastest of 8 fresh `import cvbell, cvbell.cli` processes
    peak_rss_mb      peak resident set of the benchmark process
    op_best_ms       fastest headline call of the run
    work_best_per_s  work units per second of the work calls, over the
                     fastest window of consecutive ops that spends at
                     least `WINDOW_S` seconds in them

The timings are best-of-run rather than medians because the machines this
was written on share their cores: medians of the same code moved by up to
1.8x over minutes, while the fastest call of a run stayed within a few
percent.  The window keeps every kind of op in the throughput, where the
fastest single call sees only the cheapest inputs.  The medians and other
percentiles are in the readable lines.

With `--trace 1` every other op runs under `tracing.Tracer`, and the
metrics are the per-layer ones: calls and self time per traced op of each
traced function, health counts, accuracy maxima and the tracing overhead.
The spans are written to `.bench_out/spans-<workload>.tsv` and the full
result of every run to `.bench_out/<workload>-seed<seed>-trace<t>.json`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 8
#: seconds of work-call time a `work_best_per_s` window covers at least
WINDOW_S = 0.5
#: failures whose traceback is printed to standard error, per run
SHOWN_FAILURES = 3


def load_program() -> None:
    """Put the checkout's `src/` first on the path and import cvbell."""
    if not (SRC / "cvbell" / "__init__.py").is_file():
        sys.exit(f"perfbench: no cvbell package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cvbell
    if SRC not in Path(cvbell.__file__).resolve().parents:
        sys.exit(f"perfbench: imported cvbell from {cvbell.__file__}, "
                 f"not from {SRC}")


def measure_setup(runs: int) -> float:
    """Least wall time of fresh interpreters importing cvbell and its CLI."""
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import cvbell, cvbell.cli")
    command = [sys.executable, "-c", code]
    subprocess.run(command, check=True, cwd=ROOT)  # writes the bytecode caches
    times = []
    for _ in range(runs):
        start = perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        times.append(perf_counter() - start)
    return min(times)


def best_window_rate(ops: list, window: float) -> float:
    """Highest units per second over runs of consecutive ops.

    `ops` holds (seconds, units) per op.  Each run is the shortest one
    ending at an op whose seconds add up to at least `window`; when the
    whole list is shorter than that, its overall rate is returned.
    """
    rates = []
    seconds = units = 0.0
    start = 0
    for op_seconds, op_units in ops:
        seconds += op_seconds
        units += op_units
        while seconds - ops[start][0] >= window:
            seconds -= ops[start][0]
            units -= ops[start][1]
            start += 1
        if seconds >= window:
            rates.append(units / seconds)
    if not rates and seconds > 0:
        rates.append(units / seconds)
    return max(rates, default=float("nan"))


def _blas_info() -> dict:
    """BLAS library of numpy and the thread count it reports."""
    import ctypes

    import numpy as np

    info = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as handle:
        libraries = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower()})
    for library in libraries:
        lib = ctypes.CDLL(library)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = getter()
                return info
    return info


def _commit() -> str:
    """Commit of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(load_average: tuple) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "cvbell").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": _blas_info(), "commit": _commit(),
            "src_sha256": digest.hexdigest()[:16],
            "loadavg_at_start": load_average}


class WarningCounter:
    """Counts warnings instead of printing them."""

    def __init__(self):
        self.total = 0
        self.mass = 0

    def show(self, message, category, filename, lineno, file=None, line=None):
        self.total += 1
        if "quadrature mass" in str(message):
            self.mass += 1


def _clamp_count() -> int:
    from cvbell import bell
    counter = getattr(bell, "clamp_count", None)
    return int(counter()) if callable(counter) else 0


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes=None, setup_runs: int = SETUP_RUNS) -> dict:
    """Run one workload and return the full result (see `main` for output)."""
    import tracing
    import workloads
    from cvbell import errors

    load_average = os.getloadavg()
    workload = workloads.WORKLOADS[name](sizes or workloads.FULL)
    # a traced run reports no end-to-end metric, so it skips the set-up
    setup_s = float("nan") if trace else measure_setup(setup_runs)
    tracer = tracing.Tracer() if trace else None

    calls = {}             # call key -> wall times of measured ops
    overhead = {True: [], False: []}  # traced? -> headline wall times
    accuracy = {}
    work_units = work_seconds = 0.0
    work_ops = []          # (work-call seconds, work units) per measured op
    attempted = failed = refused = traced_ops = 0
    failures = []
    warning_counter = WarningCounter()
    clamps_before = _clamp_count()

    def run_op(index: int, inp: dict, measured: bool) -> None:
        nonlocal attempted, failed, refused, traced_ops
        nonlocal work_units, work_seconds
        attempted += 1
        traced = tracer is not None and measured and index % 2 == 0
        timings = {}
        try:
            if traced:
                traced_ops += 1
                out = tracer.run(index, workload.execute, inp, timings)
            else:
                out = workload.execute(inp, timings)
            problems = workload.verify(inp, out, accuracy)
        except errors.CVBellError as exc:
            if workload.refused(inp, exc):
                refused += 1
                return
            problems = [traceback.format_exc()]
        except Exception:  # an op that breaks is a failed op, not a crash
            problems = [traceback.format_exc()]
        if problems:
            failed += 1
            failures.append(f"op {index}: " + "; ".join(problems))
            return
        if not measured:
            return
        for key, value in timings.items():
            calls.setdefault(key, []).append(value)
        if workload.headline in timings and tracer is not None:
            overhead[traced].append(timings[workload.headline])
        if all(key in timings for key in workload.work_calls):
            work_ops.append((sum(timings[key] for key in workload.work_calls),
                             workload.units(inp)))
            work_seconds += work_ops[-1][0]
            work_units += work_ops[-1][1]

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = warning_counter.show
        inputs = workload.inputs(seed)
        index = 0
        for _ in range(workload.warmup_ops):
            run_op(index, next(inputs), measured=False)
            index += 1
        deadline = perf_counter() + seconds
        while True:
            run_op(index, next(inputs), measured=True)
            index += 1
            if perf_counter() >= deadline:
                break

    headline = calls.get(workload.headline, [])
    work_per_s = work_units / work_seconds if work_seconds else float("nan")
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "op_best_ms": (1e3 * min(headline, default=float("nan")), "ms"),
        "work_best_per_s": (best_window_rate(work_ops, WINDOW_S), "1/s"),
    }
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(load_average),
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "refused": refused,
        "report": {"failed_ratio": (failed / attempted, "ratio"),
                   "refused_ratio": (refused / attempted, "ratio"),
                   **workload.report(calls, work_per_s)},
        "calls": {key: {"n": len(values),
                        "min_ms": 1e3 * min(values),
                        "p10_ms": 1e3 * workloads.percentile(values, 10),
                        "mean_ms": 1e3 * sum(values) / len(values),
                        "p50_ms": 1e3 * workloads.percentile(values, 50),
                        "p90_ms": 1e3 * workloads.percentile(values, 90)
                        if len(values) >= 100 else None}
                  for key, values in sorted(calls.items())},
        "baseline": [(label, 1e3 * base, 1e3 * scale
                      * min(calls.get(key, []), default=float("nan")))
                     for label, base, key, scale in workload.baseline()],
        "failures": failures,
        "metrics": end_to_end,
    }
    if tracer is not None:
        result["metrics"] = per_layer(tracer, traced_ops, attempted, failed,
                                      refused, accuracy, overhead,
                                      warning_counter,
                                      _clamp_count() - clamps_before)
        result["absent"] = tracer.absent
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}.tsv")
    return result


def per_layer(tracer, traced_ops, attempted, failed, refused, accuracy,
              overhead, warning_counter, clamps) -> dict:
    """Per-layer metrics of a traced run; per-op values are per traced op."""
    import tracing
    import workloads

    ops = max(traced_ops, 1)
    metrics = {}
    for name in tracing.TRACED:
        metrics[f"{name}.calls"] = (tracer.calls.get(name, 0) / ops, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / ops, "s")
    untraced = workloads.percentile(overhead[False], 50)
    traced = workloads.percentile(overhead[True], 50)
    rates = tracer.accept_rates
    metrics.update({
        "ops.failed_ratio": (failed / attempted, "ratio"),
        "ops.refused_ratio": (refused / attempted, "ratio"),
        "bell.clamp_count": (float(clamps), "count"),
        "montecarlo.accept_rate": (sum(rates) / len(rates) if rates else 0.0,
                                   "ratio"),
        "montecarlo.events": (tracer.events / ops, "count"),
        "fock.density_bytes": (tracer.density_bytes / ops, "bytes"),
        "fock.mass_warnings": (float(warning_counter.mass), "count"),
        "python.warnings": (float(warning_counter.total), "count"),
        "bell.quadrature_dE_max": (accuracy.get("bell.quadrature_dE_max", 0.0),
                                   "1"),
        "bell.quadrature_dE_max_corner":
            (accuracy.get("bell.quadrature_dE_max_corner", 0.0), "1"),
        "fock.closed_form_dE_max":
            (accuracy.get("fock.closed_form_dE_max", 0.0), "1"),
        "montecarlo.z_max": (accuracy.get("montecarlo.z_max", 0.0), "sigma"),
        "trace.untraced_p50_ms": (1e3 * untraced, "ms"),
        "trace.traced_p50_ms": (1e3 * traced, "ms"),
        "trace.overhead": (traced / untraced, "ratio"),
        "trace.ops": (float(traced_ops), "count"),
        "trace.absent": (float(len(tracer.absent)), "count"),
    })
    return metrics


def print_result(result: dict) -> None:
    """Readable lines, then the one-line JSON result as the last line."""
    print(f"perfbench {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={int(result['trace'])} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"refused={result['refused']}")
    print("environment " + json.dumps(result["environment"]))
    for name, (value, unit) in result["report"].items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    columns = ("min_ms", "p10_ms", "mean_ms", "p50_ms", "p90_ms")
    print(f"  {'call':28s} {'n':>6s}" + "".join(f"{c:>12s}" for c in columns))
    for key, row in result["calls"].items():
        print(f"  {key:28s} {row['n']:6d}" + "".join(
            f"{row[c]:12.4f}" if row[c] is not None else f"{'-':>12s}"
            for c in columns))
    if result["trace"]:
        print(f"  ROADMAP baseline, per call: {'what':36s} "
              f"{'baseline_ms':>12s} {'best_ms':>12s} {'ratio':>7s}")
        for label, base_ms, measured_ms in result["baseline"]:
            print(f"  {'':28s}{label:36s} {base_ms:12.2f} {measured_ms:12.2f} "
                  f"{measured_ms / base_ms:7.2f}")
        if result["absent"]:
            print("  absent traced functions: " + ", ".join(result["absent"]))
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:44s} {value:16.8g} {unit}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    load_program()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for failure in result["failures"][:SHOWN_FAILURES]:
        print(failure, file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    missing = [name for name, (value, _) in result["metrics"].items()
               if not math.isfinite(value)]
    if missing:
        sys.exit(f"perfbench: no value measured for {', '.join(missing)}")
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
