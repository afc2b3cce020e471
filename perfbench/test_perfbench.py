"""Tests of the benchmark itself.

    python -m pytest perfbench

Every workload runs at a tiny size with all its checks passing, a seed
fixes the op inputs, the tracer copes with a function that is gone, and
the command line keeps the output contract of BENCHMARK.json.
"""

import itertools
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run.load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from cvbell import bell, errors, montecarlo  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCHMARK["per_layer"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_tiny_size_with_checks_passing(name):
    result = run.run_workload(name, seed=3, seconds=0, trace=False,
                              sizes=workloads.TINY, setup_runs=1)
    assert result["failed"] == 0, result["failures"]
    assert result["correct"] and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(math.isfinite(value) and value > 0
               for value, _ in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = run.run_workload("point", seed=3, seconds=0.3, trace=True,
                              sizes=workloads.TINY)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == PER_LAYER
    values = {name: value for name, (value, _) in result["metrics"].items()}
    assert all(math.isfinite(value) for value in values.values())
    assert values["bell.chsh.calls"] == 1.0
    assert values["trace.absent"] == 0.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_op_inputs(name):
    workload = workloads.WORKLOADS[name](workloads.FULL)

    def first(seed):
        return repr(list(itertools.islice(workload.inputs(seed), 50)))

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_point_refusals_repeat_for_a_seed():
    workload = workloads.Point()

    def refusals():
        flags = []
        for inp in itertools.islice(workload.inputs(5), 500):
            try:
                workload.execute(inp, {})
            except errors.InvalidRegimeError:
                assert inp["corner"]
                flags.append(True)
            else:
                flags.append(False)
        return flags

    flags = refusals()
    assert any(flags)
    assert flags == refusals()


def test_best_window_rate_takes_the_fastest_window():
    ops = [(1.0, 1), (0.5, 1), (0.5, 1), (1.0, 1)]
    assert run.best_window_rate(ops, 1.0) == 2.0
    # a run shorter than the window gives its overall rate
    assert run.best_window_rate([(0.25, 1), (0.25, 1)], 1.0) == 4.0


def test_scan_rows_follow_the_cli_grids():
    workload = workloads.Scan(workloads.FULL)
    inputs = list(itertools.islice(workload.inputs(1), 200))
    assert {workload.units(inp) for inp in inputs} == {35, 20, 21, 16}
    assert all(inp["spot"] < workload.units(inp) for inp in inputs)


def test_tracer_skips_a_removed_function(monkeypatch):
    monkeypatch.delattr(montecarlo, "build_envelope")
    original = bell.chsh
    tracer = tracing.Tracer()
    assert tracer.absent == ["montecarlo.build_envelope"]

    params = bell.ExperimentParams(**workloads.REALISTIC)
    tracer.run(0, lambda p: bell.chsh(p), params)
    assert bell.chsh is original
    assert tracer.calls["bell.chsh"] == 1
    # conditioning calls spd_inverse under the name it imported
    assert tracer.calls["gaussian.spd_inverse"] == 21
    # self times of one op's spans add up to the op's root span
    (root,) = [s for s in tracer.spans if s[3] == "op"]
    assert math.isclose(sum(tracer.self_s.values()), root[5] - root[4],
                        rel_tol=1e-9)


def _run_cli(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_command_prints_the_result_as_its_last_line():
    proc = _run_cli(["--workload", "point", "--seed", "1", "--seconds", "0",
                     "--trace", "0"], run.ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == END_TO_END


def test_command_fails_without_the_program():
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run_cli(["--workload", "point", "--seed", "1", "--seconds",
                         "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
