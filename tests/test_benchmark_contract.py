"""The benchmark's workloads still run against this tree, untraced and traced.

perfbench drives gridlink through its public functions and reads attributes
of their results (for example SpectrumReport.deflated in a trace hook), so a
library change can break the benchmark without failing any other test.  Each
workload named in BENCHMARK.json runs one op and its check, then one op under
perfbench's Tracer.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 0  # a seed recorded in perfbench/reference.json


@pytest.fixture(scope="module")
def perfbench():
    """perfbench's workloads and tracing modules, importable only while this module's tests run."""
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads

        yield workloads, tracing
    finally:
        sys.path[:] = saved_path
        for name in ("synth", "tracing", "workloads"):
            sys.modules.pop(name, None)


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_benchmark_workload_runs_untraced_and_traced(perfbench, tmp_path, name):
    workloads, tracing = perfbench
    reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
    workload = workloads.WORKLOADS[name](tmp_path, SEED, reference)

    workload.op()
    workload.check()

    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.wrap(workload.root_span, workload.op)()
    finally:
        tracer.uninstall()
    workload.check()
    layers = tracing.layer_metrics(tracer.take(), workload.workers)
    assert set(layers) == {metric for metric, _ in tracing.LAYER_METRICS}


def test_tracer_reports_only_the_known_absent_hooks(perfbench):
    # A hooked name that src/ renames or deletes would zero its per-layer metric without failing
    # any run, so the list of hooks that name nothing in this tree is pinned here.
    _, tracing = perfbench
    tracer = tracing.Tracer()
    try:
        absent = tracer.install()
    finally:
        tracer.uninstall()
    assert absent == [
        "gridlink.linearization.jacobian_blocks",
        "gridlink.cli.jacobian_blocks",
        "gridlink.cli.simulate",
        "gridlink.cli.decay_rate",
        "gridlink.dynamics.mechanical_power",
        "gridlink.reports.trajectory_table",
        "gridlink.reports.trajectory_document",
    ]
