"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(REPO / "src")]

import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ---------------------------------------------------------------------------
# percentile with at least ten samples beyond it

def test_percentile_interpolates_like_numpy_default():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert stats.percentile([5.0], 90) == 5.0
    assert stats.percentile(list(range(11)), 90) == 9.0


def test_p90_needs_ten_samples_beyond():
    assert stats.reportable([float(i) for i in range(100)], 90) == pytest.approx(89.1)
    assert stats.beyond([float(i) for i in range(100)], 89.1) == 10
    # 90 samples: p90 interpolates to 80.1 and only 81..89 (nine) lie above it.
    assert stats.reportable([float(i) for i in range(90)], 90) is None


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 5
    assert stats.reportable(samples, 50) is None


def test_highest_tail_walks_down_the_ladder():
    assert stats.highest_tail([float(i) for i in range(1000)])[0] == 99.0
    assert stats.highest_tail([float(i) for i in range(100)])[0] == 90.0
    assert stats.highest_tail([float(i) for i in range(50)])[0] == 75.0
    assert stats.highest_tail([float(i) for i in range(12)]) is None


def test_fastest_per_input_keeps_the_cpu_of_the_fastest_run():
    best = stats.fastest_per_input([0, 1, 0, 1, 0], [3.0, 5.0, 2.0, 6.0, 2.5],
                                   [3.1, 5.1, 2.1, 6.1, 2.6])
    assert best == {0: (2.0, 2.1), 1: (5.0, 5.1)}


def test_ratio_per_input_is_mean_over_inputs_of_median_ratio():
    # input 0: ratios 2, 4, 3 -> median 3; input 1: ratios 10, 6 -> median 8.
    slots = [0, 1, 0, 1, 0]
    walls = [2.0, 20.0, 8.0, 3.0, 1.5]
    refs = [1.0, 2.0, 2.0, 0.5, 0.5]
    assert stats.ratio_per_input(slots, walls, refs) == pytest.approx((3.0 + 8.0) / 2)


def test_quartile_spread_is_share_of_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles' default (exclusive) method: Q1 = 2.75, Q3 = 8.25.
    assert stats.quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


# ---------------------------------------------------------------------------
# python -X importtime parser

IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |   _io
import time:       200 |        300 | _frozen_importlib_external
import time:      1000 |       1000 |       numpy.core
import time:      2000 |       3000 |     numpy
import time:       500 |        500 |       scipy._lib
import time:       700 |       1200 |     scipy
import time:      4000 |       4000 |       scipy.stats
import time:       300 |       4300 |     scipy.special
import time:        50 |       8550 |   wedgeq.service_model
import time:        40 |       8590 | wedgeq
import time:        20 |         20 | wedgeq.cli
some other stderr line
"""


def test_importtime_tree():
    entries = tracing.parse_importtime(IMPORTTIME)
    names = [e[0] for e in entries]
    assert names == ["_io", "_frozen_importlib_external", "numpy.core", "numpy", "scipy._lib",
                     "scipy", "scipy.stats", "scipy.special", "wedgeq.service_model", "wedgeq",
                     "wedgeq.cli"]
    parent = {e[0]: (entries[e[3]][0] if e[3] >= 0 else None) for e in entries}
    assert parent["_io"] == "_frozen_importlib_external"
    assert parent["numpy.core"] == "numpy"
    assert parent["numpy"] == "wedgeq.service_model"
    assert parent["scipy.stats"] == "scipy.special"
    assert parent["scipy"] == "wedgeq.service_model"
    assert parent["wedgeq.service_model"] == "wedgeq"
    assert parent["wedgeq"] is None and parent["wedgeq.cli"] is None


def test_import_metrics_sum_outermost_entries():
    metrics = tracing.import_metrics(tracing.parse_importtime(IMPORTTIME))
    assert metrics["import.wedgeq_ms"] == pytest.approx((8590 + 20) / 1000)
    assert metrics["import.numpy_ms"] == pytest.approx(3.0)
    assert metrics["import.scipy_ms"] == pytest.approx((1200 + 4300) / 1000)
    assert metrics["import.wedgeq_self_ms"] == pytest.approx((50 + 40 + 20) / 1000)


def test_import_metrics_report_zero_for_a_package_never_imported():
    text = "import time:        40 |         40 | wedgeq\n"
    metrics = tracing.import_metrics(tracing.parse_importtime(text))
    assert metrics["import.scipy_ms"] == 0.0


def test_import_metrics_refuse_output_without_wedgeq():
    with pytest.raises(ValueError):
        tracing.import_metrics(tracing.parse_importtime("import time: 1 | 1 | numpy\n"))


# ---------------------------------------------------------------------------
# self time over nested spans

SPANS = [
    ["op", 0.0, 10.0, -1, 0],
    ["simulator.run", 1.0, 9.0, 0, 0],
    ["service_model.sample_rework", 2.0, 3.0, 1, 0],
    ["kernels.simulate_fifo", 4.0, 8.0, 1, 0],
]


def test_self_time_subtracts_direct_children_only():
    assert tracing.self_times(SPANS) == pytest.approx([2.0, 3.0, 1.0, 4.0])


def test_self_times_sum_to_root_duration():
    assert sum(tracing.self_times(SPANS)) == pytest.approx(10.0)


def test_overlapping_children_are_covered_once():
    spans = [["op", 0.0, 10.0, -1, 0], ["a.x", 1.0, 5.0, 0, 0], ["b.y", 3.0, 7.0, 0, 0],
             ["c.z", 9.0, 12.0, 0, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)
    assert tracing.union_length([(1.0, 5.0), (3.0, 7.0), (9.0, 12.0)], 0.0, 10.0) == 7.0


def test_outer_time_skips_spans_nested_in_the_same_group():
    spans = [["verification.solve_equilibrium", 0.0, 4.0, -1, 0],
             ["verification.policy_route_moments", 1.0, 2.0, 0, 0],
             ["verification.policy_route_moments", 5.0, 6.0, -1, 0]]
    assert tracing.outer_time(spans, ("verification.",)) == 5.0
    assert tracing.outer_time(spans, ("verification.policy_route_moments",)) == 2.0


def test_layer_metrics_per_op_and_missing_layers():
    counters = {"kernels.jobs": 100, "kernels.rework_jobs": 15, "verification.pdf_evals": 0}
    metrics = tracing.layer_metrics([SPANS], counters, n_ops=2, missing_layers={"cli"})
    assert metrics["simulator.run_ms"] == pytest.approx(8.0 * 1000 / 2)
    assert metrics["simulator.self_ms"] == pytest.approx(3.0 * 1000 / 2)
    assert metrics["kernels.fifo_ms"] == pytest.approx(4.0 * 1000 / 2)
    assert metrics["self_ms.bench"] == pytest.approx(2.0 * 1000 / 2)
    assert metrics["kernels.jobs_per_s"] == pytest.approx(100 / 4.0)
    assert metrics["kernels.rework_share"] == pytest.approx(0.15)
    assert metrics["verification.evals_per_root"] == 0.0
    assert metrics["cli.main_ms"] is None and metrics["self_ms.cli"] is None


# ---------------------------------------------------------------------------
# tracer on the real package

def test_tracer_records_nested_spans_and_exact_counts():
    from wedgeq import fixture_path, load_config, simulator

    config = simulator.SimConfig.from_workflow(load_config(fixture_path("fig3.json")))
    small = simulator.SimConfig(workflow=config.workflow, n_arrivals=4000, seed=5)
    tracer = tracing.Tracer().install()
    try:
        assert tracer.missing == []
        simulator.run(small)  # outside an op: records nothing
        assert tracer.spans == [] and not tracer.counters
        with tracer.op(7):
            simulator.run(small)
    finally:
        tracer.uninstall()
    assert not hasattr(simulator.run, "__wrapped__")
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["op", "simulator.run"]
    fifo = names.index("kernels.simulate_fifo")
    assert tracer.spans[tracer.spans[fifo][3]][0] == "simulator.run"
    assert all(span[4] == 7 for span in tracer.spans)
    assert tracer.counters["kernels.jobs"] == 4000
    assert tracer.counters["verification.pdf_evals"] == 0


def test_missing_wrap_target_marks_its_layer(monkeypatch):
    monkeypatch.setattr(tracing, "WRAPS", tracing.WRAPS + (
        ("wedgeq.simulator:no_such_function", "kernels.nothing", None),))
    tracer = tracing.Tracer().install()
    tracer.uninstall()
    assert tracer.missing == ["wedgeq.simulator:no_such_function"]
    assert tracer.missing_layers() == {"kernels"}


# ---------------------------------------------------------------------------
# workloads and BENCHMARK.json

def test_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.make_inputs(name, 3) == workloads.make_inputs(name, 3)
        assert workloads.make_inputs(name, 3) != workloads.make_inputs(name, 4)


def test_pool_composition_does_not_depend_on_the_seed():
    commands = sorted(argv[0] for argv in workloads.make_inputs("cli-cold", 9)["pool"])
    assert commands == sorted(workloads.FIXED_COMMANDS + workloads.POLICY_COMMANDS)
    pool = workloads.make_inputs("policy-solve", 9)["pool"]
    lo, hi = workloads.LAMBDA_RANGE
    assert len(pool) == len(workloads.POLICY_FIXTURES) * workloads.LAMBDA_STRATA
    assert all(lo <= item["lam"] <= hi for item in pool)
    sims = workloads.make_inputs("sim-feedback", 9)
    assert [doc["sim"]["rework_mode"] for doc in sims["configs"].values()] == ["feedback"] * 3
    assert len(workloads.make_inputs("cli-warm", 9)["pool"]) == 27


def test_cli_output_checks():
    assert workloads.output_problem(["wedge"], 0, '{"a": 1}\n') is None
    assert workloads.output_problem(["wedge"], 2, "") == "exit 2"
    assert "unparseable" in workloads.output_problem(["wedge"], 0, "{")
    assert workloads.output_problem(["sweep"], 0, "# c=1\na,b\n1,2\n") is None
    assert workloads.output_problem(["sweep"], 0, "a,b\n1,2,3\n") == "ragged or empty CSV"
    assert workloads.output_problem(["sweep", "--format", "json"], 0, "[]") is None


def test_benchmark_json_matches_the_workload_table():
    import run

    on_disk = json.loads((REPO / "BENCHMARK.json").read_text())
    assert on_disk == workloads.benchmark_spec(run.RUN_SECONDS)
    gated = [w["name"] for w in on_disk["workloads"]]
    assert gated == ["cli-warm", "sim-folded"]
    for name in gated:
        for metric in workloads.WORKLOADS[name]["predictions"]:
            assert metric in {m["name"] for m in on_disk["per_layer"]}
