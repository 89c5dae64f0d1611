"""Figure 7 — I/O subsystem latency and bandwidth speedups.

The sweep itself lives in the registered ``fig7`` experiment; the merged
:class:`~repro.exp.result.Result` is computed once per module and each
test benchmarks its own metric's three cells, then asserts the Result's
scalars against the paper.
"""

import pytest

from repro.analysis.report import format_table
from repro.core.mode import ExecutionMode
from repro.exp import registry
from repro.exp.experiments.figures import FIG7_METRICS
from repro.exp.runner import run_experiments

EXPERIMENT = registry.get("fig7")
PARAMS = EXPERIMENT.resolve()


@pytest.fixture(scope="module")
def fig7():
    return run_experiments(["fig7"], overrides=PARAMS).results["fig7"]


def _metric_cells(metric):
    return {mode: EXPERIMENT.run_cell(f"{metric}:{mode}", PARAMS)
            for mode in ExecutionMode.ALL}


def _metric_block(result, metric):
    label = FIG7_METRICS[metric][0]
    table = result.tables[0]
    row = next(r for r in table.rows if r.label == label)
    return format_table(
        list(table.columns) + ["Paper (base / sw / hw)"],
        [(row.label, *row.values, row.paper)],
    )


def test_fig7_network_latency(benchmark, report, fig7):
    benchmark(_metric_cells, "net_latency")
    report("Figure 7 - network latency",
           _metric_block(fig7, "net_latency"))
    assert fig7.scalar("net_latency_base") == pytest.approx(163, rel=0.06)
    assert fig7.scalar("net_latency_sw_speedup") == pytest.approx(
        1.10, abs=0.06)
    assert fig7.scalar("net_latency_hw_speedup") == pytest.approx(
        2.38, abs=0.12)


def test_fig7_network_bandwidth(benchmark, report, fig7):
    benchmark(_metric_cells, "net_bandwidth")
    report("Figure 7 - network bandwidth",
           _metric_block(fig7, "net_bandwidth"))
    assert fig7.scalar("net_bandwidth_base") == pytest.approx(
        9387, rel=0.03)
    assert fig7.scalar("net_bandwidth_sw_speedup") == pytest.approx(
        1.00, abs=0.05)
    assert fig7.scalar("net_bandwidth_hw_speedup") == pytest.approx(
        1.12, abs=0.05)


def test_fig7_disk_randrd_latency(benchmark, report, fig7):
    benchmark(_metric_cells, "disk_randrd_latency")
    report("Figure 7 - disk randrd latency",
           _metric_block(fig7, "disk_randrd_latency"))
    assert fig7.scalar("disk_randrd_latency_base") == pytest.approx(
        126, rel=0.06)
    assert fig7.scalar("disk_randrd_latency_sw_speedup") == pytest.approx(
        1.30, abs=0.08)
    assert fig7.scalar("disk_randrd_latency_hw_speedup") == pytest.approx(
        2.18, abs=0.25)


def test_fig7_disk_randwr_latency(benchmark, report, fig7):
    benchmark(_metric_cells, "disk_randwr_latency")
    report("Figure 7 - disk randwr latency",
           _metric_block(fig7, "disk_randwr_latency"))
    assert fig7.scalar("disk_randwr_latency_base") == pytest.approx(
        179, rel=0.06)
    assert fig7.scalar("disk_randwr_latency_sw_speedup") == pytest.approx(
        1.05, abs=0.05)
    assert fig7.scalar("disk_randwr_latency_hw_speedup") == pytest.approx(
        2.26, abs=0.15)


def test_fig7_disk_randrd_bandwidth(benchmark, report, fig7):
    benchmark(_metric_cells, "disk_randrd_bandwidth")
    report("Figure 7 - disk randrd bandwidth",
           _metric_block(fig7, "disk_randrd_bandwidth"))
    assert fig7.scalar("disk_randrd_bandwidth_base") == pytest.approx(
        87_136, rel=0.10)
    assert 1.2 <= fig7.scalar("disk_randrd_bandwidth_sw_speedup") <= 1.6
    assert 2.0 <= fig7.scalar("disk_randrd_bandwidth_hw_speedup") <= 2.6


def test_fig7_disk_randwr_bandwidth(benchmark, report, fig7):
    benchmark(_metric_cells, "disk_randwr_bandwidth")
    report("Figure 7 - disk randwr bandwidth",
           _metric_block(fig7, "disk_randwr_bandwidth"))
    assert fig7.scalar("disk_randwr_bandwidth_base") == pytest.approx(
        55_769, rel=0.05)
    assert fig7.scalar("disk_randwr_bandwidth_sw_speedup") == pytest.approx(
        1.18, abs=0.06)
    assert fig7.scalar("disk_randwr_bandwidth_hw_speedup") == pytest.approx(
        2.60, abs=0.15)
