"""Figure 6 — cpuid latency across L0/L1/L2/SW SVt/HW SVt."""

import pytest

from repro.analysis.report import render_result
from repro.exp import registry
from repro.exp.runner import run_experiments


def test_fig6_cpuid_bars(benchmark, report):
    params = registry.get("fig6").resolve({"iterations": 20}, strict=True)
    run = benchmark(run_experiments, ["fig6"], overrides=params)
    result = run.results["fig6"]

    report("Figure 6", render_result(result))

    assert result.scalar("l2_us") == pytest.approx(10.40, abs=0.02)
    assert result.scalar("sw_speedup") == pytest.approx(1.23, abs=0.01)
    assert result.scalar("hw_speedup") == pytest.approx(1.94, abs=0.01)
    # Fig. 6 right axis: ~200x overhead of nested vs native.
    assert result.scalar("nested_overhead_vs_l0") == pytest.approx(
        208, rel=0.02)
    assert (result.scalar("l0_us")
            < result.scalar("l1_us")
            < result.scalar("hw_svt_us"))
