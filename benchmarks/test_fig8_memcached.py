"""Figure 8 — memcached latency vs offered load (Facebook ETC)."""

import pytest

from repro.analysis.report import render_result
from repro.exp import registry
from repro.exp.runner import run_experiments


def test_fig8_memcached_curves(benchmark, report):
    params = registry.get("fig8").resolve({"requests": 20_000}, strict=True)
    run = benchmark(run_experiments, ["fig8"], overrides=params)
    result = run.results["fig8"]

    report("Figure 8", render_result(result))

    assert result.scalar("p99_improvement") == pytest.approx(
        2.20, abs=0.35)
    assert result.scalar("avg_improvement") == pytest.approx(
        1.43, abs=0.25)
    assert (result.scalar("svt_max_kqps_in_sla")
            > result.scalar("base_max_kqps_in_sla"))
    # Latency-vs-load curves rise monotonically (open-loop saturation).
    for series in result.series:
        p99s = [y for _x, y in series.points]
        assert p99s == sorted(p99s)
