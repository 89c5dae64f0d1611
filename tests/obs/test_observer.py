"""Observer facade: charge spans, disabled planes, ambient capture."""

from repro.obs.observer import (
    CATEGORY_LEVEL,
    Observer,
    ambient,
    capture_metrics,
)
from repro.obs.spans import CAT_CHARGE
from repro.sim.engine import Simulator
from repro.sim.trace import TABLE1_ROWS, Category


def test_unbound_observer_clock_reads_zero():
    assert Observer().now() == 0


def test_bind_attaches_simulator_clock():
    sim = Simulator()
    observer = Observer().bind(sim)
    sim.advance(42)
    assert observer.now() == 42


def test_charge_emits_the_charged_window():
    sim = Simulator()
    observer = Observer(sim)
    sim.advance(100)
    # The simulator advances *before* the tracer records, so the
    # charged window is exactly [now - ns, now].
    observer.charge(Category.GUEST_WORK, 30)
    (span,) = observer.spans.finished()
    assert (span.start_ns, span.end_ns) == (70, 100)
    assert span.cat == CAT_CHARGE
    assert span.level == CATEGORY_LEVEL[Category.GUEST_WORK] == 2


def test_charge_spans_carry_no_args():
    observer = Observer(Simulator())
    observer.charge(Category.CHANNEL, 0)
    (span,) = observer.spans.finished()
    assert span.args is None


def test_every_table1_category_has_a_level():
    for _, categories in TABLE1_ROWS:
        for category in categories:
            assert category in CATEGORY_LEVEL


def test_structural_span_lands_on_its_level():
    sim = Simulator()
    observer = Observer(sim)
    with observer.span("l1_handler:CPUID", level=1):
        sim.advance(10)
    (span,) = observer.spans.finished()
    assert span.name == "l1_handler:CPUID"
    assert span.level == 1
    assert span.duration_ns == 10


def test_disabled_tracing_returns_shared_null_span():
    observer = Observer(tracing=False)
    assert not observer.tracing
    assert observer.spans is None
    first = observer.span("a")
    second = observer.span("b", level=2, anything=1)
    assert first is second        # one shared no-op, no allocation
    with first:
        pass
    observer.charge(Category.GUEST_WORK, 10)   # swallowed, no error


def test_disabled_metrics_are_noops():
    observer = Observer(metrics=False)
    observer.count("exits_total", reason="CPUID")
    observer.observe("lat_ns", 5)
    assert observer.metrics_snapshot() == {"counters": {},
                                           "histograms": {}}


def test_counts_and_observations_reach_the_registry():
    observer = Observer()
    observer.count("exits_total", 2, reason="CPUID")
    observer.observe("lat_ns", 7)
    snap = observer.metrics_snapshot()
    assert snap["counters"] == {"exits_total{reason=CPUID}": 2}
    assert snap["histograms"]["lat_ns"]["sum"] == 7


def test_no_ambient_observer_by_default():
    assert ambient() is None


def test_capture_metrics_installs_and_removes_ambient():
    with capture_metrics() as observer:
        assert ambient() is observer
        assert not observer.tracing       # metrics-only by design
        assert observer.metrics is not None
    assert ambient() is None


def test_capture_metrics_nests_innermost_wins():
    with capture_metrics() as outer:
        with capture_metrics() as inner:
            assert ambient() is inner
        assert ambient() is outer
    assert ambient() is None


def test_capture_metrics_unwinds_on_error():
    try:
        with capture_metrics():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert ambient() is None
