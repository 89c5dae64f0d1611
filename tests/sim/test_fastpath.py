"""Fast-path engine semantics: charge ≡ advance, freelist, compaction.

``Simulator.charge`` must be observationally identical to ``advance``
— same firing order, same callback-visible clock, same final state —
while skipping the event heap whenever nothing is due.  The property
test drives interleaved schedule/cancel/charge sequences through two
simulators (one charging, one advancing) and compares everything a
caller can observe.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator

# -- charge basics ---------------------------------------------------------


def test_charge_moves_clock(sim):
    sim.charge(150)
    assert sim.now == 150


def test_charge_rejects_negative(sim):
    import pytest

    from repro.sim.engine import SimulationError

    with pytest.raises(SimulationError):
        sim.charge(-1)


def test_charge_skips_heap_when_nothing_due(sim):
    sim.after(1_000, lambda: None)
    for _ in range(10):
        sim.charge(50)
    assert sim.now == 500
    assert sim.events_fired == 0


def test_charge_fires_due_events_in_order(sim):
    fired = []
    sim.after(30, fired.append, 3)
    sim.after(10, fired.append, 1)
    sim.after(20, fired.append, 2)
    sim.charge(25)
    assert fired == [1, 2]
    sim.charge(5)
    assert fired == [1, 2, 3]
    assert sim.events_fired == 3


def test_charge_callback_sees_event_time(sim):
    seen = []
    sim.after(40, lambda: seen.append(sim.now))
    sim.charge(100)
    assert seen == [40]
    assert sim.now == 100


def test_charge_zero_matches_advance_zero(sim):
    # An event scheduled exactly at `now` behaves identically under a
    # zero-length charge and a zero-length advance.
    fast_fired, slow_fired = [], []
    slow = Simulator()
    sim.after(0, fast_fired.append, "x")
    slow.after(0, slow_fired.append, "x")
    sim.charge(0)
    slow.advance(0)
    assert fast_fired == slow_fired
    assert sim.peek_next_time() == slow.peek_next_time()


def test_try_charge_only_when_nothing_falls_due(sim):
    assert sim.try_charge(100)
    assert sim.now == 100
    fired = []
    sim.after(50, fired.append, "x")          # due at 150
    assert not sim.try_charge(50)            # due exactly at the target
    assert not sim.try_charge(80)
    assert sim.now == 100 and fired == []   # refused: nothing moved
    assert sim.try_charge(49)
    assert sim.now == 149
    sim.charge(1)
    assert fired == ["x"]
    assert sim.try_charge(10_000)            # queue empty again


def test_try_charge_rejects_negative(sim):
    import pytest

    from repro.sim.engine import SimulationError

    with pytest.raises(SimulationError):
        sim.try_charge(-1)


def test_next_due_survives_cancelling_the_earliest(sim):
    fired = []
    early = sim.after(10, fired.append, "early")
    sim.after(100, fired.append, "late")
    early.cancel()
    # The cached deadline may still point at the cancelled entry
    # (conservative-low is allowed); firing must not happen early.
    sim.charge(50)
    assert fired == []
    sim.charge(50)
    assert fired == ["late"]


# -- freelist --------------------------------------------------------------


def test_fired_handle_is_recycled_when_unreferenced(sim):
    sim.after(10, lambda: None)  # handle discarded by caller
    sim.run_until_idle()
    assert len(sim._freelist) == 1
    reused = sim._freelist[-1]
    handle = sim.after(5, lambda: None)
    assert handle is reused
    assert not handle.cancelled


def test_fired_handle_kept_by_caller_is_not_recycled(sim):
    handle = sim.after(10, lambda: None)
    sim.run_until_idle()
    assert handle not in sim._freelist


def test_stale_cancel_after_recycling_is_impossible_by_construction(sim):
    # Recycling only happens when the caller kept no reference, so no
    # stale handle can alias a recycled event.  A caller-held handle
    # stays valid and cancel() still works after unrelated recycling.
    sim.after(10, lambda: None)
    sim.run_until_idle()            # one entry on the freelist
    fired = []
    kept = sim.after(30, fired.append, "kept")   # reuses the entry
    sim.after(20, fired.append, "other")
    kept.cancel()
    sim.run_until_idle()
    assert fired == ["other"]


def test_cancelled_handles_are_recycled_by_compaction(sim):
    for _ in range(20):
        sim.after(10, lambda: None)
    handles = [sim.after(20, lambda: None) for _ in range(30)]
    for handle in handles:
        handle.cancel()
    del handles
    sim.at(sim.now + 5, lambda: None)   # triggers compaction
    assert sim.compactions == 1
    assert len(sim._freelist) > 0
    assert sim._dead == 0


# -- compaction ------------------------------------------------------------


def test_compaction_preserves_firing_order(sim):
    fired = []
    keep = []
    for i in range(40):
        handle = sim.after(100 + i, fired.append, i)
        if i % 4 != 0:
            handle.cancel()
        else:
            keep.append(i)
    sim.after(1, fired.append, "first")
    sim.run_until_idle()
    assert fired == ["first"] + keep


def test_cancelled_leak_is_bounded(sim):
    # Satellite (a): cancelling in a loop must not grow the heap
    # without bound — compaction keeps dead entries below live+slack.
    live = sim.after(10**9, lambda: None)
    for _ in range(5_000):
        sim.after(500, lambda: None).cancel()
    assert len(sim._queue) < 100
    assert sim.compactions > 0
    live.cancel()


# -- property: charge ≡ advance -------------------------------------------

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("charge"), st.integers(0, 120)),
        st.tuples(st.just("after"), st.integers(0, 150)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("idle"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS)
def test_charge_program_equals_advance_program(ops):
    fast, slow = Simulator(), Simulator()
    fast_log, slow_log = [], []
    fast_handles, slow_handles = [], []

    def record(log, simulator, token):
        log.append((token, simulator.now))

    token = 0
    for op, arg in ops:
        if op == "charge":
            fast.charge(arg)
            slow.advance(arg)
        elif op == "after":
            fast_handles.append(
                fast.after(arg, record, fast_log, fast, token))
            slow_handles.append(
                slow.after(arg, record, slow_log, slow, token))
            token += 1
        elif op == "cancel" and fast_handles:
            index = arg % len(fast_handles)
            fast_handles[index].cancel()
            slow_handles[index].cancel()
        elif op == "idle":
            fast.run_until_idle()
            slow.run_until_idle()
        assert fast.now == slow.now
        assert fast_log == slow_log
        assert fast.peek_next_time() == slow.peek_next_time()
    fast.run_until_idle()
    slow.run_until_idle()
    assert fast_log == slow_log
    assert fast.now == slow.now
    assert fast.events_fired == slow.events_fired


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_next_due_cache_is_conservative_low(ops):
    """The cached deadline never exceeds the true earliest live event."""
    sim = Simulator()
    handles = []
    for op, arg in ops:
        if op == "charge":
            sim.charge(arg)
        elif op == "after":
            handles.append(sim.after(arg, lambda: None))
        elif op == "cancel" and handles:
            handles[arg % len(handles)].cancel()
        elif op == "idle":
            sim.run_until_idle()
        live = [h.time for h in sim._queue if not h.cancelled]
        if sim._next_due is not None and live:
            assert sim._next_due <= min(live)
        if sim._next_due is None:
            assert not live
