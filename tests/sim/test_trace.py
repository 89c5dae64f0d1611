"""Tracer accounting."""

import pytest

from repro.sim.trace import TABLE1_ROWS, Category, Tracer


def test_totals_accumulate():
    tracer = Tracer()
    tracer.record(Category.L0_HANDLER, 100)
    tracer.record(Category.L0_HANDLER, 50)
    assert tracer.totals[Category.L0_HANDLER] == 150
    assert tracer.counts[Category.L0_HANDLER] == 2


def test_negative_charge_rejected():
    with pytest.raises(ValueError):
        Tracer().record(Category.IDLE, -1)


def test_total_selected_categories():
    tracer = Tracer()
    tracer.record(Category.L0_HANDLER, 10)
    tracer.record(Category.L1_HANDLER, 20)
    tracer.record(Category.IDLE, 70)
    assert tracer.total(Category.L0_HANDLER, Category.L1_HANDLER) == 30
    assert tracer.total() == 100


def test_snapshot_is_independent_copy():
    tracer = Tracer()
    tracer.record(Category.IDLE, 10)
    snap = tracer.snapshot()
    tracer.record(Category.IDLE, 10)
    assert snap[Category.IDLE] == 10


def test_record_forwards_charges_to_an_observer():
    class Sink:
        def __init__(self):
            self.charges = []

        def charge(self, category, ns):
            self.charges.append((category, ns))

    tracer = Tracer()
    tracer.observer = Sink()
    tracer.record(Category.CHANNEL, 30)
    assert tracer.observer.charges == [(Category.CHANNEL, 30)]


def test_add_is_several_records_in_one_step():
    one, many = Tracer(), Tracer()
    for _ in range(3):
        one.record(Category.STALL_RESUME, 0)
        one.record(Category.L0_HANDLER, 40)
    many.add(Category.STALL_RESUME, 0, 3)
    many.add(Category.L0_HANDLER, 120, 3)
    assert list(many.totals.items()) == list(one.totals.items())
    assert list(many.counts.items()) == list(one.counts.items())
    with pytest.raises(ValueError):
        many.add(Category.IDLE, -1, 1)


def test_add_refuses_an_observer():
    # An observer needs one interval per record; a batch has none.
    tracer = Tracer()
    tracer.observer = object()
    with pytest.raises(ValueError):
        tracer.add(Category.CHANNEL, 30, 1)


def test_table1_rows_cover_the_paper_rows():
    """Six rows in the paper's order; lazy save/restore folds into the
    handler rows and no category lands in two rows."""
    assert [label for label, _ in TABLE1_ROWS] == [
        "0 L2",
        "1 Switch L2<->L0",
        "2 Transform vmcs02/vmcs12",
        "3 L0 handler",
        "4 Switch L0<->L1",
        "5 L1 handler",
    ]
    assert [categories for _, categories in TABLE1_ROWS] == [
        (Category.GUEST_WORK,),
        (Category.SWITCH_L2_L0,),
        (Category.VMCS_TRANSFORM,),
        (Category.L0_HANDLER, Category.L0_LAZY_SWITCH),
        (Category.SWITCH_L0_L1,),
        (Category.L1_HANDLER, Category.L1_LAZY_SWITCH),
    ]
