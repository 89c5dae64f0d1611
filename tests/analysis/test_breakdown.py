"""Breakdown accounting: Table 1 rows and exit-reason profiles."""

import pytest

from repro.analysis.breakdown import (
    exit_reason_profile,
    table1_rows,
    vmcs_access_share,
)
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.sim.trace import Category
from repro.virt.exits import ExitInfo, ExitReason


def test_table1_rows_from_real_run():
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_program(isa.Program([isa.cpuid()], repeat=4))
    rows = table1_rows(machine.tracer.totals, operations=4)
    as_dict = {label: (us, pct) for label, us, pct in rows}
    assert as_dict["3 L0 handler"][0] == pytest.approx(4.89, abs=0.01)
    assert sum(us for us, _ in as_dict.values()) == pytest.approx(
        10.40, abs=0.01)
    assert sum(pct for _, pct in as_dict.values()) == pytest.approx(100.0)


def test_table1_rows_fold_lazy_into_handlers():
    totals = {Category.L0_HANDLER: 1000, Category.L0_LAZY_SWITCH: 500}
    rows = {label: us for label, us, _ in table1_rows(totals)}
    assert rows["3 L0 handler"] == pytest.approx(1.5)


def test_table1_rows_divide_each_category_before_folding():
    """Per-op shares are ``a / n + b / n``, not ``(a + b) / n``: the
    committed Table 1 bytes depend on that order."""
    totals = {Category.L1_HANDLER: 1, Category.L1_LAZY_SWITCH: 4}
    ((_, us, _),) = [row for row in table1_rows(totals, 3)
                     if row[0] == "5 L1 handler"]
    assert 1 / 3 + 4 / 3 != 5 / 3       # the two orders differ here
    assert us == (1 / 3 + 4 / 3) / 1000.0


def test_table1_rows_of_empty_totals_are_zero():
    rows = table1_rows({})
    assert [(us, pct) for _, us, pct in rows] == [(0.0, 0.0)] * 6


def test_exit_reason_profile_sorted_and_normalised():
    machine = Machine(mode=ExecutionMode.BASELINE)
    machine.run_instruction(isa.cpuid())
    machine.stack.l2_exit(ExitInfo(ExitReason.EXTERNAL_INTERRUPT,
                                   {"vector": 1}))
    profile = exit_reason_profile(machine.stack)
    assert sum(profile.values()) == pytest.approx(1.0)
    shares = list(profile.values())
    assert shares == sorted(shares, reverse=True)


def test_empty_profile():
    machine = Machine(mode=ExecutionMode.BASELINE)
    assert exit_reason_profile(machine.stack) == {}
    assert vmcs_access_share(machine.stack) == 0.0


def test_vmcs_access_share_small_like_paper():
    # Paper §6.2: "of all time spent handling VM traps in L0, only about
    # 4% is spent in the VM trap handlers triggered by VMCS accesses".
    from repro.io.net import Packet, install_network

    machine = Machine(mode=ExecutionMode.BASELINE)
    net = install_network(machine)
    net.fabric.remote_handler = lambda p: [Packet("r", 1)]
    net.l2_nic.queue_tx(Packet("x", 1))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, 0))
    machine.wait_until(lambda: net.l2_nic.rx.has_used)
    share = vmcs_access_share(machine.stack)
    assert 0.005 < share < 0.15
