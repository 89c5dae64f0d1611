"""Algorithm-1 orchestration: reflection, aux traps, direct handling."""

import pytest

from repro import ExecutionMode, Machine
from repro.analysis.breakdown import exit_reason_profile
from repro.cpu import isa
from repro.errors import VirtualizationError
from repro.sim.trace import Category
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_TSC_DEADLINE


@pytest.fixture
def machine():
    return Machine(mode=ExecutionMode.BASELINE)


def test_boot_is_one_shot(machine):
    with pytest.raises(VirtualizationError):
        machine.stack.boot()


def test_boot_builds_the_descriptor_graph(machine):
    stack = machine.stack
    assert stack.vmcs01p is stack.vmcs12        # shadow merge
    assert stack.composed_ept is not None
    # Address-bearing fields in vmcs02 are host-physical.
    assert stack.vmcs02.read("ept_pointer") != stack.vmcs12.read(
        "ept_pointer"
    )


def test_boot_virtualizes_svt_context_indexes(machine):
    # Paper §4: L1 thinks L2 is in context-1; L0 runs it in context-2 and
    # exposes context-2 through vmcs01's SVt_nested.
    stack = machine.stack
    assert stack.vmcs12.read("svt_vm") == 1      # L1's view
    assert stack.vmcs02.read("svt_vm") == 2      # reality
    assert stack.vmcs01.read("svt_nested") == 2


def test_cpuid_exit_walks_full_reflection(machine):
    before = machine.tracer.snapshot()
    machine.run_instruction(isa.cpuid(leaf=2))
    delta = {
        key: machine.tracer.totals[key] - before.get(key, 0)
        for key in machine.tracer.totals
    }
    costs = machine.costs
    assert delta[Category.SWITCH_L2_L0] == costs.switch_l2_l0
    assert delta[Category.SWITCH_L0_L1] == costs.switch_l0_l1
    assert delta[Category.VMCS_TRANSFORM] == costs.vmcs_transform
    assert delta[Category.L0_LAZY_SWITCH] == costs.l0_lazy_switch
    assert delta[Category.L1_LAZY_SWITCH] == costs.l1_lazy_switch
    assert machine.stack.exit_counts[ExitReason.CPUID] == 1


def test_l1_handles_the_reflected_exit_not_l0(machine):
    machine.run_instruction(isa.cpuid())
    assert machine.l1.exit_counts[ExitReason.CPUID] == 1
    assert machine.l0.exit_counts[ExitReason.CPUID] == 0


def test_untrapped_msr_does_not_exit(machine):
    exits_before = machine.l2_vm.vcpu.exits
    machine.run_instruction(isa.wrmsr(0x999, 1))
    assert machine.l2_vm.vcpu.exits == exits_before
    assert machine.l2_vm.vcpu.read_msr(0x999) == 1


def test_tsc_deadline_write_reflects_and_causes_aux_trap(machine):
    # L1 traps its guest's deadline-timer writes; handling one makes L1
    # arm its own timer — itself a trapped MSR write (aux exit).
    machine.run_instruction(isa.wrmsr(MSR_TSC_DEADLINE, 50_000))
    assert machine.stack.exit_counts[ExitReason.MSR_WRITE] == 1
    assert machine.stack.aux_exit_counts[ExitReason.MSR_WRITE] == 1
    # The physical timer got armed for the guest deadline.
    assert machine.sim.peek_next_time() is not None


def test_external_interrupt_handled_directly_by_l0(machine):
    machine.stack.l2_exit(ExitInfo(ExitReason.EXTERNAL_INTERRUPT,
                                   {"vector": 0x30}))
    assert machine.l0.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1
    assert machine.l1.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 0


def test_inject_irq_into_l2_reflects_with_injection_aux(machine):
    machine.stack.inject_irq_into_l2(0x60)
    assert machine.l1.exit_counts[ExitReason.EXTERNAL_INTERRUPT] == 1
    # The event-injection write trapped (entry_interruption_info).
    assert machine.stack.aux_exit_counts["VMWRITE"] >= 1
    assert machine.stack.vmcs12.read("entry_interruption_info") \
        == 0x80000060


def test_inject_irq_into_l1_uses_single_level_path(machine):
    machine.stack.inject_irq_into_l1(0x61)
    key = "L1:" + ExitReason.EXTERNAL_INTERRUPT
    assert machine.stack.exit_counts[key] == 1


def test_l1_exit_charges_single_level_costs(machine):
    before = machine.tracer.snapshot()
    machine.stack.l1_exit(ExitInfo(ExitReason.CPUID, {"leaf": 0}))
    delta_switch = (machine.tracer.totals[Category.SWITCH_L2_L0]
                    - before.get(Category.SWITCH_L2_L0, 0))
    assert delta_switch == machine.costs.switch_l2_l0
    assert machine.l0.exit_counts[ExitReason.CPUID] == 1


def test_exit_time_accounting(machine):
    elapsed = machine.stack.l2_exit(ExitInfo(ExitReason.CPUID, {"leaf": 0}))
    assert machine.stack.exit_ns[ExitReason.CPUID] == elapsed
    assert elapsed > 0
    assert exit_reason_profile(machine.stack) == {ExitReason.CPUID: 1.0}


def test_vcpu_exit_counter(machine):
    machine.run_instruction(isa.cpuid())
    machine.run_instruction(isa.cpuid())
    assert machine.l2_vm.vcpu.exits == 2
