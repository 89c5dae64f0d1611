"""Decoupled aux traps against the per-leg walk.

``NestedStack`` charges a run of aux traps whose legs the engine reports
constant in one ``Simulator.try_charge`` (temporal decoupling), and
falls back to walking each trap leg by leg.  The property drives random
reflections, aux bursts, timers and scheduled events through two
machines per case: one free to take every fast path, one forced onto the
per-leg walk.  Everything the walk makes observable must match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ExecutionMode, Machine
from repro.cpu import isa
from repro.cpu.costs import CostModel
from repro.sim.trace import Category
from repro.virt.exits import ExitReason
from repro.virt.hypervisor import MSR_TSC_DEADLINE

#: (mode, twist): SW SVt degraded to the stock path, and HW SVt with
#: its fetch target steered so the aux round trip is not constant.
VARIANTS = (
    (ExecutionMode.BASELINE, None),
    (ExecutionMode.SW_SVT, None),
    (ExecutionMode.SW_SVT, "degraded"),
    (ExecutionMode.HW_SVT, None),
    (ExecutionMode.HW_SVT, "steered"),
)

AUX_KINDS = (ExitReason.VMWRITE, ExitReason.VMREAD, ExitReason.INVEPT,
             ExitReason.CR_ACCESS, ExitReason.MSR_WRITE)

OPS = st.lists(st.one_of(
    st.tuples(st.just("cpuid"), st.integers(0, 7)),
    st.tuples(st.just("hlt")),
    st.tuples(st.just("irq"), st.integers(0x20, 0xFF)),
    st.tuples(st.just("deadline"), st.integers(0, 40_000)),
    st.tuples(st.just("aux"), st.sampled_from(AUX_KINDS),
              st.integers(1, 40)),
    st.tuples(st.just("event"), st.integers(0, 60_000)),
    st.tuples(st.just("steer"), st.integers(0, 2)),
    st.tuples(st.just("trap")),
), max_size=14)


def build(mode, twist, reference):
    machine = Machine(mode=mode)
    if twist == "degraded":
        machine.engine.degraded = True
    if reference:
        # The per-leg walk everywhere: no decoupled charge, and
        # guest_read_all walks its fields one guest_read at a time.
        machine.stack._decoupled = lambda kind, count: False
        machine.stack.vmcs12._burst_callback = None
    return machine


def drive(machine, twist, ops):
    stack, sim = machine.stack, machine.sim
    fired = []
    outcome = None
    try:
        for op in ops:
            name = op[0]
            if name == "cpuid":
                machine.run_instruction(isa.cpuid(leaf=op[1]))
            elif name == "hlt":
                machine.run_instruction(isa.hlt())
                machine.l2_vm.vcpu.halted = False
            elif name == "irq":
                stack.inject_irq_into_l2(op[1])
            elif name == "deadline":
                machine.run_instruction(
                    isa.wrmsr(MSR_TSC_DEADLINE, sim.now + op[1]))
            elif name == "aux":
                stack.l1_aux_ops(op[1], op[2])
            elif name == "event":
                # What the callback sees places it within the legs.
                sim.after(op[1], lambda tag=len(fired): fired.append(
                    (tag, sim.now, sum(machine.tracer.counts.values()))))
            elif twist == "steered" and name == "steer":
                machine.core.force_fetch(op[1])
            elif twist == "steered":
                machine.core.svt_trap()       # fetch visor, leave guest mode
    except Exception as err:  # noqa: BLE001 - both sides must agree
        outcome = (type(err).__name__, str(err))
    return observe(machine, fired, outcome)


def observe(machine, fired, outcome):
    stack, tracer, core = machine.stack, machine.tracer, machine.core
    return {
        "now": machine.sim.now,
        "totals": list(tracer.totals.items()),
        "counts": list(tracer.counts.items()),
        "aux_counts": list(stack.aux_exit_counts.items()),
        "aux_ns": list(stack.aux_exit_ns.items()),
        "exit_ns": list(stack.exit_ns.items()),
        "exit_counts": list(stack.exit_counts.items()),
        "contexts": [c.state for c in core.contexts],
        "svt": (core.svt_current, core.svt_visor, core.svt_vm,
                core.svt_nested, core.is_vm),
        "regs": machine.l2_vm.vcpu.read_many(("rax", "rbx", "rip")),
        "vmcs02": list(stack.vmcs02.snapshot().items()),
        "vmcs12": list(stack.vmcs12.snapshot().items()),
        "fired": fired,
        "outcome": outcome,
    }


@pytest.mark.parametrize("mode,twist", VARIANTS)
@settings(max_examples=50, deadline=None)
@given(ops=OPS)
def test_decoupled_aux_traps_match_the_per_leg_walk(mode, twist, ops):
    fast = drive(build(mode, twist, reference=False), twist, ops)
    walked = drive(build(mode, twist, reference=True), twist, ops)
    assert fast == walked


@pytest.mark.parametrize("mode,twist", VARIANTS)
def test_decoupling_is_taken(mode, twist):
    # A quiet burst goes through one try_charge, not the walk, except
    # where the legs are not constant (SW SVt's propagated INVEPT).
    machine = build(mode, twist, reference=False)
    machine.sim.run_until_idle()
    walked = []
    walk = machine.stack._aux_trap
    machine.stack._aux_trap = lambda *args: (walked.append(args),
                                             walk(*args))
    machine.stack.l1_aux_ops(ExitReason.VMWRITE, 5)
    machine.stack.l1_aux_ops(ExitReason.INVEPT, 2)
    propagated = mode == ExecutionMode.SW_SVT
    assert len(walked) == (2 if propagated else 0)


def test_event_inside_a_burst_walks_its_trap_and_fires_on_time():
    machine = build(ExecutionMode.BASELINE, None, reference=False)
    stack, sim = machine.stack, machine.sim
    sim.run_until_idle()
    total, legs = machine.engine.aux_plan(ExitReason.VMWRITE)
    assert legs == ((Category.SWITCH_L0_L1, machine.costs.switch_l0_l1, 2),
                    (Category.L0_HANDLER,
                     machine.costs.l0_pure(ExitReason.VMWRITE), 1))
    walked, fired = [], []
    walk = stack._aux_trap
    stack._aux_trap = lambda *args: (walked.append(sim.now), walk(*args))
    start = sim.now
    due = start + 2 * total + 1          # inside the third trap
    sim.at(due, lambda: fired.append(sim.now))
    stack.l1_aux_ops(ExitReason.VMWRITE, 5)
    assert fired == [due]
    assert walked == [start + 2 * total]
    assert sim.now == start + 5 * total
    assert stack.aux_exit_counts[ExitReason.VMWRITE] == 5
    assert stack.aux_exit_ns[ExitReason.VMWRITE] == 5 * total


def test_event_at_the_end_of_a_burst_is_not_skipped():
    # Due exactly when the run would end: the walk fires it inside the
    # last trap's final leg, so the last trap must walk too.
    machine = build(ExecutionMode.BASELINE, None, reference=False)
    stack, sim = machine.stack, machine.sim
    sim.run_until_idle()
    total, _ = machine.engine.aux_plan(ExitReason.VMWRITE)
    walked, fired = [], []
    walk = stack._aux_trap
    stack._aux_trap = lambda *args: (walked.append(sim.now), walk(*args))
    start = sim.now
    sim.at(start + 4 * total, lambda: fired.append(sim.now))
    stack.l1_aux_ops(ExitReason.VMWRITE, 4)
    assert fired == [start + 4 * total]
    assert walked == [start + 3 * total]


def test_hw_plan_requires_a_constant_round_trip():
    machine = build(ExecutionMode.HW_SVT, None, reference=False)
    engine, core = machine.engine, machine.core
    assert core.svt_current == core.svt_vm and core.is_vm
    total, legs = engine.aux_plan(ExitReason.VMREAD)
    assert legs[0] == (Category.STALL_RESUME,
                       2 * machine.costs.svt_stall_resume, 2)
    core.force_fetch(core.svt_visor)
    assert engine.aux_plan(ExitReason.VMREAD) is None
    core.svt_trap()                       # guest mode off ...
    core.force_fetch(core.svt_vm)         # ... while fetching SVt_vm
    assert engine.aux_plan(ExitReason.VMREAD) is None


def test_zero_cost_legs_count_like_the_walk():
    # A 0 ns stall/resume is still recorded by the core; a 0 ns switch
    # or handler is not recorded by the engines' charge helpers.
    for mode, overrides in (
            (ExecutionMode.HW_SVT, {"svt_stall_resume": 0}),
            (ExecutionMode.BASELINE, {"switch_l0_l1": 0})):
        runs = []
        for reference in (False, True):
            machine = Machine(mode=mode,
                              costs=CostModel().with_overrides(**overrides))
            if reference:
                machine.stack._decoupled = lambda kind, count: False
            machine.sim.run_until_idle()
            machine.stack.l1_aux_ops(ExitReason.VMWRITE, 3)
            runs.append((dict(machine.tracer.totals),
                         dict(machine.tracer.counts), machine.sim.now))
        assert runs[0] == runs[1]
