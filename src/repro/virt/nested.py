"""Nested-virtualization orchestration: Algorithm 1, executed once.

:class:`NestedStack` owns the descriptor graph of paper Figure 2 —
vmcs01 (L0 runs L1 on it), vmcs01'/vmcs12 (L1's descriptor for L2 and
L0's shadow of it), vmcs02 (what L2 really runs on) — and walks the exact
control flow of Algorithm 1 for every nested VM trap.  Every boundary
crossing is delegated to a :class:`~repro.core.switch.SwitchEngine`, so
the same control flow prices out as 10.40 µs (baseline), 8.46 µs (SW SVt)
or 5.36 µs (HW SVt) for a cpuid trap.

Shadowing note: with hardware VMCS shadowing (which the paper's baseline
includes), L1's accesses to shadowed vmcs01' fields are served directly
from the shadow region — which *is* vmcs12.  We therefore model vmcs01'
and vmcs12 as one object with two access styles: L1 uses
``guest_read``/``guest_write`` (non-shadowed accesses trap to L0, Alg. 1
lines 8-10), L0 uses raw ``read``/``write``.
"""

from collections import Counter

from repro.cpu.smt import INVALID_CONTEXT
from repro.errors import VirtualizationError
from repro.sim import sanitizer as _san
from repro.sim.trace import Category
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE
from repro.virt.transform import (
    transform_02_to_12,
    transform_12_to_02,
)
from repro.virt.vmcs import Vmcs

#: Share of the L0 nested handler charged on the inject side (Alg. 1
#: lines 3-5); the rest is charged on the resume side (lines 13-14).
_L0_INJECT_NUMER, _L0_INJECT_DENOM = 11, 20


def _enter_ctx(label):
    """Tell the runtime sanitizer which simulated context executes now.

    A label *change* here is always a sanctioned VM trap/resume
    crossing (the same calls SVT007 lists in ``ORDERING_CALLS``), and
    hardware serializes at that boundary — so the change doubles as a
    happens-before edge.  Raw ``Sanitizer.set_context`` stays
    non-ordering, which is what lets tests inject genuinely unordered
    cross-context mutations.

    Returns the previous label (for save/restore around nested windows)
    or ``None`` when the sanitizer is off — a single global load on the
    disabled path."""
    san = _san.ACTIVE
    if san is None:
        return None
    previous = san.context_label
    if label != previous:
        san.ordering_event("vm-crossing")
        san.set_context(label)
    return previous


def _leave_ctx(previous):
    san = _san.ACTIVE
    if previous is not None and san is not None \
            and previous != san.context_label:
        san.ordering_event("vm-crossing")
        san.set_context(previous)


class NestedStack:
    """A booted L0/L1/L2 stack executing Algorithm 1 per VM trap."""

    def __init__(self, sim, tracer, costs, engine, l0, l1, l1_vm, l2_vm,
                 interrupts=None, obs=None):
        self.sim = sim
        self.tracer = tracer
        self.costs = costs
        self.engine = engine
        self.l0 = l0
        self.l1 = l1
        self.l1_vm = l1_vm
        self.l2_vm = l2_vm
        self.interrupts = interrupts
        self.obs = obs
        l0.obs = obs
        l1.obs = obs

        # Descriptor graph (Figure 2).  ept01 translates L1's guest-
        # physical addresses; ept12 is L1's table for L2.
        self.vmcs01 = Vmcs("vmcs01")
        self.vmcs12 = Vmcs("vmcs12", exit_on_write_callback=self._l1_vmcs_trap,
                           burst_callback=self._l1_vmcs_burst)
        self.vmcs01p = self.vmcs12   # see module docstring
        self.vmcs02 = Vmcs("vmcs02")
        self.ept01 = l1_vm.ept
        self.ept12 = l2_vm.ept
        self.composed_ept = None

        self.booted = False
        self._shadowing = False      # aux traps only after shadow setup

        # Profiling (feeds the §6.2/§6.3 shares and Table 1 repro).
        self.exit_ns = Counter()
        self.exit_counts = Counter()
        self.aux_exit_counts = Counter()
        self.aux_exit_ns = Counter()

        # Timer plumbing: an L1 WRMSR to the deadline MSR is itself a
        # privileged op trapping to L0 (paper §6.3: MSR_WRITE profile).
        l1.arm_timer = self._l1_arm_timer
        l0.arm_timer = self._l0_arm_timer
        # EPT plumbing: L1's INVEPT after updating L2's page tables
        # traps, and L0 refreshes its collapsed table (paper §2.2 lists
        # "manipulating the extended page tables" among the L1 ops that
        # trigger additional VM traps).
        l1.flush_ept = self._l1_flush_ept

    # ------------------------------------------------------------------
    # Boot (paper §2.1 narrative + §4 "Nested Virtualization" walkthrough)
    # ------------------------------------------------------------------

    def boot(self):
        """Bring the stack to steady state: shadowing active, vmcs02
        built, SVt fields configured, L2 runnable."""
        if self.booted:
            raise VirtualizationError("stack already booted")

        # L0 configures vmcs01 for L1: host state plus — under SVt — the
        # context steering fields (visor=ctx0, vm=ctx1, nested invalid
        # until L1 starts a nested guest).
        self.vmcs01.write("host_rip", 0xFFFF800000000000)
        self.vmcs01.write("svt_visor", 0)
        self.vmcs01.write("svt_vm", 1)
        self.vmcs01.write("svt_nested", INVALID_CONTEXT)
        self.engine.load_vmcs(self.vmcs01)

        # L1 creates vmcs01' for L2.  Its first VMPTRLD traps into L0,
        # which begins shadowing vmcs01' into vmcs12 (Fig. 2 step 1).
        self._shadowing = False  # boot-time writes don't count as traps
        self.vmcs12.write("guest_rip", 0x1000)
        self.vmcs12.write("guest_rsp", 0x7FFF0000)
        self.vmcs12.write("guest_cr3", 0x2000)
        self.vmcs12.write("proc_based_controls", 0xB5186DFA)
        self.vmcs12.write("exception_bitmap", 0x60042)
        # Address-bearing controls carry L1 guest-physical addresses.
        self.vmcs12.write("msr_bitmap_addr", 0x3000)
        self.vmcs12.write("ept_pointer", 0x5000)
        self.vmcs12.trapped_msrs.add(MSR_TSC_DEADLINE)
        self.vmcs12.trapped_msrs.add(MSR_APIC_EOI)
        # L1's own view of the SVt steering (paper: "from its point of
        # view L1 executes in context-0, and its guest VM in context-1").
        self.vmcs12.write("svt_visor", 0)
        self.vmcs12.write("svt_vm", 1)
        self.vmcs12.write("svt_nested", INVALID_CONTEXT)

        # L1 starts L2: VMRESUME on vmcs01' traps into L0, which builds
        # vmcs02 (Fig. 2 step 2): translate L1-GPAs to HPAs, merge L0
        # policy, collapse the EPT hierarchy, and virtualize the SVt
        # context indexes (L1 said context-1; L0 uses context-2).
        self.composed_ept = self.ept12.compose(self.ept01)
        transform_12_to_02(self.vmcs12, self.vmcs02, self.ept01,
                           self.l0.policy, composed_ept=self.composed_ept)
        self.vmcs02.write("svt_visor", 0)
        self.vmcs02.write("svt_vm", 2)
        self.vmcs02.write("svt_nested", INVALID_CONTEXT)
        # ...and lets L1 reach L2's registers: SVt_nested in vmcs01.
        self.vmcs01.write("svt_nested", 2)
        self.engine.load_vmcs(self.vmcs01)
        self.engine.load_vmcs(self.vmcs02)

        self._shadowing = True
        self.booted = True

    # ------------------------------------------------------------------
    # Algorithm 1: one nested VM trap
    # ------------------------------------------------------------------

    def l2_exit(self, exit_info):
        """Handle one VM trap from L2 (Alg. 1 lines 1-16)."""
        if not self.booted:
            raise VirtualizationError("boot() the stack first")
        vcpu = self.l2_vm.vcpu
        vcpu.exits += 1
        started = self.sim.now

        obs = self.obs
        if obs is None:
            self._l2_exit(exit_info, vcpu)
        else:
            with obs.span(f"l2_exit:{exit_info.reason}", level=0,
                          reason=exit_info.reason):
                self._l2_exit(exit_info, vcpu)
        elapsed = self.sim.now - started
        self.exit_ns[exit_info.reason] += elapsed
        self.exit_counts[exit_info.reason] += 1
        if obs is not None:
            obs.count("exits_total", reason=exit_info.reason, level=2,
                      mode=self.engine.mode)
            obs.observe("exit_ns", elapsed, reason=exit_info.reason,
                        level=2)
        return elapsed

    def _l2_exit(self, exit_info, vcpu):
        if _san.ACTIVE is not None:
            _enter_ctx("L2")                       # hardware, on L2's behalf
        self.vmcs02.record_exit(exit_info)         # hardware exit-info
        self.engine.exit_l2_to_l0()                # line 2
        if _san.ACTIVE is not None:
            _enter_ctx("L0")

        if self._l0_owns(exit_info):
            self._handle_direct(exit_info, vcpu)
        else:
            self._reflect_to_l1(exit_info, vcpu)

        self.engine.resume_l2()                    # line 15
        if _san.ACTIVE is not None:
            _enter_ctx("L2")

    def _l0_owns(self, exit_info):
        """Exits L0 consumes without reflecting: host interrupts and
        anything L1 did not configure a trap for but L0's policy forces
        (paper §2.1's timestamp-counter example)."""
        if exit_info.qual("owner") == "l1":
            return False
        reason = exit_info.reason
        if reason not in ExitReason.REFLECTABLE:
            return True
        if reason in (ExitReason.MSR_READ, ExitReason.MSR_WRITE):
            msr = exit_info.qual("msr")
            wanted_by_l1 = msr in self.vmcs12.trapped_msrs
            return not wanted_by_l1
        return False

    def _handle_direct(self, exit_info, vcpu):
        """L0 handles the exit itself (no L1 involvement)."""
        self.engine.charge_l0_lazy_direct()
        self._charge(self.costs.l0_pure(exit_info.reason),
                     Category.L0_HANDLER)
        writer = self.engine.l0_writer(vcpu, lvl=1)
        self.l0.handle_exit(exit_info, self.l2_vm, vcpu, writer, self.vmcs02)

    def _reflect_to_l1(self, exit_info, vcpu):
        """Alg. 1 lines 3-14: reflect into L1 and return."""
        costs = self.costs
        obs = self.obs
        self.engine.charge_l0_lazy_nested()

        # Line 3: reflect hardware-written state into vmcs12.
        self._charge(costs.vmcs_transform_each, Category.VMCS_TRANSFORM)
        if obs is None:
            transform_02_to_12(self.vmcs02, self.vmcs12, self.ept01)
        else:
            with obs.span("vmcs_transform:02->12", level=0):
                transform_02_to_12(self.vmcs02, self.vmcs12, self.ept01,
                                   obs=obs)

        # Lines 4-5: load vmcs01, inject the trap into vmcs12.
        l0_cost = costs.l0_pure(exit_info.reason)
        inject_cost = l0_cost * _L0_INJECT_NUMER // _L0_INJECT_DENOM
        self._charge(inject_cost, Category.L0_HANDLER)
        self.engine.load_vmcs(self.vmcs01)
        self.vmcs12.record_exit(exit_info)

        # Line 6: VM resume into L1.
        self.engine.enter_l1(exit_info, vcpu)
        if _san.ACTIVE is not None:
            _enter_ctx("L1")
        self.engine.charge_l1_lazy()

        # Lines 7-11: L1 handles the trap (aux traps fire via the VMCS
        # callback while it touches non-shadowed vmcs01' fields).
        self._charge(costs.l1_pure(exit_info.reason), Category.L1_HANDLER)
        writer = self.engine.l1_writer(vcpu)
        if obs is None:
            self.l1.handle_exit(exit_info, self.l2_vm, vcpu, writer,
                                self.vmcs01p)
        else:
            with obs.span(f"l1_handler:{exit_info.reason}", level=1,
                          reason=exit_info.reason):
                self.l1.handle_exit(exit_info, self.l2_vm, vcpu, writer,
                                    self.vmcs01p)

        # Line 12: L1's VM resume traps back into L0.
        self.engine.leave_l1(vcpu)
        if _san.ACTIVE is not None:
            _enter_ctx("L0")

        # Lines 13-14: load vmcs02, transform vmcs12 back into it.
        self.engine.load_vmcs(self.vmcs02)
        self._charge(l0_cost - inject_cost, Category.L0_HANDLER)
        self._charge(costs.vmcs_transform_each, Category.VMCS_TRANSFORM)
        if obs is None:
            transform_12_to_02(self.vmcs12, self.vmcs02, self.ept01,
                               self.l0.policy,
                               composed_ept=self.composed_ept)
        else:
            with obs.span("vmcs_transform:12->02", level=0):
                transform_12_to_02(self.vmcs12, self.vmcs02, self.ept01,
                                   self.l0.policy,
                                   composed_ept=self.composed_ept, obs=obs)

    # ------------------------------------------------------------------
    # Aux traps: L1's privileged ops during handling (Alg. 1 lines 8-10)
    # ------------------------------------------------------------------

    #
    # Temporal decoupling (TLM-2.0 style, docs/performance.md): a run of
    # n aux traps whose legs the engine reports constant is charged as
    # one Simulator.try_charge of n times the legs' total, with the
    # tracer and aux counters bumped in one step each.  When an event
    # could fall due inside the run, each trap tries alone.  The per-leg
    # walk (_aux_trap) is the reference and runs whenever an observer or
    # the sanitizer is attached, the engine has no constant plan, or an
    # event could fall due inside the trap.

    def _l1_vmcs_trap(self, kind, field_name):
        """L1 touched a non-shadowed vmcs01' field: trap to L0, emulate,
        resume L1."""
        if self._shadowing and not self._decoupled(kind, 1):
            self._aux_trap(kind, field_name)

    def _l1_vmcs_burst(self, kind, field_names):
        """A run of trapping vmcs01' accesses (:meth:`Vmcs.guest_read_all`),
        one aux trap per field."""
        if self._shadowing and not self._decoupled(kind, len(field_names)):
            for field_name in field_names:
                self._l1_vmcs_trap(kind, field_name)

    def l1_aux_op(self, kind):
        """A privileged non-VMCS op by L1 during handling (INVEPT, timer
        reprogramming, control-register writes) — same trap pattern."""
        if not self._decoupled(kind, 1):
            self._aux_trap(kind)

    def l1_aux_ops(self, kind, count):
        """``count`` back-to-back :meth:`l1_aux_op` calls of one kind."""
        if count > 0 and not self._decoupled(kind, count):
            for _ in range(count):
                self.l1_aux_op(kind)

    def _decoupled(self, kind, count):
        """Charge ``count`` aux traps of ``kind`` at once, or return
        False (nothing charged) when the per-leg walk must run."""
        if self.obs is not None or self.tracer.observer is not None \
                or _san.ACTIVE is not None:
            return False
        plan = self.engine.aux_plan(kind)
        if plan is None:
            return False
        total, legs = plan
        if not self.sim.try_charge(total * count):
            return False
        for category, ns, records in legs:
            self.tracer.add(category, ns * count, records * count)
        self.aux_exit_counts[kind] += count
        self.aux_exit_ns[kind] += total * count
        return True

    def _aux_trap(self, kind, field_name=None):
        """One aux trap, leg by leg: L0 captures the trap, emulates,
        resumes."""
        started = self.sim.now
        obs = self.obs
        if obs is None:
            self._aux_legs(kind)
        else:
            name = (f"aux_exit:vmcs:{field_name}" if field_name is not None
                    else f"aux_exit:{kind}")
            with obs.span(name, level=0, kind=kind):
                self._aux_legs(kind)
            obs.count("aux_exits_total", kind=kind)
        self.aux_exit_counts[kind] += 1
        self.aux_exit_ns[kind] += self.sim.now - started

    def _aux_legs(self, kind):
        previous = _enter_ctx("L0")
        self.engine.aux_exit_begin()
        self._charge(self.costs.l0_pure(kind), Category.L0_HANDLER)
        self.engine.propagate_aux(kind)
        self.engine.aux_exit_end()
        _leave_ctx(previous)

    # ------------------------------------------------------------------
    # Single-level exits: L1's own traps into L0
    # ------------------------------------------------------------------

    def l1_exit(self, exit_info):
        """An exit of L1 itself (its vhost kicks, its timer writes...),
        handled by L0 through the single-level path."""
        vcpu = self.l1_vm.vcpu
        vcpu.exits += 1
        started = self.sim.now
        obs = self.obs
        if obs is None:
            self._l1_exit(exit_info, vcpu)
        else:
            with obs.span(f"l1_exit:{exit_info.reason}", level=0,
                          reason=exit_info.reason):
                self._l1_exit(exit_info, vcpu)
        elapsed = self.sim.now - started
        self.exit_ns["L1:" + exit_info.reason] += elapsed
        self.exit_counts["L1:" + exit_info.reason] += 1
        if obs is not None:
            obs.count("exits_total", reason=exit_info.reason, level=1,
                      mode=self.engine.mode)
            obs.observe("exit_ns", elapsed, reason=exit_info.reason,
                        level=1)
        return elapsed

    def _l1_exit(self, exit_info, vcpu):
        if _san.ACTIVE is not None:
            _enter_ctx("L1")                       # hardware, on L1's behalf
        self.vmcs01.record_exit(exit_info)
        self.engine.exit_l1_single()
        if _san.ACTIVE is not None:
            _enter_ctx("L0")
        self.engine.charge_l0_single_lazy()
        self._charge(self.costs.l0_single(exit_info.reason),
                     Category.L0_HANDLER)
        writer = self.engine.l0_single_writer(vcpu)
        self.l0.handle_exit(exit_info, self.l1_vm, vcpu, writer,
                            self.vmcs01)
        self.engine.resume_l1_single()
        if _san.ACTIVE is not None:
            _enter_ctx("L1")

    # ------------------------------------------------------------------
    # Interrupt delivery helpers (used by the I/O models)
    # ------------------------------------------------------------------

    def inject_irq_into_l2(self, vector):
        """A virtual interrupt for L2, raised by L1's device backend: L1
        gets control, writes the event-injection field (a non-shadowed
        control — an aux trap) and resumes L2."""
        info = ExitInfo(
            ExitReason.EXTERNAL_INTERRUPT,
            qualification={"vector": vector, "inject_vector": vector,
                           "owner": "l1"},
            injected=True,
        )
        self._charge(self.costs.irq_delivery, Category.INTERRUPT)
        self.engine.charge_guest_wake(2)
        if self.obs is not None:
            self.obs.count("irq_injected_total", level=2, vector=vector)
        return self.l2_exit(info)

    def inject_irq_into_l1(self, vector):
        """An interrupt for L1 itself (its virtio completions)."""
        info = ExitInfo(
            ExitReason.EXTERNAL_INTERRUPT,
            qualification={"vector": vector},
            injected=True,
        )
        self._charge(self.costs.irq_delivery, Category.INTERRUPT)
        self._charge(self.costs.irq_inject, Category.INTERRUPT)
        self.engine.charge_guest_wake(1)
        if self.obs is not None:
            self.obs.count("irq_injected_total", level=1, vector=vector)
        return self.l1_exit(info)

    # ------------------------------------------------------------------
    # Timer plumbing
    # ------------------------------------------------------------------

    def _l1_arm_timer(self, vcpu, deadline_value):
        """L1 arming its (virtual) deadline timer is a privileged MSR
        write that traps into L0, which arms the physical timer."""
        self.l1_aux_op(ExitReason.MSR_WRITE)
        self._l0_arm_timer(vcpu, deadline_value)

    def _l0_arm_timer(self, vcpu, deadline_value):
        if self.interrupts is not None:
            self.interrupts.arm_tsc_deadline(0, deadline_value)
        self._charge(self.costs.timer_program, Category.INTERRUPT)

    # ------------------------------------------------------------------
    # EPT plumbing
    # ------------------------------------------------------------------

    def _l1_flush_ept(self, vm):
        """L1 executed INVEPT after editing L2's page tables: the
        instruction traps, and L0 rebuilds the collapsed two-level table
        used by vmcs02."""
        self.l1_aux_op(ExitReason.INVEPT)
        self.composed_ept = self.ept12.compose(self.ept01)
        self._charge(self.costs.vmcs_transform_each,
                     Category.VMCS_TRANSFORM)
        self.vmcs02.ept = self.composed_ept

    # ------------------------------------------------------------------

    def _charge(self, ns, category):
        if ns:
            self.sim.charge(ns)
            self.tracer.record(category, ns)
