"""Every timing constant in the simulator, calibrated to the paper.

The anchor is paper **Table 1** (time breakdown of one nested ``cpuid``,
total 10.40 µs)::

    part 0  L2 work                    0.05 us
    part 1  switch L2<->L0             0.81 us
    part 2  transform vmcs02/vmcs12    1.29 us
    part 3  L0 handler                 4.89 us
    part 4  switch L0<->L1             1.40 us
    part 5  L1 handler                 1.96 us

Paper §2.3 (last paragraph) and §6 note that parts 3 and 5 *fold in* lazy
register/VMCS save-restore that is really context-switch cost.  We split
them so the three execution modes price switching differently:

* part 3 = ``l0_handler_pure[CPUID]`` (2.82 µs) + ``l0_lazy_switch`` (2.07 µs)
* part 5 = ``l1_handler_pure[CPUID]`` (1.12 µs) + ``l1_lazy_switch`` (0.84 µs)

With this split the three modes land exactly on the paper's Figure 6:

* baseline nested cpuid = 10.40 µs,
* **HW SVt** drops every explicit and lazy switch, keeping 4 stall/resume
  events (20 ns each): 5.36 µs → 1.94× (paper: 1.94×),
* **SW SVt** drops only the L0↔L1 switch and L1's lazy share, paying one
  command-ring round trip (2 × 150 ns): 8.46 µs → 1.23× (paper: 1.23×).

All other constants (per-exit-reason handler times, channel/wait
mechanics, interrupt costs) are effective values chosen so the subsystem
and application results land near the paper's reported shapes; each is a
single number here so ablations can sweep them.
"""

import dataclasses
from dataclasses import dataclass, field

from repro.errors import ConfigError


def _default_l0_pure():
    """Pure (non-lazy) L0 nested-handler time by exit reason, ns.

    CPUID is the Table-1 calibration point.  The others are scaled by the
    relative complexity KVM's handlers exhibit: virtio MMIO emulation and
    VMCS shadowing (vmptrld) are heavy, interrupt window work is light.
    """
    # paper: Table 1 part 3 (CPUID anchor, §2.3 lazy split); other
    # reasons are effective values scaled per §6.2's subsystem shapes.
    return {
        "CPUID": 2820,
        "MSR_READ": 2300,
        "MSR_WRITE": 2500,
        "IO_INSTRUCTION": 3100,
        "EPT_MISCONFIG": 3400,
        "EPT_VIOLATION": 3800,
        "VMCALL": 2000,
        "VMPTRLD": 5200,
        # VMREAD/VMWRITE emulation is a short field-permission check plus
        # a shadow-area copy — the aux traps of Alg. 1 lines 8-10 are
        # frequent but individually light.
        "VMREAD": 500,
        "VMWRITE": 620,
        "VMRESUME": 2900,
        "INVEPT": 2100,
        "EXTERNAL_INTERRUPT": 1150,
        "INTERRUPT_WINDOW": 900,
        "RDTSC": 900,
        "HLT": 850,
        "PREEMPTION_TIMER": 950,
        "CR_ACCESS": 1700,
        "CTXT_ACCESS": 1400,
        "SVT_BLOCKED": 700,
    }


def _default_l1_pure():
    """Pure L1 guest-hypervisor handler time by exit reason, ns."""
    # paper: Table 1 part 5 (CPUID anchor, §2.3 lazy split); other
    # reasons are effective values scaled per §6.2's subsystem shapes.
    return {
        "CPUID": 1120,
        "MSR_READ": 950,
        "MSR_WRITE": 1050,
        "IO_INSTRUCTION": 1900,
        "EPT_MISCONFIG": 2400,
        "EPT_VIOLATION": 2700,
        "VMCALL": 900,
        # Emulating a nested hypervisor's VMX instructions (the L3 case).
        "VMREAD": 700,
        "VMWRITE": 820,
        "INVEPT": 1300,
        "EXTERNAL_INTERRUPT": 700,
        "HLT": 500,
        "PREEMPTION_TIMER": 650,
        "CR_ACCESS": 1000,
        "SVT_BLOCKED": 400,
    }


def _default_l0_single():
    """L0 handler time for exits from a *single-level* guest (no nesting
    machinery).  CPUID here makes Fig. 6's L1 bar ≈ 1.86 µs."""
    # paper: Fig. 6 L1 bar (CPUID anchor); other reasons are effective
    # values scaled per §6.2's subsystem shapes.
    return {
        "CPUID": 1000,
        "MSR_READ": 850,
        "MSR_WRITE": 950,
        "IO_INSTRUCTION": 1500,
        "EPT_MISCONFIG": 1900,
        "EPT_VIOLATION": 2200,
        "VMCALL": 700,
        "VMPTRLD": 5200,
        "VMREAD": 1200,
        "VMWRITE": 1300,
        "VMRESUME": 2900,
        "INVEPT": 1800,
        "EXTERNAL_INTERRUPT": 800,
        "HLT": 450,
        "PREEMPTION_TIMER": 600,
        "CR_ACCESS": 900,
        "CTXT_ACCESS": 1100,
    }


@dataclass(frozen=True)
class CostModel:
    """Immutable bag of timing constants (nanoseconds unless noted)."""

    # -- Table 1 calibration (see module docstring) ----------------------
    # The switch and transform figures in Table 1 are totals over one
    # whole nested-trap cycle, which crosses each boundary twice
    # (Alg. 1 lines 2/15 and 6/12); per-crossing charges are the halves
    # exposed as *_each properties below.
    cpuid_guest_work: int = 50     # paper: Table 1 part 0
    switch_l2_l0: int = 810        # paper: Table 1 part 1
    switch_l0_l1: int = 1400       # paper: Table 1 part 4
    vmcs_transform: int = 1290     # paper: Table 1 part 2
    l0_lazy_switch: int = 2070     # paper: Table 1 part 3, §2.3 split
    l1_lazy_switch: int = 840      # paper: Table 1 part 5, §2.3 split
    # Lazy save/restore for exits L0 handles *without* reflecting to L1
    # (external interrupts etc.) — lighter than the full nested cycle.
    l0_lazy_direct: int = 900      # paper: §2.3 (effective share)
    # Lazy share of the single-level exit path (plain L1 guest).
    l0_single_lazy: int = 400      # paper: §2.3 (effective share)
    l0_handler_pure: dict = field(default_factory=_default_l0_pure)
    l1_handler_pure: dict = field(default_factory=_default_l1_pure)
    l0_single_level: dict = field(default_factory=_default_l0_single)
    # Fallbacks for unlisted exit reasons, scaled off Table 1 parts 3/5.
    l0_handler_default: int = 2500   # paper: Table 1 part 3 (fallback)
    l1_handler_default: int = 1500   # paper: Table 1 part 5 (fallback)
    l0_single_default: int = 1100    # paper: Fig. 6 L1 bar (fallback)

    # -- HW SVt (paper §4) ------------------------------------------------
    svt_stall_resume: int = 20   # paper: §4 thread stall/resume event
    ctxt_access: int = 1         # paper: §4 ctxtld/ctxtst via the PRF
    # Caching the SVt fields is free: "the loading of the micro-
    # architectural registers ... already happens during the existing
    # VMPTRLD instruction".
    svt_vmptrld_cache: int = 0   # paper: §5.1

    # -- SW SVt channel & wait mechanisms (paper §5.2, §6.1) --------------
    # Cache-line ownership transfer by placement; sibling thread /
    # same-node core / cross-socket.
    cacheline_transfer_smt: int = 50     # paper: §6.1 SMT sibling
    cacheline_transfer_core: int = 150   # paper: §6.1 same NUMA node
    cacheline_transfer_numa: int = 1200  # paper: §6.1 cross-socket
    # Wait mechanisms: mwait C1 exit, monitor arm, one poll spin.
    mwait_wake: int = 60                 # paper: §5.2 mwait wake
    monitor_arm: int = 25                # paper: §5.2 mwait arm
    poll_iteration: int = 6              # paper: §5.2 polling
    # Sibling throughput stolen by a polling SVt-thread.
    poll_smt_interference: float = 0.22  # paper: §6.1 poll overhead
    mutex_startup: int = 1800            # paper: §5.2 futex block
    mutex_wake: int = 2200               # paper: §5.2 futex wake
    # Command-ring payload: GPRs serialised at 2.5 ns per register
    # (tenths of ns so the model stays integral).
    channel_payload_regs: int = 16       # paper: §5.2 command ring
    channel_per_reg_tenths: int = 25     # paper: §5.2 command ring

    # Waking an idle (halted) vCPU thread: kvm_vcpu_kick IPI + scheduler
    # wakeup + run-queue latency.  This is context-switch cost in the
    # paper's sense: HW SVt replaces it with a thread resume; SW SVt's
    # mwait-parked SVt-thread avoids it for L1 wakes (the wake is the
    # channel's cache-line write), but still pays it for L2 wakes.
    idle_wake: int = 6000          # paper: §6.2 (effective)

    # -- interrupts --------------------------------------------------------
    # Effective values chosen so the interrupt-path results land on the
    # shapes of the paper's §6.2 subsystem benchmarks.
    irq_delivery: int = 300        # paper: §6.2 (wire/LAPIC to host)
    irq_inject: int = 800          # paper: §6.2 (inject into guest)
    ipi_cost: int = 500            # paper: §6.2 (effective)
    timer_program: int = 120       # paper: §6.2 (TSC-deadline WRMSR)
    eoi_cost: int = 100            # paper: §6.2 (effective)

    # -- misc ---------------------------------------------------------------
    pipeline_flush: int = 150      # paper: §4 (inside switch totals)
    memory_touch: int = 4          # paper: §6.1 (cache-hit access)

    # -- identity -----------------------------------------------------------
    # Stable name of the model these constants calibrate.  The default
    # instance *is* the paper's Xeon (Table 1), so a bare ``CostModel()``
    # and the registered ``xeon-paper`` model compare equal.  The id
    # rides along in ``dataclasses.asdict`` and therefore in the
    # cost-model fingerprint and the result-cache keys; the registry
    # (:mod:`repro.cpu.costmodels`) validates and resolves it.
    model_id: str = "xeon-paper"

    def __post_init__(self):
        for name in (
            "cpuid_guest_work", "switch_l2_l0", "switch_l0_l1",
            "vmcs_transform", "l0_lazy_switch", "l1_lazy_switch",
            "svt_stall_resume", "ctxt_access",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"cost {name} must be non-negative")
        if not 0 <= self.poll_smt_interference < 1:
            raise ConfigError("poll_smt_interference must be in [0, 1)")
        if not self.model_id or not isinstance(self.model_id, str):
            raise ConfigError("model_id must be a non-empty string")

    # -- per-crossing halves ------------------------------------------------

    @property
    def switch_l2_l0_each(self):
        """One direction of the guest<->host switch (Table 1 part 1 is
        the round-trip total)."""
        return self.switch_l2_l0 // 2

    @property
    def switch_l0_l1_each(self):
        """One direction of the L0<->L1 hypervisor switch (part 4)."""
        return self.switch_l0_l1 // 2

    @property
    def vmcs_transform_each(self):
        """One direction of the vmcs02<->vmcs12 transform (part 2 covers
        both Alg. 1 line 3 and line 14)."""
        return self.vmcs_transform // 2

    # -- handler lookups ----------------------------------------------------

    def l0_pure(self, reason):
        """Pure L0 nested-path handler cost for an exit reason."""
        return self.l0_handler_pure.get(reason, self.l0_handler_default)

    def l1_pure(self, reason):
        """Pure L1 handler cost for a reflected exit reason."""
        return self.l1_handler_pure.get(reason, self.l1_handler_default)

    def l0_single(self, reason):
        """L0 handler cost for a single-level guest's exit."""
        return self.l0_single_level.get(reason, self.l0_single_default)

    # -- channel helpers ----------------------------------------------------

    def cacheline_transfer(self, placement):
        """One cache-line ownership transfer for a placement ('smt',
        'core', or 'numa')."""
        table = {
            "smt": self.cacheline_transfer_smt,
            "core": self.cacheline_transfer_core,
            "numa": self.cacheline_transfer_numa,
        }
        try:
            return table[placement]
        except KeyError:
            raise ConfigError(f"unknown placement {placement!r}") from None

    def channel_payload_ns(self):
        """Serialising the register payload into/out of the ring."""
        return (self.channel_payload_regs * self.channel_per_reg_tenths) // 10

    def channel_one_way(self, placement="smt", mechanism="mwait"):
        """One command delivery: line transfer + payload + wake cost."""
        base = self.cacheline_transfer(placement) + self.channel_payload_ns()
        if mechanism == "mwait":
            return base + self.mwait_wake
        if mechanism == "polling":
            return base + self.poll_iteration
        if mechanism == "mutex":
            return base + self.mutex_wake
        raise ConfigError(f"unknown wait mechanism {mechanism!r}")

    # -- derived sanity anchors ----------------------------------------------

    def table1_total(self):
        """Baseline nested cpuid total — must equal 10 400 ns."""
        return (
            self.cpuid_guest_work
            + self.switch_l2_l0
            + self.vmcs_transform
            + self.l0_pure("CPUID") + self.l0_lazy_switch
            + self.switch_l0_l1
            + self.l1_pure("CPUID") + self.l1_lazy_switch
        )

    def with_overrides(self, **overrides):
        """A copy with some constants replaced (ablation hook).

        ``model_id`` passes through unchanged unless overridden — the
        copy is still "the xeon-paper model, perturbed"; pass
        ``model_id=`` to name a variant.  Result-cache and
        service-time-memo identity come from the fingerprint over *all*
        fields, never from the id alone, so two different perturbations
        sharing an id can never alias.
        """
        return dataclasses.replace(self, **overrides)
