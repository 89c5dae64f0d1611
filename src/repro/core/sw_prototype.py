"""SW SVt prototype protocol pieces (paper §5.2-§5.3).

Two things live here beyond what the switch engine already does:

* **Thread pairing** — L1 creates an SVt-thread per L2 vCPU and pairs the
  two via a hypercall so L0 can gang-schedule them onto sibling hardware
  threads of one core (:func:`install_pairing_hypercall`).

* **The §5.3 interrupt deadlock** — :class:`DeadlockScenario` replays the
  exact five-step interleaving of the paper: (1) the vCPUs L1_0 and L1_1
  run on hypervisor threads L0_0/L0_1; (2) L0_0 sends CMD_VM_TRAP to the
  SVt-thread in L1_1; (3) another kernel thread in L1_1 preempts the
  SVt-thread; (4) that thread IPIs the L1_0 vCPU and synchronously waits
  (e.g. a TLB shootdown); (5) L0_0 is blocked waiting for CMD_VM_RESUME
  and never runs L1_0 — deadlock.  With the fix, L0_0's wait loop watches
  for interrupts targeting L1_0 and injects a synthetic ``SVT_BLOCKED``
  trap so the vCPU can take the IPI and yield back.
"""

from dataclasses import dataclass, field

from repro.core.channel import CommandKind, PairedChannels
from repro.cpu import costmodels
from repro.errors import ChannelError, DeadlockError
from repro.sim.engine import Simulator

#: Hypercall number L1 uses to pair an L2 vCPU thread with its SVt-thread.
SVT_PAIR_HYPERCALL = 0x53


@dataclass
class Pairing:
    """One (L2 vCPU thread, SVt-thread) pair L0 must co-schedule."""

    vcpu_thread: str
    svt_thread: str
    core_id: int = 0


class PairingRegistry:
    """L0-side bookkeeping of §5.2's pairing hypercall."""

    def __init__(self):
        self.pairs = []

    def pair(self, payload):
        """Hypercall body: register the pair; returns its index."""
        pairing = Pairing(
            vcpu_thread=payload.get("vcpu_thread", "L2.vcpu0"),
            svt_thread=payload.get("svt_thread", "L1.svt0"),
            core_id=payload.get("core_id", 0),
        )
        self.pairs.append(pairing)
        return len(self.pairs) - 1

    def sibling_of(self, thread_name):
        for pairing in self.pairs:
            if pairing.vcpu_thread == thread_name:
                return pairing.svt_thread
            if pairing.svt_thread == thread_name:
                return pairing.vcpu_thread
        return None


def install_pairing_hypercall(machine):
    """Wire the SVT_PAIR hypercall into a machine's L0 hypervisor and
    return the registry it fills."""
    registry = PairingRegistry()
    machine.l0.register_hypercall(SVT_PAIR_HYPERCALL, registry.pair)
    return registry


# ---------------------------------------------------------------------------
# The §5.3 deadlock
# ---------------------------------------------------------------------------

@dataclass
class DeadlockResult:
    completed: bool
    finished_at_ns: int
    blocked_traps_injected: int
    timeline: list = field(default_factory=list)
    #: Structured :class:`repro.sim.engine.DeadlockReport` naming the
    #: blocked waiters and their wait-for edges (None when completed).
    report: object = None


class DeadlockScenario:
    """Replay of the §5.3 interleaving, with or without the fix."""

    #: How long the SVt-thread's trap handling takes when undisturbed.
    HANDLING_NS = 5_000
    #: When the kernel thread preempts the SVt-thread.
    PREEMPT_AT_NS = 1_000
    #: L1_0's IPI acknowledgement latency once it runs.
    ACK_NS = 400
    #: L0_0's interrupt-check period while waiting (the fix's poll).
    CHECK_PERIOD_NS = 500

    def __init__(self, with_fix, costs=None, obs=None):
        self.with_fix = with_fix
        self.costs = costmodels.resolve(costs)
        self.sim = Simulator()
        self.obs = obs
        if obs is not None:
            obs.bind(self.sim)
            self.sim.obs = obs
        self.channels = PairedChannels("deadlock.vcpu0", obs=obs)
        self.timeline = []
        self._svt_remaining = self.HANDLING_NS
        self._svt_preempted = False
        self._ipi_pending_for_l10 = False
        self._kernel_thread_waiting = False
        self._completed = False
        self._blocked_injected = 0
        self._completion_handle = None

    def _log(self, message):
        self.timeline.append((self.sim.now, message))

    # -- scenario steps -------------------------------------------------------

    def run(self):
        """Run the interleaving to quiescence and report the outcome.

        Never raises: when the interleaving deadlocks, the simulator's
        drained-queue detector fires a :class:`~repro.errors.DeadlockError`
        whose structured report (blocked waiters + wait-for edges) is
        captured onto the returned :class:`DeadlockResult`.
        """
        # Step 2: L0_0 sends CMD_VM_TRAP and starts waiting.
        self.channels.send_trap({"exit_reason": "EPT_MISCONFIG"},
                                now=self.sim.now)
        self.channels.take_request()
        self._log("L0_0 sent CMD_VM_TRAP, waiting for CMD_VM_RESUME")
        self.sim.park("L0_0", waits_on=self.channels.response.name,
                      blocked_on="L1_1.svt")
        self._completion_handle = self.sim.after(
            self.HANDLING_NS, self._svt_thread_finishes
        )
        # Step 3: a kernel thread in L1_1 preempts the SVt-thread.
        self.sim.after(self.PREEMPT_AT_NS, self._preempt)
        if self.with_fix:
            self.sim.after(self.CHECK_PERIOD_NS, self._l0_wait_check)
        report = None
        try:
            self.sim.run_until_idle()
        except DeadlockError as err:
            report = err.report
        return DeadlockResult(
            completed=self._completed,
            finished_at_ns=self.sim.now,
            blocked_traps_injected=self._blocked_injected,
            timeline=list(self.timeline),
            report=report,
        )

    def _preempt(self):
        self._svt_preempted = True
        self._svt_remaining = max(0, self.HANDLING_NS - self.sim.now)
        if self._completion_handle is not None:
            self._completion_handle.cancel()
        self._log("kernel thread preempts SVt-thread in L1_1")
        self.sim.park("L1_1.svt", waits_on="cpu (preempted)",
                      blocked_on="L1_1.kernel")
        # Step 4: it IPIs the L1_0 vCPU and waits for the ack.
        self._ipi_pending_for_l10 = True
        self._kernel_thread_waiting = True
        self._log("kernel thread sends IPI to L1_0 and waits")
        self.sim.park("L1_1.kernel", waits_on="IPI ack from L1_0",
                      blocked_on="L1_0")
        # L1_0 itself can only run when L0_0 schedules it — the edge
        # that closes §5.3's cycle back to the blocked hypervisor.
        self.sim.park("L1_0", waits_on="being scheduled",
                      blocked_on="L0_0")
        # Without the fix nothing else is scheduled: L0_0 never runs
        # L1_0, the ack never comes — the event queue drains: deadlock.

    def _l0_wait_check(self):
        """The fix: while waiting for CMD_VM_RESUME, L0_0 checks for
        interrupts targeting the L1_0 vCPU (paper §5.3)."""
        if self._completed:
            return
        if self._ipi_pending_for_l10:
            self._blocked_injected += 1
            self._ipi_pending_for_l10 = False
            if self.obs is not None:
                self.obs.count("svt_blocked_injections_total")
            self._log("L0_0 injects SVT_BLOCKED into L1_0")
            # L1_0 enables interrupts, handles the IPI, yields back.
            self.sim.after(self.ACK_NS, self._l10_acks_ipi)
        self.sim.after(self.CHECK_PERIOD_NS, self._l0_wait_check)

    def _l10_acks_ipi(self):
        self._log("L1_0 handled the IPI and yielded back to L0_0")
        self.sim.unpark("L1_0")
        if self._kernel_thread_waiting:
            self._kernel_thread_waiting = False
            self.sim.unpark("L1_1.kernel")
            # The kernel thread proceeds and reschedules the SVt-thread.
            self.sim.after(100, self._svt_thread_resumes)

    def _svt_thread_resumes(self):
        self._svt_preempted = False
        self.sim.unpark("L1_1.svt")
        self._log("SVt-thread rescheduled, resumes trap handling")
        self._completion_handle = self.sim.after(
            self._svt_remaining, self._svt_thread_finishes
        )

    def _svt_thread_finishes(self):
        if self._svt_preempted:
            return
        try:
            self.channels.send_resume({"regs": {}}, now=self.sim.now)
            response = self.channels.take_response()
        except ChannelError:
            return
        assert response.kind == CommandKind.VM_RESUME
        self._completed = True
        self.sim.unpark("L0_0")
        self._log("SVt-thread sent CMD_VM_RESUME; L0_0 resumes L2")
