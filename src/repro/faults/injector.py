"""The seeded fault injector: one decision engine for every fault site.

All randomness flows through :class:`repro.sim.rng.DeterministicRng`
streams forked from the plan's seed — one independent stream per fault
*site* (per ring, per interrupt controller, per VMCS), keyed by a
stable label.  Two properties follow:

* a fixed plan replays bit-for-bit, independent of process count or
  scheduling (the streams are derived from ``crc32(seed:label)``, never
  from call interleaving across sites);
* the zero-rate plan makes **no draws at all** (`decide` short-circuits
  on ``plan.is_zero``), so enabling the fault layer with rate 0.0 is
  byte-identical to not wiring it in.

The injector is also the resilience scoreboard: every injection is
counted per :class:`~repro.faults.plan.FaultKind`, and the recovery
machinery (watchdog retries, VMCS scrubbing, degradation) reports each
fault's final outcome back via :meth:`resolve_ring` /
:meth:`note_recovered` / :meth:`note_degraded` /
:meth:`note_deadlocked`.  Counters mirror into `repro.obs` when an
observer is attached (``faults_injected_total`` and friends).
"""

from dataclasses import dataclass

from repro.faults.plan import FaultKind, FaultPlan
from repro.sim.rng import DeterministicRng


@dataclass(frozen=True)
class VmcsCorruption:
    """Record of one injected VMCS fault (for detection/repair)."""

    vmcs_name: str
    fault: str          # "flip" | "clear"
    field: str
    old_value: int
    new_value: int


class FaultInjector:
    """Plan-driven fault decisions plus the resilience scoreboard."""

    def __init__(self, plan=None, obs=None):
        self.plan = plan or FaultPlan()
        self.obs = obs
        self._streams = {}
        #: Ring faults injected but not yet resolved, per ring name.
        self._open_ring_faults = {}
        #: Unrepaired VMCS corruptions, per VMCS name.
        self._open_vmcs = {}
        # -- scoreboard ---------------------------------------------------
        self.injected = {}     # kind -> count
        self.recovered = {}    # kind -> count
        self.degraded = 0      # SW SVt -> BASELINE downgrades
        self.deadlocked = 0    # runs that ended in a DeadlockReport

    # -- streams ---------------------------------------------------------

    def stream(self, label):
        """The per-site deterministic stream named ``label``."""
        rng = self._streams.get(label)
        if rng is None:
            rng = DeterministicRng(self.plan.seed).fork(label)
            self._streams[label] = rng
        return rng

    # -- bookkeeping ------------------------------------------------------

    def _count_injected(self, kind, n=1):
        self.injected[kind] = self.injected.get(kind, 0) + n
        if self.obs is not None:
            self.obs.count("faults_injected_total", n, kind=kind)

    def note_injected(self, kind, n=1):
        """Public injection counter for scenario-driven faults (the
        injector did not draw them itself)."""
        self._count_injected(kind, n)

    def note_recovered(self, kind, n=1):
        self.recovered[kind] = self.recovered.get(kind, 0) + n
        if self.obs is not None:
            self.obs.count("faults_recovered_total", n, kind=kind)

    def note_degraded(self):
        self.degraded += 1
        if self.obs is not None:
            self.obs.count("svt_degraded_total")

    def note_deadlocked(self):
        self.deadlocked += 1
        if self.obs is not None:
            self.obs.count("deadlocks_total")

    @property
    def total_injected(self):
        return sum(self.injected.values())

    @property
    def total_recovered(self):
        return sum(self.recovered.values())

    def counters(self):
        """Plain-dict scoreboard (JSON-ready, deterministic order)."""
        return {
            "injected": dict(sorted(self.injected.items())),
            "recovered": dict(sorted(self.recovered.items())),
            "degraded": self.degraded,
            "deadlocked": self.deadlocked,
        }

    # -- ring faults ------------------------------------------------------

    def ring_fault(self, ring_name):
        """Decide the fault (if any) for one command push.

        Returns a :class:`FaultKind.RING` member or ``None``.  One draw
        per push: a uniform sample walked through the cumulative
        per-class rates in fixed ``FaultKind.RING`` order.
        """
        if self.plan.is_zero:
            return None
        draw = self.stream(f"ring:{ring_name}").random()
        edge = 0.0
        for kind in FaultKind.RING:
            edge += self.plan.rate_for(kind)
            if draw < edge:
                self._count_injected(kind)
                self._open_ring_faults.setdefault(ring_name,
                                                  []).append(kind)
                return kind
        return None

    def open_ring_faults(self, ring_name):
        """Injected-but-unresolved faults on one ring (oldest first)."""
        return list(self._open_ring_faults.get(ring_name, []))

    def resolve_ring(self, ring_name, outcome):
        """Close every open fault on a ring as ``"recovered"`` or
        ``"degraded"`` (degraded faults are *not* counted recovered —
        the downgrade itself is recorded via :meth:`note_degraded`)."""
        open_faults = self._open_ring_faults.pop(ring_name, [])
        if outcome == "recovered":
            for kind in open_faults:
                self.note_recovered(kind)
        elif outcome != "degraded":
            raise ValueError(f"unknown ring outcome {outcome!r}")
        return len(open_faults)

    def delay_ns(self):
        """Invisibility window for a delayed command."""
        return self.plan.delay_ns

    def corrupt_payload(self, payload, ring_name):
        """Deterministically scramble one payload entry in place.

        Returns the corrupted key.  The command's seal (payload snapshot)
        was taken before this mutation, so receivers detect the damage
        via :meth:`repro.core.channel.Command.verify`.
        """
        rng = self.stream(f"corrupt:{ring_name}")
        if payload:
            key = sorted(payload)[rng.randint(0, len(payload) - 1)]
        else:
            key = "corrupted"
        payload[key] = rng.randint(0, 2 ** 32 - 1)
        return key

    # -- spurious interrupts ----------------------------------------------

    def schedule_spurious(self, interrupts, horizon_ns, contexts,
                          vectors=None):
        """Schedule plan-driven spurious interrupts over a horizon.

        Generalizes the §5.3 scenario: instead of one scripted IPI, a
        rate-scaled number of interrupts land at arbitrary (seeded) sim
        times on arbitrary contexts.  Returns the number scheduled.
        """
        rate = self.plan.rate_for(FaultKind.SPURIOUS_IRQ)
        if rate == 0.0 or horizon_ns <= 0 or not contexts:
            return 0
        rng = self.stream("spurious")
        expected = (horizon_ns / 1000.0) * self.plan.spurious_per_us * rate
        count = int(expected)
        if rng.bernoulli(expected - count):
            count += 1
        count = min(count, self.plan.max_spurious)
        from repro.cpu.interrupts import Vectors

        vectors = vectors or (Vectors.SPURIOUS, Vectors.IPI_RESCHEDULE,
                              Vectors.IPI_TLB_SHOOTDOWN)
        for _ in range(count):
            at = rng.randint(0, max(0, horizon_ns - 1))
            context = contexts[rng.randint(0, len(contexts) - 1)]
            vector = vectors[rng.randint(0, len(vectors) - 1)]
            interrupts.inject_spurious(context, vector, delay=at)
            self._count_injected(FaultKind.SPURIOUS_IRQ)
        return count

    # -- VMCS corruption --------------------------------------------------

    #: Scalar fields safe to flip (never dict-valued exit info).
    VMCS_CANDIDATES = (
        "svt_visor", "svt_vm", "svt_nested",
        "tsc_offset", "exception_bitmap",
        "pin_based_controls", "proc_based_controls",
    )

    def corrupt_vmcs(self, vmcs):
        """Maybe flip or clear one VMCS field; returns the corruption
        record (or ``None`` when the draw says no fault)."""
        if self.plan.rate_for(FaultKind.VMCS_FLIP) == 0.0:
            return None
        rng = self.stream(f"vmcs:{vmcs.name}")
        if not rng.bernoulli(self.plan.rate_for(FaultKind.VMCS_FLIP)):
            return None
        candidates = self.VMCS_CANDIDATES
        name = candidates[rng.randint(0, len(candidates) - 1)]
        old = vmcs.read(name)
        if rng.bernoulli(0.5):
            fault, new = "flip", old ^ (1 << rng.randint(0, 31))
        else:
            fault, new = "clear", 0
        if new == old:          # clearing an already-zero field
            new = old ^ 1
            fault = "flip"
        vmcs.write(name, new, force=True)
        self._count_injected(FaultKind.VMCS_FLIP)
        self._open_vmcs[vmcs.name] = self._open_vmcs.get(vmcs.name, 0) + 1
        return VmcsCorruption(vmcs_name=vmcs.name, fault=fault,
                              field=name, old_value=old, new_value=new)

    def resolve_vmcs(self, vmcs_name):
        """Close every open corruption on one VMCS as recovered (the
        scrubber restored a clean snapshot); returns how many."""
        count = self._open_vmcs.pop(vmcs_name, 0)
        if count:
            self.note_recovered(FaultKind.VMCS_FLIP, count)
        return count
