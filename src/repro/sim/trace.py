"""Category-tagged time accounting.

Every nanosecond the machine charges is attributed to a category.  The
categories mirror the breakdown rows of the paper's Table 1, plus extra
buckets used by the I/O and application models.  The Table 1 reproduction
(`repro.analysis.breakdown.table1_rows`) folds these totals back into the
paper's rows through :data:`TABLE1_ROWS`.
"""

from collections import defaultdict


class Category:
    """Trace category names (string constants, not an enum, so workload
    models can mint sub-categories like ``"exit:EPT_MISCONFIG"``)."""

    GUEST_WORK = "guest_work"            # part 0: useful L2/L1/L0 work
    SWITCH_L2_L0 = "switch_l2_l0"        # part 1: explicit L2<->L0 switch
    VMCS_TRANSFORM = "vmcs_transform"    # part 2: vmcs02<->vmcs12 transform
    L0_HANDLER = "l0_handler"            # part 3: L0 emulation work
    L0_LAZY_SWITCH = "l0_lazy_switch"    # part 3 (hidden): lazy save/restore
    SWITCH_L0_L1 = "switch_l0_l1"        # part 4: explicit L0<->L1 switch
    L1_HANDLER = "l1_handler"            # part 5: L1 emulation work
    L1_LAZY_SWITCH = "l1_lazy_switch"    # part 5 (hidden): lazy save/restore
    STALL_RESUME = "stall_resume"        # SVt thread stall/resume events
    CHANNEL = "channel"                  # SW SVt command-ring transfer+wake
    CROSS_CONTEXT = "cross_context"      # ctxtld/ctxtst execution
    IO_WIRE = "io_wire"                  # network fabric / media time
    IO_DEVICE = "io_device"              # device-model processing
    INTERRUPT = "interrupt"              # interrupt delivery/injection
    WATCHDOG = "watchdog"                # fault-recovery backoff waits
    IDLE = "idle"                        # waiting with no one running


#: The paper's Table 1 rows: label plus the categories folded into it.
#: Lazy save/restore folds into the handler rows, as the paper folds it
#: ("some of the context switching costs in (1) and (4) are folded into
#: (3) and (5)").
TABLE1_ROWS = (
    ("0 L2", (Category.GUEST_WORK,)),
    ("1 Switch L2<->L0", (Category.SWITCH_L2_L0,)),
    ("2 Transform vmcs02/vmcs12", (Category.VMCS_TRANSFORM,)),
    ("3 L0 handler", (Category.L0_HANDLER, Category.L0_LAZY_SWITCH)),
    ("4 Switch L0<->L1", (Category.SWITCH_L0_L1,)),
    ("5 L1 handler", (Category.L1_HANDLER, Category.L1_LAZY_SWITCH)),
)


class Tracer:
    """Accumulates per-category charged time and charge counts.

    ``observer`` (a :class:`repro.obs.Observer`, attached by the
    machine when observability is on) receives every charge as a span;
    it defaults off, keeping the disabled hot path to two dict updates.
    """

    def __init__(self):
        self.totals = defaultdict(int)
        self.counts = defaultdict(int)
        self.observer = None

    def record(self, category, ns):
        """Attribute ``ns`` nanoseconds to ``category``."""
        if ns < 0:
            raise ValueError(f"negative trace charge {ns} for {category}")
        self.totals[category] += ns
        self.counts[category] += 1
        if self.observer is not None:
            self.observer.charge(category, ns)

    def add(self, category, ns, count):
        """``count`` records totalling ``ns`` in one step: the batched
        twin of :meth:`record` for charges made with
        :meth:`repro.sim.engine.Simulator.try_charge`.  An observer
        needs one interval per record, so it must not be attached."""
        if self.observer is not None:
            raise ValueError("batched trace charge with an observer "
                             "attached")
        if ns < 0:
            raise ValueError(f"negative trace charge {ns} for {category}")
        self.totals[category] += ns
        self.counts[category] += count

    def total(self, *categories):
        """Sum of the given categories (all categories when none given)."""
        if not categories:
            return sum(self.totals.values())
        return sum(self.totals.get(c, 0) for c in categories)

    def snapshot(self):
        """Plain-dict copy of the totals (useful for diffs in tests)."""
        return dict(self.totals)

    def __repr__(self):
        body = ", ".join(
            f"{cat}={ns}" for cat, ns in sorted(self.totals.items())
        )
        return f"Tracer({body})"
