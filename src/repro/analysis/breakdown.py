"""Time-breakdown accounting (paper Table 1 and the §6.2/§6.3 profiles)."""

from repro.sim.trace import TABLE1_ROWS


def table1_rows(totals, operations=1):
    """Render category totals (a ``{category: ns}`` mapping) as the
    paper's Table 1 rows ``[(label, us, percent)]``, per operation.

    Each category is divided by ``operations`` before the folded
    categories of a row (:data:`~repro.sim.trace.TABLE1_ROWS`) are
    added; the committed Table 1 bytes depend on that order.
    """
    per_op = {key: totals[key] / operations for key in totals}
    rows = [
        (label, sum(per_op.get(category, 0) for category in categories))
        for label, categories in TABLE1_ROWS
    ]
    total = sum(ns for _, ns in rows) or 1
    return [(label, ns / 1000.0, 100.0 * ns / total) for label, ns in rows]


def exit_reason_profile(stack):
    """Share of exit-handling time per reason (paper §6.2/§6.3 profiling:
    "L0 spends 4.8%-19.3% of the overall time serving EPT_MISCONFIG
    traps...").  Returns ``{reason: fraction}`` sorted descending."""
    total = sum(stack.exit_ns.values()) + sum(stack.aux_exit_ns.values())
    if total == 0:
        return {}
    shares = {
        reason: ns / total for reason, ns in stack.exit_ns.items()
    }
    for reason, ns in stack.aux_exit_ns.items():
        shares[f"aux:{reason}"] = ns / total
    return dict(sorted(shares.items(), key=lambda item: -item[1]))


def vmcs_access_share(stack):
    """Fraction of exit-handling time spent *in the L0 handlers* of L1's
    VMCS accesses (paper §6.2: "of all time spent handling VM traps in
    L0, only about 4% is spent in the VM trap handlers triggered by VMCS
    accesses in L1").  Handler time only — the switch cost around each
    access is context switching, not handling."""
    total = sum(stack.exit_ns.values()) + sum(stack.aux_exit_ns.values())
    if total == 0:
        return 0.0
    handler_ns = sum(
        stack.aux_exit_counts.get(kind, 0) * stack.costs.l0_pure(kind)
        for kind in ("VMREAD", "VMWRITE")
    )
    return handler_ns / total
