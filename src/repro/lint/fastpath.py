"""SVT006 — per-instruction loops must charge time, not drain events.

The fast-path engine (``docs/performance.md``) makes
:meth:`~repro.sim.engine.Simulator.charge` the cheap way to account
simulated time: it only touches the event heap when a deadline is
actually due, so a hot loop charging small costs runs at memory speed.
:meth:`~repro.sim.engine.Simulator.advance` is the heavyweight sibling
— every call drains the heap and refreshes the deadline cache — and a
workload/core/virt loop calling it per instruction silently forfeits
the batched-time fast path (and, before the cache existed, was the
dominant cost in every instruction-heavy cell).

The rule flags every ``<sim>.advance(...)`` call that sits lexically
inside a ``for``/``while`` loop in the modelling packages
(``repro.workloads``, ``repro.core``, ``repro.cpu``, ``repro.virt``).
The receiver must look like a simulator (its attribute/name chain
mentions ``sim``); calls outside loops — setup, single-shot scheduling
— stay legal.  A loop that genuinely needs drain-per-step semantics
must say why: a bare ``# svtlint: disable=SVT006`` is itself a finding
— the suppression comment must carry a justification after the
directive, e.g.::

    # svtlint: disable=SVT006 — drain required: each step observes
    # the queue emptied by the previous advance.
    sim.advance(step_ns)
"""

from __future__ import annotations

import ast

from repro.lint.engine import LintContext, Rule, package_scoped
from repro.lint.source import SourceFile, suppression_justified

PACKAGES = ("repro.workloads", "repro.core", "repro.cpu", "repro.virt")

#: Minimum justification length (after stripping punctuation) for a
#: ``disable=SVT006`` comment to count as explained.
MIN_JUSTIFICATION = 8

_LOOP_TYPES = (ast.For, ast.AsyncFor, ast.While)


def _receiver_chain(node: ast.expr) -> list[str]:
    """Dotted parts of an attribute chain, e.g. ``self.machine.sim``."""
    parts: list[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
    return parts


def _looks_like_simulator(receiver: ast.expr) -> bool:
    return any("sim" in part.lower() for part in _receiver_chain(receiver))


class FastPathRule(Rule):
    """SVT006: sim.advance in a hot loop bypasses the charge fast path."""

    rule_id = "SVT006"
    title = "advance in loop"

    def __init__(self) -> None:
        self._loop_spans: list[tuple[int, int]] = []

    def applies(self, source: SourceFile) -> bool:
        return package_scoped(source, PACKAGES)

    def begin(self, ctx: LintContext) -> None:
        # The shared walker keeps no loop stack, so precompute the line
        # span of every loop body once per file.
        self._loop_spans = [
            (node.lineno, node.end_lineno or node.lineno)
            for node in ast.walk(ctx.source.tree)
            if isinstance(node, _LOOP_TYPES)
        ]

    def _in_loop(self, line: int) -> bool:
        return any(start <= line <= end
                   for start, end in self._loop_spans)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        func = node.func
        if not (isinstance(func, ast.Attribute)
                and func.attr == "advance"
                and _looks_like_simulator(func.value)):
            return
        line = node.lineno
        if not self._in_loop(line):
            return
        if ctx.source.suppressed(line, self.rule_id):
            # The directive is live either way (it silences the loop
            # finding); record the hit so SVT009 never calls it stale.
            ctx.note_suppressed(line, self.rule_id)
            if suppression_justified(ctx.source, line,
                                     MIN_JUSTIFICATION):
                return
            ctx.report(
                self, node,
                "sim.advance in a loop suppressed without "
                "justification; explain why drain-per-step is needed "
                "after the directive (e.g. '# svtlint: disable=SVT006 "
                "— drain required: ...')",
                force=True,
            )
            return
        ctx.report(
            self, node,
            "per-instruction loop calls sim.advance, which drains the "
            "event heap every step and bypasses the batched-time fast "
            "path; charge time via sim.charge(ns) instead, or add a "
            "justified '# svtlint: disable=SVT006 — ...' comment",
        )
