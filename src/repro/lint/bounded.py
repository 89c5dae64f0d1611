"""SVT005 — unbounded ``while`` loops in the core protocol code.

The chaos layer (``docs/robustness.md``) guarantees that every blocking
wait in ``repro.core`` either recovers, degrades, or raises a structured
:class:`~repro.errors.DeadlockError` — never hangs.  That guarantee is
only as strong as the loops underneath it: a retry/drain loop with no
watchdog, cycle budget, or deadline can spin forever the moment a fault
plan (or a bug) starves its exit condition.

The rule flags every ``while`` statement under a ``PACKAGES`` tree whose
test *and* body mention no budget-ish identifier (``watchdog``,
``budget``, ``deadline``, ``limit``, ``strike``, ``timeout``, ...; see
``BUDGET_TOKENS``).  Loops that are structurally bounded for a subtler
reason (e.g. every iteration pops a finite ring and the empty ring
raises) must say so: a bare ``# svtlint: disable=SVT005`` is itself a
finding — the suppression comment must carry a justification after the
directive, e.g.::

    # svtlint: disable=SVT005 — bounded: each iteration pops one
    # entry; an empty ring raises ChannelError.
    while True:
        ...
"""

from __future__ import annotations

import ast

from repro.lint.engine import LintContext, Rule, package_scoped
from repro.lint.source import SourceFile, suppression_justified

PACKAGES = ("repro.core",)

#: Substrings whose presence in an identifier marks the loop as guarded
#: by some finite resource (case-insensitive).
BUDGET_TOKENS = (
    "watchdog", "budget", "deadline", "limit", "strike", "timeout",
    "retr", "remain", "attempt", "drain", "spin", "countdown",
    "fuel", "max_", "_max", "exhaust",
)

#: Minimum justification length (after stripping punctuation) for a
#: ``disable=SVT005`` comment to count as explained.
MIN_JUSTIFICATION = 8


def _identifiers(node: ast.AST) -> set[str]:
    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(sub.name)
    return names


def _mentions_budget(node: ast.AST) -> bool:
    return any(token in name.lower()
               for name in _identifiers(node)
               for token in BUDGET_TOKENS)


class BoundedLoopRule(Rule):
    """SVT005: while loops in repro.core need a cycle budget or watchdog."""

    rule_id = "SVT005"
    title = "unbounded loop"

    def applies(self, source: SourceFile) -> bool:
        return package_scoped(source, PACKAGES)

    def visit_While(self, node: ast.While, ctx: LintContext) -> None:
        if _mentions_budget(node.test):
            return
        if any(_mentions_budget(stmt) for stmt in node.body):
            return
        line = node.lineno
        if ctx.source.suppressed(line, self.rule_id):
            # The directive is live either way (it silences the loop
            # finding); record the hit so SVT009 never calls it stale.
            ctx.note_suppressed(line, self.rule_id)
            if suppression_justified(ctx.source, line,
                                     MIN_JUSTIFICATION):
                return
            ctx.report(
                self, node,
                "unbounded while loop suppressed without justification; "
                "explain the bound after the directive (e.g. "
                "'# svtlint: disable=SVT005 — bounded: ...')",
                force=True,
            )
            return
        ctx.report(
            self, node,
            "while loop with no watchdog/cycle-budget identifier in its "
            "test or body can hang under fault injection; bound it or "
            "add a justified '# svtlint: disable=SVT005 — ...' comment",
        )
