"""SVT002 — every timing constant must cite the paper.

The whole simulation is calibrated against the paper's published
numbers; a timing constant with no provenance is unreviewable and
silently decays as the model evolves.  In ``repro/cpu/costs.py``, the
cost-model registry under ``repro/cpu/costmodels/`` and
``repro/analysis/hw_model.py`` every numeric constant site —

* class- or module-level assignments (the ``CostModel`` fields),
* numeric values inside dict literals (the per-exit-reason handler
  tables),
* numeric parameter defaults (``interrupt_wake_share=0.85``),
* numeric keyword arguments in calls (``with_overrides(...)``),

— must carry a ``# paper:`` comment naming a table, figure, section
(``§``), algorithm or appendix.  A citation counts when it sits on the
literal's own line, on a comment line directly above the literal (inside
a dict), on the statement's first line, or in the comment block
immediately above the statement (one citation may cover a whole dict).

The shared backoff policy (``repro/faults/backoff.py``) is not
paper-calibrated: a constant there may instead carry a ``# synthetic:``
comment with a non-empty rationale (*why* that number), so engineering
choices are still reviewable — but the paper modules accept only
``# paper:``.
"""

from __future__ import annotations

import ast
import re
from typing import Optional, Union

from repro.lint.engine import LintContext, Rule, package_scoped
from repro.lint.source import SourceFile

#: Modules (or packages) whose constants accept only ``# paper:``.
MODULES = ("repro.cpu.costs", "repro.cpu.costmodels",
           "repro.analysis.hw_model")

#: Modules where ``# synthetic: <rationale>`` also counts: the shared
#: backoff policy, whose schedule constants are engineering choices,
#: not measurements.
SYNTHETIC_PREFIXES = ("repro.faults.backoff",)

_PAPER_RE = re.compile(r"#\s*paper:", re.I)
_SYNTH_RE = re.compile(r"#\s*synthetic:", re.I)
#: A synthetic citation must say *why* the number deviates.
_SYNTH_RATIONALE_RE = re.compile(r"#\s*synthetic:\s*[^\s#]", re.I)
#: The citation must actually name an anchor in the paper.
_ANCHOR_RE = re.compile(
    r"#\s*paper:[^#]*?("
    r"table\s*\d|fig(ure)?s?\.?\s*\d|§\s*[\dA-Z]|sect?(ion)?\.?\s*[\dA-Z]"
    r"|alg(orithm)?\.?\s*\d|appendix\s*\w)",
    re.I,
)

_NumericNode = Union[ast.Constant, ast.UnaryOp]


def _numeric_literal(node: ast.AST) -> Optional[_NumericNode]:
    """The node itself when it is an int/float literal (incl. ``-x``)."""
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        return node
    if (isinstance(node, ast.UnaryOp)
            and isinstance(node.op, ast.USub)
            and _numeric_literal(node.operand) is not None):
        return node
    return None


class ProvenanceRule(Rule):
    """SVT002: numeric timing constants carry ``# paper:`` citations."""

    rule_id = "SVT002"
    title = "cost-model provenance"

    def applies(self, source: SourceFile) -> bool:
        return package_scoped(source, MODULES + SYNTHETIC_PREFIXES)

    # -- citation lookup -------------------------------------------------

    @staticmethod
    def _synthetic_ok(source: SourceFile) -> bool:
        return package_scoped(source, SYNTHETIC_PREFIXES)

    def _cited(self, source: SourceFile, line: int) -> Optional[bool]:
        """True: anchored citation; False: malformed; None: absent."""
        comment = source.comments.get(line)
        if comment is None:
            return None
        if _PAPER_RE.search(comment):
            return bool(_ANCHOR_RE.search(comment))
        if self._synthetic_ok(source) and _SYNTH_RE.search(comment):
            return bool(_SYNTH_RATIONALE_RE.search(comment))
        return None

    def _block_cited(self, source: SourceFile,
                     below: int) -> Optional[bool]:
        """Citation status of the comment/blank run above ``below``."""
        line = below - 1
        status: Optional[bool] = None
        while line >= 1 and (line in source.comment_only_lines
                             or source.line_is_blank(line)):
            cited = self._cited(source, line)
            if cited:
                return True
            if cited is False:
                status = False
            line -= 1
        return status

    def _check(self, literal: _NumericNode, ctx: LintContext) -> None:
        source = ctx.source
        stmt = source.enclosing_statement(literal)
        line = literal.lineno
        statuses = [
            self._cited(source, line),            # on the literal line
            self._block_cited(source, line),      # comments above it
            self._cited(source, stmt.lineno),     # on the stmt header
            self._block_cited(source, stmt.lineno),  # above the stmt
        ]
        if True in statuses:
            return
        value = ast.get_source_segment(source.text, literal) or "?"
        if False in statuses:
            ctx.report(self, literal,
                       f"citation for constant {value} must name a "
                       "table/figure/section (e.g. '# paper: Table 1')"
                       + (" or give a '# synthetic:' rationale"
                          if self._synthetic_ok(source) else ""))
        elif self._synthetic_ok(source):
            ctx.report(self, literal,
                       f"timing constant {value} has no '# paper:' or "
                       "'# synthetic:' citation")
        else:
            ctx.report(self, literal,
                       f"timing constant {value} has no '# paper:' "
                       "citation")

    # -- constant sites --------------------------------------------------

    def visit_Assign(self, node: ast.Assign, ctx: LintContext) -> None:
        if ctx.at_class_or_module_level():
            literal = _numeric_literal(node.value)
            if literal is not None:
                self._check(literal, ctx)

    def visit_AnnAssign(self, node: ast.AnnAssign,
                        ctx: LintContext) -> None:
        if ctx.at_class_or_module_level() and node.value is not None:
            literal = _numeric_literal(node.value)
            if literal is not None:
                self._check(literal, ctx)

    def visit_Dict(self, node: ast.Dict, ctx: LintContext) -> None:
        for value in node.values:
            literal = _numeric_literal(value)
            if literal is not None:
                self._check(literal, ctx)

    def visit_Call(self, node: ast.Call, ctx: LintContext) -> None:
        # Override calls (`model.with_overrides(switch_l2_l0=560, ...)`)
        # pass their constants as keyword arguments; positional
        # numerics stay out of scope (loop bounds, rounding digits and
        # similar incidental literals).
        for keyword in node.keywords:
            literal = _numeric_literal(keyword.value)
            if literal is not None:
                self._check(literal, ctx)

    def visit_arguments(self, node: ast.arguments,
                        ctx: LintContext) -> None:
        defaults = list(node.defaults) + [
            default for default in node.kw_defaults
            if default is not None
        ]
        for default in defaults:
            literal = _numeric_literal(default)
            if literal is not None:
                self._check(literal, ctx)
