"""SVT007 — sim-state race detector (lockset/ownership approximation).

The paper's core invariant (§4): L0/L1/L2 share physical core state —
PRF windows, VMCS shadows, command rings — and may only touch it
through operations ordered by the simulated clock (charges, channel
push/pop, context switches).  In the simulator those shared objects
live in ``repro.cpu.context``, ``repro.cpu.prf``, ``repro.virt.vmcs``
and ``repro.core.channel``; this rule flags writes to their attributes
from code that more than one simulated context can reach *without* an
engine/channel/switch ordering call on the way.

The approximation, in whole-program terms (see
:mod:`repro.lint.graph`):

* **shared state** — every class defined in a ``SHARED_MODULES``
  module; its field set is everything assigned through ``self`` plus
  annotated class attributes.  A *write access* is either a direct
  attribute assignment whose receiver names a shared instance
  (``vmcs02.ept = ...``; receivers are matched by the per-module
  token patterns in ``SHARED_MODULES``) or a call to one of the
  class's mutator methods through such a receiver
  (``context.write(...)``).
* **ownership/lockset** — instead of locks, the simulator orders
  accesses by the sim clock.  A function holds the "lock" when it is
  defined in an ordering module (the engine, switch, channel, SMT
  core — their methods *are* the ordering primitives) or its body
  calls an ordering API (``ORDERING_CALLS``); flow-insensitive by
  design, so hoisting the charge above the write still counts.
* **multi-context reachability** — context roots are module prefixes
  (guest run loop, hypervisor exit paths, device completions, the
  software SVT thread) plus every callback handed to ``sim.at`` /
  ``sim.after`` (the event context).  A write access in a function
  reachable from two or more labels without holding the lock is a
  finding.

False positives are expected at the margin of any lockset
approximation — that is what justified ``# svtlint: disable=SVT007``
rationales are for (docs/static-analysis.md).
"""

from __future__ import annotations

import ast
from typing import Optional

from repro.lint.engine import ProjectContext, ProjectRule
from repro.lint.graph import (ClassInfo, FunctionInfo, ProjectGraph,
                              _terminal_name)

#: Shared-state module -> receiver-name tokens that mark an instance.
SHARED_MODULES: dict[str, tuple[str, ...]] = {
    "repro.cpu.context": ("context", "ctx"),
    "repro.cpu.prf": ("prf", "registers", "rename"),
    "repro.virt.vmcs": ("vmcs",),
    "repro.core.channel": ("ring", "channel", "chan"),
}

#: Modules whose functions *are* the ordering primitives.
ORDERING_MODULES: tuple[str, ...] = (
    "repro.sim.engine", "repro.core.switch", "repro.core.channel",
    "repro.cpu.smt",
)

#: Calls that order an access against the sim clock: time charges,
#: event scheduling, channel operations, and context-switch APIs.
ORDERING_CALLS: frozenset[str] = frozenset({
    "charge", "advance", "at", "after", "park", "unpark",
    "run_until_idle",
    "try_push", "push", "pop", "peek",
    "take_request", "take_response",
    "send_trap", "send_resume", "try_send_trap", "try_send_resume",
    "svt_trap", "svt_resume", "force_fetch", "load_svt_fields",
    "cross_read", "cross_write",
    "enter_l1", "leave_l1", "exit_l2_to_l0", "resume_l2",
    "_switch_fetch", "_charge", "_hop",
})

#: Context roots: label -> module prefixes whose functions may run
#: under that simulated context.
CONTEXT_ROOTS: dict[str, tuple[str, ...]] = {
    "guest": ("repro.core.system", "repro.workloads"),
    "hypervisor": ("repro.virt",),
    "device": ("repro.io",),
    "svt-thread": ("repro.core.sw_prototype",),
}

#: Attribute names whose calls schedule event callbacks.
EVENT_SCHEDULERS: frozenset[str] = frozenset({"at", "after"})

#: Construction/boot-phase functions: they run to completion before
#: the simulation starts interleaving contexts, so their writes (and,
#: caller-transitively, the helpers only they call) are ordered by
#: construction — the paper's race concern is steady-state exits, not
#: machine bring-up.
SETUP_FUNCTIONS: frozenset[str] = frozenset({"__init__", "__post_init__",
                                             "boot", "reset"})


class SimStateRaceRule(ProjectRule):
    """SVT007: shared sim state written off the engine's ordering."""

    rule_id = "SVT007"
    title = "sim-state race"

    shared_modules = SHARED_MODULES
    ordering_modules = ORDERING_MODULES
    ordering_calls = ORDERING_CALLS
    context_roots = CONTEXT_ROOTS

    def check_project(self, graph: ProjectGraph,
                      ctx: ProjectContext) -> None:
        shared = self._shared_classes(graph)
        if not shared:
            return
        labels = self._labels(graph)
        protected = self._protected_set(graph)
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            function_labels = labels.get(qualname, frozenset())
            if len(function_labels) < 2:
                continue
            if qualname in protected:
                continue
            for node, cls, fieldname in self._write_accesses(
                    info, shared):
                contexts = ", ".join(sorted(function_labels))
                ctx.report(
                    self, info.source, node,
                    f"write to shared {cls.name}.{fieldname} in "
                    f"'{info.name}' is reachable from contexts "
                    f"({contexts}) with no engine/channel/switch "
                    "ordering call on the path; charge sim time or "
                    "route through the switch/channel APIs (or "
                    "justify: '# svtlint: disable=SVT007 — ...')",
                )

    # -- shared-state discovery ------------------------------------------

    def _shared_classes(self, graph: ProjectGraph) -> list[ClassInfo]:
        return [info for qualname in sorted(graph.classes)
                for info in [graph.classes[qualname]]
                if info.module in self.shared_modules]

    def _patterns_for(self, cls: ClassInfo) -> tuple[str, ...]:
        return self.shared_modules[cls.module]

    def _receiver_matches(self, cls: ClassInfo,
                          receiver: ast.AST) -> bool:
        name = _terminal_name(receiver).lower()
        if not name or name == "self":
            return False
        return any(token in name for token in self._patterns_for(cls))

    # -- ordering / lockset ----------------------------------------------

    def _protected_set(self, graph: ProjectGraph) -> set[str]:
        """Functions holding the ordering "lock", caller-transitively.

        Directly protected functions order themselves (module or body
        call, :meth:`_holds_ordering`).  A function whose *every*
        caller in the batch is protected inherits protection — the
        ordering API was passed through on the way in (the VMCS
        transform helpers, called only inside the charged reflection
        window, are the canonical case).  Functions with no callers
        (roots) never inherit.
        """
        protected = {qualname for qualname in graph.functions
                     if self._holds_ordering(
                         graph.functions[qualname])}
        callers: dict[str, set[str]] = {}
        for caller, callees in graph.calls.items():
            for callee in callees:
                callers.setdefault(callee, set()).add(caller)
        changed = True
        while changed:
            changed = False
            for qualname in sorted(graph.functions):
                if qualname in protected:
                    continue
                inbound = callers.get(qualname, set())
                if inbound and inbound <= protected:
                    protected.add(qualname)
                    changed = True
        return protected

    def _holds_ordering(self, info: FunctionInfo) -> bool:
        if info.name in SETUP_FUNCTIONS:
            return True
        if any(info.module == m or info.module.startswith(m + ".")
               for m in self.ordering_modules):
            return True
        if info.cls is not None:
            # Methods of a shared class order its own fields: callers
            # are charged at the call site, not inside the accessor.
            cls_module = info.module
            if cls_module in self.shared_modules:
                return True
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = ""
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in self.ordering_calls:
                return True
        return False

    # -- access extraction -----------------------------------------------

    def _write_accesses(
            self, info: FunctionInfo, shared: list[ClassInfo],
    ) -> list[tuple[ast.AST, ClassInfo, str]]:
        out: list[tuple[ast.AST, ClassInfo, str]] = []
        for node in ast.walk(info.node):
            target: Optional[ast.expr] = None
            if isinstance(node, ast.Assign):
                for tgt in node.targets:
                    out.extend(self._match_store(tgt, shared))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                target = node.target
            elif isinstance(node, ast.Call):
                out.extend(self._match_mutator_call(node, shared))
            if target is not None:
                out.extend(self._match_store(target, shared))
        return out

    def _match_store(
            self, target: ast.expr, shared: list[ClassInfo],
    ) -> list[tuple[ast.AST, ClassInfo, str]]:
        if isinstance(target, (ast.Tuple, ast.List)):
            out: list[tuple[ast.AST, ClassInfo, str]] = []
            for element in target.elts:
                out.extend(self._match_store(element, shared))
            return out
        if not isinstance(target, ast.Attribute):
            return []
        return [(target, cls, target.attr) for cls in shared
                if target.attr in cls.fields
                and self._receiver_matches(cls, target.value)]

    def _match_mutator_call(
            self, node: ast.Call, shared: list[ClassInfo],
    ) -> list[tuple[ast.AST, ClassInfo, str]]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return []
        return [(node, cls, func.attr) for cls in shared
                if func.attr in cls.mutators
                and self._receiver_matches(cls, func.value)]

    # -- reachability ----------------------------------------------------

    def _labels(self, graph: ProjectGraph,
                ) -> dict[str, frozenset[str]]:
        labels = {q: set(s) for q, s in graph.context_labels(
            self.context_roots).items()}
        event_roots = self._event_callbacks(graph)
        for qualname in graph.reachable_from(sorted(event_roots)):
            labels.setdefault(qualname, set()).add("event")
        return {q: frozenset(s) for q, s in labels.items()}

    @staticmethod
    def _event_callbacks(graph: ProjectGraph) -> set[str]:
        roots: set[str] = set()
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (isinstance(func, ast.Attribute)
                        and func.attr in EVENT_SCHEDULERS):
                    continue
                for arg in list(node.args) + [kw.value for kw in
                                              node.keywords]:
                    ref = graph._resolve_reference(info, arg)
                    if ref is not None:
                        roots.add(ref)
        return roots
