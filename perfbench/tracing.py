"""Per-layer tracing from outside the program.

The traced run measures each layer of the simulator by wrapping the
layer's public functions *from the benchmark's own files*: nothing in
``src/`` knows it is being traced.  Every wrapper pushes a frame on one
call stack, so a layer's **self time** is a span's duration minus the
part of it that wrapped children cover.  The sum of all self times can
therefore never exceed the traced wall; what no layer claims is
reported as ``trace.unattributed_s``.

A wrapped function is patched at every name its callers look it up by:
the class attribute for methods, and for module-level functions every
``repro.*`` module global bound to the same object (``repro.virt.nested``
imports ``transform_12_to_02`` by name, for example).

Layer table (``LAYERS``): ``(layer, module, selectors)``.  A selector is

* ``"func"`` — a module-level function,
* ``"Class.method"`` — one method (may name ``__init__``),
* ``"Class.*"`` — every public function defined in that class,
* ``"*"`` — every public function and every public method of every
  class defined in the module.

Experiment code (each registered experiment's ``run_cell`` and
``merge``) is wrapped as a *barrier* that belongs to no layer, so the
runner is not charged for the cells it calls.  Untraced code counts
toward the traced span that called it: what experiment code calls
directly (the workload scripts, ...) lands in ``trace.unattributed_s``,
but what a layer calls is that layer's self time.  In particular
``Machine`` methods run ``repro.cpu`` (the segment compiler and its
replay kernel), so ``core.system.self_s`` and ``core.system.guest_s``
include that work.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Any, Callable, Optional

#: Bucket prefix of the experiment-code barrier; not a layer.
BARRIER = "-"

#: Method names of :mod:`repro.core.switch` engines, by switch leg.
SWITCH_L2_L0 = ("exit_l2_to_l0", "resume_l2")
SWITCH_L0_L1 = ("enter_l1", "leave_l1")
SWITCH_OTHER_LEGS = ("exit_l1_single", "resume_l1_single",
                     "aux_exit_begin", "aux_exit_end")
VMCS_ACCESSES = ("read", "write", "guest_read", "guest_write")

LAYERS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("cli", "repro.cli", ("main",)),
    ("exp.runner", "repro.exp.runner", ("run_experiments",)),
    ("exp.cache", "repro.exp.cache", ("ResultCache.*",)),
    ("exp.result", "repro.exp.result",
     ("Result.to_dict", "Result.from_dict", "Result.to_json",
      "Result.from_json", "canonical_json")),
    ("exp.result", "repro.exp.runner",
     ("RunReport.to_document", "RunReport.to_json")),
    ("core.system", "repro.core.system", ("Machine.__init__", "Machine.*")),
    ("virt.nested", "repro.virt.nested", ("NestedStack.*",)),
    ("virt.transform", "repro.virt.transform",
     ("sync_shadow_to_vmcs12", "transform_12_to_02",
      "transform_02_to_12")),
    ("virt.vmcs", "repro.virt.vmcs", ("Vmcs.*",)),
    ("virt.ept", "repro.virt.ept", ("EptTable.*",)),
    ("virt.hypervisor", "repro.virt.hypervisor", ("Hypervisor.*",)),
    ("core.switch", "repro.core.switch", ("*",)),
    ("core.channel", "repro.core.channel",
     ("Command.*", "CommandRing.*", "PairedChannels.*")),
    ("io", "repro.io.block", ("*",)),
    ("io", "repro.io.device", ("*",)),
    ("io", "repro.io.fabric", ("*",)),
    ("io", "repro.io.net", ("*",)),
    ("io", "repro.io.virtio", ("*",)),
    ("sim.engine", "repro.sim.engine", ("Simulator.*",)),
    ("workloads.memcached", "repro.workloads.memcached",
     ("measure_service", "_queueing_run")),
)

#: Every layer name, in table order.
LAYER_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    layer for layer, _, _ in LAYERS))


class Tracer:
    """One call stack plus per-bucket self time, inclusive time and calls.

    A *bucket* is ``"<layer>/<qualname>"``.  ``tallies`` holds counts
    that observers derive from arguments or return values (for example
    the requests a queueing run simulates).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = {}
        self.inclusive_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.tallies: dict[str, float] = {}
        self._undo: list[tuple[Any, str, Any]] = []

    def tally(self, name: str, amount: float = 1) -> None:
        self.tallies[name] = self.tallies.get(name, 0) + amount

    def wrap(self, fn: Callable, bucket: Any,
             observe: Optional[Callable] = None) -> Callable:
        """A wrapper around ``fn`` that accounts into ``bucket``.

        ``bucket`` is a name, or a callable that maps the call's
        positional arguments to one.  ``observe(tracer, args, kwargs,
        result, took, children)`` runs after a call that returned.
        """
        stack = self.stack
        clock = self.clock
        self_s = self.self_s
        inclusive_s = self.inclusive_s
        calls = self.calls
        dynamic = callable(bucket)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = clock() - start
                stack.pop()
                key = bucket(args) if dynamic else bucket
                self_s[key] = self_s.get(key, 0.0) + took - frame[0]
                inclusive_s[key] = inclusive_s.get(key, 0.0) + took
                calls[key] = calls.get(key, 0) + 1
                if stack:
                    stack[-1][0] += took
            if observe is not None:
                observe(self, args, kwargs, result, took, frame[0])
            return result

        traced.__perfbench_original__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def patch(self, owner: Any, attr: str, bucket: Any,
              observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` (class or module) by a traced wrapper,
        and rebind every ``repro.*`` module global that holds the same
        function object."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (staticmethod,
                                              classmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        if inspect.isgeneratorfunction(fn) or \
                hasattr(fn, "__perfbench_original__"):
            return
        traced = self.wrap(fn, bucket, observe)
        self._set(owner, attr, kind(traced) if kind else traced)
        if not isinstance(owner, type):
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "") or ""
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._set(module, key, traced)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name (newest first)."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "tallies": dict(self.tallies),
        }


def _public_functions(cls: type) -> list[str]:
    names = []
    for attr, raw in vars(cls).items():
        fn = raw.__func__ if isinstance(raw, (staticmethod,
                                              classmethod)) else raw
        if attr.startswith("_") or not inspect.isfunction(fn):
            continue
        names.append(attr)
    return names


def _targets(module: Any, selector: str) -> list[tuple[Any, str, str]]:
    """``(owner, attr, qualname)`` triples one selector names."""
    if selector == "*":
        out = []
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != module.__name__ \
                    or attr.startswith("_"):
                continue
            if inspect.isclass(value):
                out.extend((value, name, f"{attr}.{name}")
                           for name in _public_functions(value))
            elif inspect.isfunction(value):
                out.append((module, attr, attr))
        return out
    if "." not in selector:
        return [(module, selector, selector)]
    cls_name, method = selector.split(".", 1)
    cls = getattr(module, cls_name)
    if method == "*":
        return [(cls, name, f"{cls_name}.{name}")
                for name in _public_functions(cls)]
    return [(cls, method, selector)]


# -- observers: counts from arguments and return values ----------------

def _count_push(tracer, args, kwargs, result, took, children):
    tracer.tally("core.channel.commands" if result
                 else "core.channel.push_rejects")


def _count_cache_hit(tracer, args, kwargs, result, took, children):
    if result is not None:
        tracer.tally("exp.cache.hits")


def _count_document(tracer, args, kwargs, result, took, children):
    tracer.tally("exp.result.document_bytes", len(result.encode()))


def _count_service(tracer, args, kwargs, result, took, children):
    # A memo hit returns without building a Machine, which is traced,
    # so no traced child ran inside the call.
    if children == 0.0:
        tracer.tally("workloads.memcached.service_memo_hits")


def _count_requests(tracer, args, kwargs, result, took, children):
    from repro.workloads import memcached

    bound = inspect.signature(memcached._queueing_run).bind(*args,
                                                               **kwargs)
    bound.apply_defaults()
    tracer.tally("workloads.memcached.requests",
                 bound.arguments["requests"])


def _count_runner(tracer, args, kwargs, result, took, children):
    """Cells, cell seconds and pool capacity from the RunReport: the
    cells of a ``--jobs N`` run execute in pool workers this process
    cannot trace, but the report carries their measured seconds."""
    from repro.exp import registry

    for run in result.runs:
        if run.cached:
            continue
        experiment = registry.get(run.name)
        tracer.tally("exp.runner.cells",
                     len(experiment.cells(run.result.params_dict)))
        tracer.tally("exp.runner.cell_s", run.seconds)
    tracer.tally("exp.runner.capacity_s", result.jobs * took)


OBSERVERS: dict[str, Callable] = {
    "core.channel/CommandRing.try_push": _count_push,
    "exp.cache/ResultCache.load": _count_cache_hit,
    "exp.result/RunReport.to_json": _count_document,
    "workloads.memcached/measure_service": _count_service,
    "workloads.memcached/_queueing_run": _count_requests,
    "exp.runner/run_experiments": _count_runner,
}


def _hypervisor_bucket(base: str) -> Callable:
    def bucket(args):
        return f"{base}@L{getattr(args[0], 'level', '?')}"
    return bucket


def install(tracer: Tracer) -> None:
    """Wrap every layer in :data:`LAYERS` plus the experiment barrier."""
    import importlib

    from repro.exp import registry

    for layer, module_name, selectors in LAYERS:
        module = importlib.import_module(module_name)
        for selector in selectors:
            for owner, attr, qualname in _targets(module, selector):
                bucket: Any = f"{layer}/{qualname}"
                if bucket == "virt.hypervisor/Hypervisor.handle_exit":
                    bucket = _hypervisor_bucket(bucket)
                tracer.patch(owner, attr, bucket,
                             OBSERVERS.get(f"{layer}/{qualname}"))
    for experiment in registry.experiments():
        cls = type(experiment)
        for attr in ("run_cell", "merge"):
            if attr in vars(cls):
                tracer.patch(cls, attr,
                             f"{BARRIER}/{cls.__name__}.{attr}")


# -- per-layer metrics ----------------------------------------------------

def _method(bucket: str) -> str:
    return bucket.rsplit("/", 1)[1].rsplit("@", 1)[0].rsplit(".", 1)[-1]


def layer_of(bucket: str) -> str:
    return bucket.split("/", 1)[0]


def layer_metrics(raw: dict[str, Any]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    ``raw`` sums the iteration's traced processes: the tracer snapshot
    plus ``wall_s`` (traced window), ``import_s``, ``events`` (events
    fired, from the simulator's own counter) and nothing else.
    """
    self_s = raw["self_s"]
    calls = raw["calls"]
    tallies = raw["tallies"]
    inclusive = raw["inclusive_s"]

    def total(table, layer, methods=None, suffix=None):
        return sum(
            value for bucket, value in table.items()
            if layer_of(bucket) == layer
            and (methods is None or _method(bucket) in methods)
            and (suffix is None or bucket.endswith(suffix)))

    layer_self = {layer: total(self_s, layer) for layer in LAYER_NAMES}
    wall = raw["wall_s"]
    attributed = sum(layer_self.values())
    lookups = total(calls, "exp.cache", ("load",))
    service_calls = total(calls, "workloads.memcached", ("measure_service",))
    capacity = tallies.get("exp.runner.capacity_s", 0.0)
    cell_s = tallies.get("exp.runner.cell_s", 0.0)
    out: dict[str, float] = {
        "cli.import_s": raw["import_s"],
        "exp.runner.cells": tallies.get("exp.runner.cells", 0),
        "exp.runner.cell_s": cell_s,
        "exp.runner.idle_frac": (1.0 - cell_s / capacity) if capacity
        else 0.0,
        "exp.cache.lookups": lookups,
        "exp.cache.hit_ratio": (tallies.get("exp.cache.hits", 0) / lookups
                                if lookups else 0.0),
        "exp.cache.load_s": total(self_s, "exp.cache", ("load",)),
        "exp.cache.store_s": total(self_s, "exp.cache", ("store",)),
        "exp.result.serialise_s": layer_self["exp.result"],
        "exp.result.document_bytes":
            tallies.get("exp.result.document_bytes", 0),
        "core.system.machines": total(calls, "core.system", ("__init__",)),
        "core.system.boot_s": total(inclusive, "core.system",
                                    ("__init__",)),
        "core.system.guest_s": layer_self["core.system"]
        - total(self_s, "core.system", ("__init__",)),
        "virt.nested.l2_exits": total(calls, "virt.nested", ("l2_exit",)),
        "virt.nested.l1_exits": total(calls, "virt.nested", ("l1_exit",)),
        "virt.transform.calls": total(calls, "virt.transform"),
        "virt.vmcs.accesses": total(calls, "virt.vmcs", VMCS_ACCESSES),
        "virt.ept.translations": total(calls, "virt.ept", ("translate",)),
        "virt.ept.composes": total(calls, "virt.ept", ("compose",)),
        "virt.hypervisor.l0_s": total(self_s, "virt.hypervisor",
                                      suffix="@L0"),
        "virt.hypervisor.l1_s": total(self_s, "virt.hypervisor",
                                      suffix="@L1"),
        "virt.hypervisor.exits_handled": total(calls, "virt.hypervisor",
                                               ("handle_exit",)),
        "core.switch.l2_l0_s": total(self_s, "core.switch", SWITCH_L2_L0),
        "core.switch.l0_l1_s": total(self_s, "core.switch", SWITCH_L0_L1),
        "core.switch.switches": total(
            calls, "core.switch",
            SWITCH_L2_L0 + SWITCH_L0_L1 + SWITCH_OTHER_LEGS),
        "core.channel.commands": tallies.get("core.channel.commands", 0),
        "core.channel.push_rejects":
            tallies.get("core.channel.push_rejects", 0),
        "io.requests": total(calls, "io", ("on_kick",)),
        "sim.engine.events": raw["events"],
        "workloads.memcached.requests":
            tallies.get("workloads.memcached.requests", 0),
        "workloads.memcached.queue_s": total(
            self_s, "workloads.memcached", ("_queueing_run",)),
        "workloads.memcached.service_s": total(
            self_s, "workloads.memcached", ("measure_service",)),
        "workloads.memcached.service_memo_hit_ratio": (
            tallies.get("workloads.memcached.service_memo_hits", 0)
            / service_calls if service_calls else 0.0),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - attributed,
    }
    for layer in LAYER_NAMES:
        # exp.result's self time is reported as serialise_s.
        if layer != "exp.result":
            out[f"{layer}.self_s"] = layer_self[layer]
    return out
