"""Constant legs of one aux trap, per switch engine (temporal decoupling).

An aux trap (Alg. 1 lines 8-10) walks four legs: the engine's
``aux_exit_begin``, L0's handler (``CostModel.l0_pure``), the engine's
``propagate_aux`` and its ``aux_exit_end``.  When those legs charge
fixed amounts and leave the engine as they found it,
:class:`~repro.virt.nested.NestedStack` may charge a run of such traps
in one :meth:`~repro.sim.engine.Simulator.try_charge`.

Each plan function below is bound as an engine class's ``aux_plan(kind)``
method.  It returns ``(total_ns, ((category, ns, records), ...))``, one
trap's total and the tracer records its legs make (categories in the
order the walk first charges them), or ``None`` when the legs are not
constant now.  Zero-ns legs follow the walk exactly: the engines' and
the stack's ``_charge`` skip a 0, while ``SmtCore._switch_fetch``
records even a 0.
"""

from repro.cpu.context import ContextState
from repro.cpu.smt import INVALID_CONTEXT
from repro.sim.trace import Category


def no_plan(engine, kind):
    """Legs not known to be constant: the stack walks them."""
    return None


def no_propagation(engine, kind):
    """An aux op that needs no cross-thread propagation (every engine
    but SW SVt)."""


def _plan(switch_category, switch_ns, l0_ns, keep_zero_switch):
    legs = []
    if switch_ns or keep_zero_switch:
        legs.append((switch_category, 2 * switch_ns, 2))
    if l0_ns:
        legs.append((Category.L0_HANDLER, l0_ns, 1))
    return 2 * switch_ns + l0_ns, tuple(legs)


def switch_plan(engine, kind):
    """Baseline: a stock L0<->L1 switch each way around L0's handler."""
    if engine.obs is not None:
        return None
    costs = engine.costs
    return _plan(Category.SWITCH_L0_L1, costs.switch_l0_l1_each,
                 costs.l0_pure(kind), False)


def sw_svt_plan(engine, kind):
    """SW SVt: the stock switches too (the sibling thread's trap goes
    through L0's stock exit path), except for the ops it propagates to
    L00 over the ring."""
    if kind in engine.PROPAGATED_AUX:
        return None
    return switch_plan(engine, kind)


def stall_plan(engine, kind):
    """HW SVt: a stall/resume to ``SVt_visor`` and back around L0's
    handler.  Constant only while the round trip leaves the core as it
    found it: fetching from ``SVt_vm`` in guest mode, with ``SVt_visor``
    a different, stalled context."""
    core = engine.core
    if engine.obs is not None or core.obs is not None:
        return None
    visor, vm = core.svt_visor, core.svt_vm
    if (core.svt_current != vm or visor == INVALID_CONTEXT or visor == vm
            or not core.is_vm
            or core.contexts[vm].state != ContextState.RUNNING
            or core.contexts[visor].state != ContextState.STALLED):
        return None
    costs = engine.costs
    return _plan(Category.STALL_RESUME, costs.svt_stall_resume,
                 costs.l0_pure(kind), True)
