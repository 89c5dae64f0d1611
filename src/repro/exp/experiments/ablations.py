"""Ablation drivers (studies A-C) as registered experiments.

The sweep logic used to live privately inside ``benchmarks/test_ablation_*``;
it is hoisted here so the CLI, the parallel runner and the benchmarks all
drive one implementation.  The remaining ablations (D-J) exercise
machinery that already has a registered experiment (deep nesting,
coexistence, related work, L3) or assert invariants rather than produce
tables, so they stay bench-only.
"""

from __future__ import annotations

from typing import Any

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.cpu.costmodels import default_model
from repro.cpu.costs import CostModel
from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Table

# -- shared drivers -------------------------------------------------------

#: Table-1 parts 3/5 totals (ns): the pool the lazy share is carved from.
_PART3_NS, _PART5_NS = 4890, 1960


def with_lazy_fraction(fraction: float) -> CostModel:
    """CostModel treating ``fraction`` of Table-1 parts 3/5 as lazy."""
    l0_lazy = int(_PART3_NS * fraction)
    l1_lazy = int(_PART5_NS * fraction)
    base = default_model()
    l0_pure = dict(base.l0_handler_pure)
    l1_pure = dict(base.l1_handler_pure)
    l0_pure["CPUID"] = _PART3_NS - l0_lazy
    l1_pure["CPUID"] = _PART5_NS - l1_lazy
    return base.with_overrides(
        l0_lazy_switch=l0_lazy,
        l1_lazy_switch=l1_lazy,
        l0_handler_pure=l0_pure,
        l1_handler_pure=l1_pure,
    )


def hw_speedup(costs: CostModel, iterations: int = 10) -> float:
    """Nested-cpuid baseline/HW-SVt ratio under a cost model."""
    times: dict[str, float] = {}
    for mode in (ExecutionMode.BASELINE, ExecutionMode.HW_SVT):
        machine = Machine(mode=mode, costs=costs)
        machine.run_program(isa.Program([isa.cpuid()]))
        result = machine.run_program(
            isa.Program([isa.cpuid()], repeat=iterations))
        times[mode] = result.ns_per_instruction
    return times[ExecutionMode.BASELINE] / times[ExecutionMode.HW_SVT]


def traced_run(mode: str, repeat: int = 20) -> tuple[float, Any]:
    """(ns_per_op, trace-delta) of a nested cpuid loop in ``mode``."""

    machine = Machine(mode=mode)
    machine.run_program(isa.Program([isa.cpuid()]))        # warmup
    before = machine.tracer.snapshot()
    start = machine.sim.now
    machine.run_program(isa.Program([isa.cpuid()], repeat=repeat))
    elapsed = machine.sim.now - start

    class _Delta:
        totals = {
            key: machine.tracer.totals[key] - before.get(key, 0)
            for key in machine.tracer.totals
        }

        @staticmethod
        def total(*categories: str) -> int:
            if not categories:
                return sum(_Delta.totals.values())
            return sum(_Delta.totals.get(c, 0) for c in categories)

    return elapsed / repeat, _Delta


def hw_model_cross_check(repeat: int = 20) -> dict[str, Any]:
    """Both roads to HW SVt, in ns/op: the paper's §6 scaling applied to
    baseline and SW SVt traces, and the direct simulation."""
    from repro.analysis.hw_model import scale_sw_to_hw

    _, baseline_trace = traced_run(ExecutionMode.BASELINE, repeat)
    _, sw_trace = traced_run(ExecutionMode.SW_SVT, repeat)
    direct_ns, _ = traced_run(ExecutionMode.HW_SVT, repeat)
    return {
        "scaled_from_baseline_ns": scale_sw_to_hw(baseline_trace) / repeat,
        "scaled_from_sw_ns": scale_sw_to_hw(sw_trace) / repeat,
        "direct_ns": direct_ns,
    }


def channel_cpuid_us(placement: str, mechanism: str,
                     iterations: int = 20) -> float:
    """Nested cpuid µs under SW SVt with a given channel variant."""
    machine = Machine(mode=ExecutionMode.SW_SVT, placement=placement,
                      wait_mechanism=mechanism)
    machine.run_program(isa.Program([isa.cpuid()]))
    result = machine.run_program(
        isa.Program([isa.cpuid()], repeat=iterations))
    return result.ns_per_instruction / 1000.0


# -- registered experiments ----------------------------------------------


@register
class AblationLazySplit(Experiment):
    """Ablation A: sweep the lazy/pure handler split of Table 1."""

    name = "ablation_lazy_split"
    title = "Ablation A: lazy/pure handler split"
    description = "HW SVt speedup vs the lazy share of Table-1 parts 3/5"
    defaults = {"iterations": 10}

    FRACTIONS = (0.0, 0.2, 0.423, 0.6, 0.8)

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(f"{fraction:.3f}" for fraction in self.FRACTIONS)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        costs = with_lazy_fraction(float(cell))
        return {
            "baseline_us": costs.table1_total() / 1000.0,
            "hw_speedup": hw_speedup(costs, params["iterations"]),
        }

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Ablation A: HW SVt speedup vs lazy share "
                      "(paper 1.94x pins the calibrated 0.423)",
                columns=("lazy share of parts 3+5", "baseline (us)",
                         "HW SVt speedup"),
                rows=[
                    Row(cell,
                        (f"{payloads[cell]['baseline_us']:.2f}",
                         f"{payloads[cell]['hw_speedup']:.2f}x"))
                    for cell in self.cells(params)
                ],
            )],
            scalars={
                f"hw_speedup_at_{cell}": payloads[cell]["hw_speedup"]
                for cell in self.cells(params)
            },
            paper={"hw_speedup_at_0.423": 1.94},
        )


@register
class AblationHwModel(Experiment):
    """Ablation B: the paper's HW-model scaling vs direct simulation."""

    name = "ablation_hw_model"
    title = "Ablation B: HW-model methodologies"
    description = "paper's Sec.-6 scaling vs simulating the hardware"
    defaults = {"repeat": 20}
    smoke = {"repeat": 10}
    lazy_imports = ("repro.analysis.hw_model",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        return hw_model_cross_check(repeat=params["repeat"])

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        payload = payloads["all"]
        rows = [
            ("scaled from baseline trace",
             payload["scaled_from_baseline_ns"]),
            ("scaled from SW SVt trace", payload["scaled_from_sw_ns"]),
            ("direct HW SVt simulation", payload["direct_ns"]),
        ]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Ablation B: two roads to HW SVt",
                columns=("Methodology", "nested cpuid (us)"),
                rows=[Row(label, (f"{ns / 1000.0:.2f}",))
                      for label, ns in rows],
            )],
            scalars={
                "scaled_from_baseline_us":
                    payload["scaled_from_baseline_ns"] / 1000.0,
                "scaled_from_sw_us":
                    payload["scaled_from_sw_ns"] / 1000.0,
                "direct_us": payload["direct_ns"] / 1000.0,
            },
        )


@register
class AblationWait(Experiment):
    """Ablation C: wait mechanism x placement for the SW SVt channel."""

    name = "ablation_wait"
    title = "Ablation C: wait mechanism x placement"
    description = "nested cpuid with every channel mechanism/placement"
    defaults = {"iterations": 20}
    smoke = {"iterations": 10}

    PLACEMENTS = ("smt", "core", "numa")
    MECHANISMS = ("polling", "mwait", "mutex")

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(
            f"{placement}:{mechanism}"
            for placement in self.PLACEMENTS
            for mechanism in self.MECHANISMS
        )

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        placement, mechanism = cell.split(":")
        return channel_cpuid_us(placement, mechanism,
                                params["iterations"])

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Nested cpuid with SW SVt channel variants (raw "
                      "channel cost; polling interference handled in "
                      "sec61)",
                columns=("placement",) + self.MECHANISMS,
                rows=[
                    Row(placement, tuple(
                        f"{payloads[f'{placement}:{mech}']:.2f} us"
                        for mech in self.MECHANISMS
                    ))
                    for placement in self.PLACEMENTS
                ],
            )],
            scalars={
                cell.replace(":", "_") + "_us": payloads[cell]
                for cell in self.cells(params)
            },
            paper={"smt_mwait_us": 8.46},
        )
