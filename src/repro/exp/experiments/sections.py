"""Section studies and extensions as registered experiments.

Covers §6.1 (channel microbenchmarks), the deep-nesting and functional-L3
extensions, §3.3 SVt/SMT coexistence, and the §7 related-work comparison.
"""

from __future__ import annotations

from typing import Any

from repro.core.mode import ExecutionMode
from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Table


@register
class Sec61Channels(Experiment):
    """§6.1: wait-mechanism observations + the Figure-6 bridge."""

    name = "sec61"
    title = "Sec. 6.1: communication channels"
    description = "wait-mechanism observations and cpuid impact"
    defaults = {"iterations": 40}
    smoke = {"iterations": 10}
    lazy_imports = ("repro.workloads.channels",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import channels

        sweep = channels.sweep()
        baseline_us, impacts = channels.cpuid_with_mechanisms(
            iterations=params["iterations"])
        return {
            "observations": dict(sweep.observations),
            "baseline_us": baseline_us,
            "impacts": [
                [i.mechanism, i.cpuid_us, i.speedup_vs_baseline]
                for i in impacts
            ],
        }

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        payload = payloads["all"]
        observations = payload["observations"]
        scalars = {f"observation_{name}": bool(holds)
                   for name, holds in observations.items()}
        scalars["baseline_us"] = payload["baseline_us"]
        for mechanism, us, speedup in payload["impacts"]:
            scalars[f"{mechanism}_us"] = us
            scalars[f"{mechanism}_speedup"] = speedup
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[
                Table(
                    title="Sec. 6.1 observations",
                    columns=("Observation", "Holds"),
                    rows=[Row(name, ("OK" if holds else "FAIL",))
                          for name, holds in observations.items()],
                ),
                Table(
                    title=f"nested cpuid with each wait mechanism "
                          f"(baseline {payload['baseline_us']:.2f} us)",
                    columns=("Mechanism", "Time (us)", "Speedup"),
                    rows=[
                        Row(mechanism, (f"{us:6.2f}", f"{speedup:.2f}x"))
                        for mechanism, us, speedup in payload["impacts"]
                    ],
                ),
            ],
            scalars=scalars,
            paper={"mwait_speedup": 1.23},
        )


@register
class DeepNesting(Experiment):
    """Deep-nesting extension: trap cost vs virtualization depth."""

    name = "deep"
    title = "Deep nesting extension"
    description = "analytic trap cost at depth k, baseline vs SVt"
    defaults = {"depth": 5}
    lazy_imports = ("repro.virt.deep",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.virt.deep import DeepNestingModel

        model = DeepNestingModel()
        return [[d, base_us, svt_us, speedup]
                for d, base_us, svt_us, speedup
                in model.table(max_depth=params["depth"])]

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows = payloads["all"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Deep nesting extension (aux/reflection = 2)",
                columns=("Trap from", "baseline (us)", "SVt (us)",
                         "speedup"),
                rows=[
                    Row(f"L{depth}",
                        (f"{base_us:.2f}", f"{svt_us:.2f}",
                         f"{speedup:.2f}x"))
                    for depth, base_us, svt_us, speedup in rows
                ],
            )],
            scalars={
                f"speedup_l{depth}": speedup
                for depth, _b, _s, speedup in rows
            },
        )


@register
class L3Functional(Experiment):
    """Functional third level: L2-privileged ops as depth-2 exits."""

    name = "l3"
    title = "Functional third level"
    description = "live L3 cpuid/timer cost in every execution mode"
    defaults = {"repeat": 4}
    lazy_imports = ("repro.core.system", "repro.cpu.isa",
                    "repro.virt.hypervisor", "repro.virt.l3")

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return ExecutionMode.ALL

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.core.system import Machine
        from repro.cpu import isa
        from repro.virt.hypervisor import MSR_TSC_DEADLINE
        from repro.virt.l3 import install_third_level

        repeat = params["repeat"]
        stack = install_third_level(Machine(mode=cell))
        cpuid_ns, _ = stack.run_program(
            isa.Program([isa.cpuid()], repeat=repeat))
        timer_ns, _ = stack.run_program(
            isa.Program([isa.wrmsr(MSR_TSC_DEADLINE, 10**9)],
                        repeat=repeat))
        return {"cpuid_us": cpuid_ns / (repeat * 1000.0),
                "timer_us": timer_ns / (repeat * 1000.0)}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Functional third level (privileged L2 ops "
                      "recurse as depth-2 exits)",
                columns=("Mode", "L3 cpuid (us)", "L3 timer write (us)"),
                rows=[
                    Row(mode,
                        (f"{payloads[mode]['cpuid_us']:.2f}",
                         f"{payloads[mode]['timer_us']:.2f}"))
                    for mode in ExecutionMode.ALL
                ],
            )],
            scalars={
                f"{mode}_{op}_us": payloads[mode][f"{op}_us"]
                for mode in ExecutionMode.ALL
                for op in ("cpuid", "timer")
            },
        )


@register
class Coexist(Experiment):
    """§3.3: when does SVt beat using the sibling thread for SMT?"""

    name = "coexist"
    title = "SVt/SMT coexistence"
    description = "crossover nested-trap rate where SVt beats SMT"
    defaults = {}
    lazy_imports = ("repro.core.coexist",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.core.coexist import CoexistConfig, crossover_trap_rate

        config = CoexistConfig()
        return {"crossover_traps_per_s": crossover_trap_rate(config),
                "smt_yield": config.smt_yield}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        payload = payloads["all"]
        rate = payload["crossover_traps_per_s"]
        return Result.create(
            experiment=self.name,
            params=params,
            scalars=payload,
            notes=(
                f"SVt overtakes SMT above {rate:,.0f} nested traps/s "
                f"(SMT yield {payload['smt_yield']:.2f}x)",
            ),
        )


@register
class RelatedWork(Experiment):
    """§7: the alternatives priced on one nested I/O operation."""

    name = "related"
    title = "Sec. 7 related-work comparison"
    description = "SR-IOV/side-core/ELI vs SVt on one nested I/O op"
    defaults = {}
    lazy_imports = ("repro.core.related_work",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.core.related_work import speedup_table

        return [[name, us, speedup, caveats]
                for name, us, speedup, caveats in speedup_table()]

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows = payloads["all"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Sec. 7 alternatives on one nested I/O operation",
                columns=("Technique", "op (us)", "Speedup", "Caveats"),
                rows=[
                    Row(name, (f"{us:.1f}", f"{speedup:.2f}x", caveats))
                    for name, us, speedup, caveats in rows
                ],
            )],
            scalars={
                f"{name}_speedup": speedup
                for name, _us, speedup, _c in rows
            },
        )
