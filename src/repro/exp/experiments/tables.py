"""The paper's tables as registered experiments (Tables 1, 3, 4)."""

from __future__ import annotations

from typing import Any

from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Table


@register
class Table1Breakdown(Experiment):
    """Table 1: per-part time of one baseline nested cpuid."""

    name = "table1"
    title = "Table 1: nested cpuid breakdown"
    description = "per-part time of one nested cpuid (baseline)"
    defaults = {"iterations": 50}
    smoke = {"iterations": 10}
    lazy_imports = ("repro.workloads.cpuid",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import cpuid

        rows = cpuid.table1_breakdown(iterations=params["iterations"])
        return [[label, us, pct] for label, us, pct in rows]

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows = payloads["all"]
        scalars: dict[str, Any] = {}
        for label, us, _pct in rows:
            key = label.split(" ", 1)[1].lower().replace(" ", "_") \
                .replace("<->", "_").replace("/", "_")
            scalars[f"{key}_us"] = round(us, 4)
        scalars["total_us"] = round(sum(us for _, us, _ in rows), 4)
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Table 1: nested cpuid breakdown (baseline, "
                      "paper total 10.40 us)",
                columns=("Part", "Time (us)", "Perc. (%)"),
                rows=[Row(label, (f"{us:.2f}", f"{pct:.2f}"))
                      for label, us, pct in rows],
            )],
            scalars=scalars,
            paper={"total_us": 10.40},
        )


@register
class Table3Footprint(Experiment):
    """Table 3: prototype footprint, paper LoC vs this repo's."""

    name = "table3"
    title = "Table 3: prototype footprint"
    description = "paper prototype LoC vs this repo's equivalents"
    lazy_imports = ("repro.analysis.loc",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.analysis.loc import PAPER, audit

        ours = audit()
        return [
            [role, added, removed, ours[role]]
            for role, (added, removed) in PAPER.items()
        ]

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows = payloads["all"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Table 3: prototype footprint",
                columns=("Codebase", "Paper", "This repo"),
                rows=[Row(role, (f"+{added}/-{removed}", f"{loc} LoC"))
                      for role, added, removed, loc in rows],
            )],
            scalars={
                f"{role.lower().replace(' / ', '_').replace(' ', '_')}"
                "_loc": loc
                for role, _a, _r, loc in rows
            },
            paper={
                f"{role.lower().replace(' / ', '_').replace(' ', '_')}"
                "_added": added
                for role, added, _r, _l in rows
            },
        )


@register
class Table4Machine(Experiment):
    """Table 4: the paper's testbed configuration."""

    name = "table4"
    title = "Table 4: machine parameters"
    description = "the paper's testbed topology (host, L1, L2)"
    lazy_imports = ("repro.config",)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.config import paper_machine

        return [[level, desc]
                for level, desc in paper_machine().describe()]

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows = payloads["all"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Table 4: machine parameters",
                columns=("Level", "Description"),
                rows=[Row(level, (desc,)) for level, desc in rows],
            )],
            scalars={"levels": len(rows)},
        )
