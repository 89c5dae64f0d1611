"""The cpuid microbenchmark (paper Table 1 and Figure 6).

Paper §6.1: *"a loop with the operation under scrutiny, surrounded by a
series of dependant register increments that simulate a variable
workload"*; repeated until the mean stabilises per the §6 protocol.
"""

from dataclasses import dataclass

from repro.analysis.breakdown import table1_rows
from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa

#: Figure 6 numbers from the paper.
PAPER = {
    "baseline_us": 10.40,
    "sw_svt_speedup": 1.23,
    "hw_svt_speedup": 1.94,
    "l0_us": 0.05,
}


@dataclass(frozen=True)
class CpuidResult:
    mode: str
    level: int
    ns_per_op: float
    iterations: int

    @property
    def us_per_op(self):
        return self.ns_per_op / 1000.0


def run(mode=ExecutionMode.BASELINE, level=2, iterations=50,
        surrounding_work_ns=0, costs=None):
    """Measure one cpuid (plus optional surrounding register work) at a
    virtualization level, in a given mode."""
    machine = Machine(mode=mode, costs=costs)
    body = []
    if surrounding_work_ns:
        body.append(isa.alu(surrounding_work_ns))
    body.append(isa.cpuid())
    # Warm up one iteration (the first HW SVt resume differs slightly).
    machine.run_program(isa.Program(body, repeat=1), level=level)
    result = machine.run_program(isa.Program(body, repeat=iterations),
                                 level=level)
    return CpuidResult(
        mode=mode,
        level=level,
        ns_per_op=result.ns_per_instruction * len(body),
        iterations=iterations,
    )


def figure6(costs=None, iterations=50):
    """All five bars of Figure 6: L0, L1, L2 (baseline), SW SVt, HW SVt.

    Returns ``{label: us}``.
    """
    bars = {}
    bars["L0"] = run(level=0, iterations=iterations, costs=costs).us_per_op
    bars["L1"] = run(level=1, iterations=iterations, costs=costs).us_per_op
    bars["L2"] = run(ExecutionMode.BASELINE, iterations=iterations,
                     costs=costs).us_per_op
    bars["SW SVt"] = run(ExecutionMode.SW_SVT, iterations=iterations,
                         costs=costs).us_per_op
    bars["HW SVt"] = run(ExecutionMode.HW_SVT, iterations=iterations,
                         costs=costs).us_per_op
    return bars


def table1_breakdown(costs=None, iterations=50):
    """Reproduce Table 1: per-part time for one nested cpuid, baseline.

    Returns ``[(part_label, us, percent)]`` in the paper's row order.
    The hidden lazy save/restore shares are folded into the L0/L1 handler
    rows exactly as the paper folds them.
    """
    machine = Machine(mode=ExecutionMode.BASELINE, costs=costs)
    machine.run_program(isa.Program([isa.cpuid()], repeat=1))
    before = machine.tracer.snapshot()
    machine.run_program(isa.Program([isa.cpuid()], repeat=iterations))
    totals = {
        key: machine.tracer.totals[key] - before.get(key, 0)
        for key in machine.tracer.totals
    }
    return table1_rows(totals, iterations)
