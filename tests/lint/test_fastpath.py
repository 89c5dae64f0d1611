"""SVT006: sim.advance inside per-instruction loops."""

from repro.lint import FastPathRule

from tests.lint.helpers import hits, lint_text


def lint_workload(text, module="repro.workloads.memcached"):
    return lint_text(text, module, FastPathRule())


def test_advance_in_for_loop_is_flagged():
    findings = lint_workload(
        "def run(sim, ops):\n"
        "    for op in ops:\n"
        "        sim.advance(op.cost)\n"
    )
    assert hits(findings) == [("SVT006", 3)]
    assert "charge" in findings[0].message


def test_advance_in_while_loop_is_flagged():
    findings = lint_workload(
        "def run(machine, budget):\n"
        "    while budget > 0:\n"
        "        machine.sim.advance(100)\n"
        "        budget -= 1\n"
    )
    assert hits(findings) == [("SVT006", 3)]


def test_charge_in_loop_passes():
    findings = lint_workload(
        "def run(sim, ops):\n"
        "    for op in ops:\n"
        "        sim.charge(op.cost)\n"
    )
    assert findings == []


def test_advance_outside_loop_passes():
    findings = lint_workload(
        "def settle(sim):\n"
        "    sim.advance(1_000_000)\n"
    )
    assert findings == []


def test_non_simulator_receiver_passes():
    findings = lint_workload(
        "def run(cursor, rows):\n"
        "    for row in rows:\n"
        "        cursor.advance(row)\n"
    )
    assert findings == []


def test_deep_receiver_chain_is_flagged():
    findings = lint_workload(
        "def run(self, ops):\n"
        "    for op in ops:\n"
        "        self.machine.sim.advance(op.cost)\n"
    )
    assert hits(findings) == [("SVT006", 3)]


def test_justified_suppression_is_accepted():
    findings = lint_workload(
        "def run(sim, steps):\n"
        "    for _ in range(steps):\n"
        "        # svtlint: disable=SVT006 — drain required: the probe\n"
        "        # reads queue depth after every single step.\n"
        "        sim.advance(1)\n"
    )
    assert findings == []


def test_bare_suppression_is_itself_a_finding():
    findings = lint_workload(
        "def run(sim, steps):\n"
        "    for _ in range(steps):\n"
        "        # svtlint: disable=SVT006\n"
        "        sim.advance(1)\n"
    )
    assert hits(findings) == [("SVT006", 4)]
    assert "without justification" in findings[0].message


def test_rule_scoped_to_modelling_packages():
    snippet = (
        "def run(sim, ops):\n"
        "    for op in ops:\n"
        "        sim.advance(op.cost)\n"
    )
    for module in ("repro.sim.engine", "repro.exp.runner",
                   "repro.lint.fastpath"):
        assert lint_text(snippet, module, FastPathRule()) == [], module
    for module in ("repro.workloads.tpcc", "repro.core.system",
                   "repro.cpu.smt", "repro.virt.nested"):
        findings = lint_text(snippet, module, FastPathRule())
        assert hits(findings) == [("SVT006", 3)], module
