"""SVT007: the sim-state race detector over its fixture trees."""

from pathlib import Path

from repro.lint import ProjectGraph, SimStateRaceRule, SourceFile, lint_tree

from tests.lint.helpers import FIXTURES


def race_findings(tree):
    report = lint_tree([FIXTURES / "svt007" / tree],
                       [SimStateRaceRule()])
    return report.findings


def test_bad_tree_flags_both_access_styles():
    findings = race_findings("bad")
    assert [(f.rule, Path(f.path).name, f.line) for f in findings] == [
        ("SVT007", "handler.py", 12),   # attribute store
        ("SVT007", "handler.py", 16),   # mutator call
    ]


def test_messages_name_class_field_and_contexts():
    store, mutator = race_findings("bad")
    assert "Vmcs.loaded" in store.message
    assert "device" in store.message and "hypervisor" in store.message
    assert "CommandRing.reset" in mutator.message


def test_ok_tree_is_quiet():
    assert race_findings("ok") == []


def graph_of(**modules):
    sources = [
        SourceFile(Path(f"<{name}>.py"), text=text, module=name)
        for name, text in modules.items()
    ]
    return ProjectGraph(sources)


class Recorder:
    """Minimal stand-in for ProjectContext."""

    def __init__(self):
        self.findings = []

    def report(self, rule, source, node, message):
        self.findings.append((rule.rule_id, node.lineno, message))


SHARED_VMCS = (
    "class Vmcs:\n"
    "    def __init__(self):\n"
    "        self.loaded = False\n"
)

TWO_CONTEXT_CALLER = (
    "from repro.virt import h\n"
    "def complete(vmcs):\n"
    "    h.touch(vmcs)\n"
)


def check(graph):
    ctx = Recorder()
    SimStateRaceRule().check_project(graph, ctx)
    return ctx.findings


def test_setup_functions_are_ordered_by_construction():
    graph = graph_of(**{
        "repro.virt.vmcs": SHARED_VMCS,
        "repro.virt.h": (
            "def boot(vmcs):\n"
            "    vmcs.loaded = True\n"   # setup phase: no finding
        ),
        "repro.io.dev": (
            "from repro.virt import h\n"
            "def complete(vmcs):\n"
            "    h.boot(vmcs)\n"
        ),
    })
    assert check(graph) == []


def test_protection_inherits_from_fully_protected_callers():
    graph = graph_of(**{
        "repro.virt.vmcs": SHARED_VMCS,
        "repro.virt.h": (
            "def touch(vmcs):\n"
            "    vmcs.loaded = True\n"
            "def charged(sim, vmcs):\n"
            "    sim.charge(5)\n"
            "    touch(vmcs)\n"
        ),
        "repro.io.dev": (
            "from repro.virt import h\n"
            "def complete(sim, vmcs):\n"
            "    h.charged(sim, vmcs)\n"
        ),
    })
    assert check(graph) == []


def test_unprotected_two_context_write_is_flagged():
    graph = graph_of(**{
        "repro.virt.vmcs": SHARED_VMCS,
        "repro.virt.h": (
            "def touch(vmcs):\n"
            "    vmcs.loaded = True\n"
        ),
        "repro.io.dev": TWO_CONTEXT_CALLER,
    })
    [(rule_id, line, message)] = check(graph)
    assert rule_id == "SVT007"
    assert line == 2
    assert "Vmcs.loaded" in message


def test_single_context_write_is_not_flagged():
    graph = graph_of(**{
        "repro.virt.vmcs": SHARED_VMCS,
        "repro.virt.h": (
            "def touch(vmcs):\n"
            "    vmcs.loaded = True\n"
        ),
    })
    assert check(graph) == []
