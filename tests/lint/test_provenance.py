"""SVT002: cost-model provenance citations."""

import textwrap

from repro.lint import ProvenanceRule

from tests.lint.helpers import hits, lint_text


def check(text, module="repro.cpu.costs"):
    return lint_text(textwrap.dedent(text), module, ProvenanceRule())


def test_uncited_module_constant_flagged():
    findings = check("SWITCH_NS = 810\n")
    assert hits(findings) == [("SVT002", 1)]
    assert "810" in findings[0].message
    assert "# paper:" in findings[0].message


def test_inline_citation_satisfies():
    assert check("SWITCH_NS = 810  # paper: Table 1 part 1\n") == []


def test_block_citation_above_statement_covers_dict():
    assert check("""
        # paper: Table 1 part 3 (CPUID anchor)
        HANDLERS = {
            "CPUID": 2820,
            "VMCALL": 2000,
        }
    """) == []


def test_uncited_dict_values_each_flagged():
    findings = check("""
        HANDLERS = {
            "CPUID": 2820,
            "VMCALL": 2000,  # paper: Table 1
        }
    """)
    assert hits(findings) == [("SVT002", 3)]


def test_citation_must_name_an_anchor():
    findings = check("TUNED = 99  # paper: calibrated by hand\n")
    assert hits(findings) == [("SVT002", 1)]
    assert "must name a table/figure/section" in findings[0].message


def test_anchor_forms_accepted():
    for anchor in ("Table 1", "Fig. 6", "Figure 8", "§5.2",
                   "Sec. 6.1", "section 4", "Alg. 1", "Appendix A"):
        assert check(f"X = 5  # paper: {anchor}\n") == [], anchor


def test_numeric_defaults_need_citation():
    findings = check("""
        def scale(share=0.85):
            return share
    """, module="repro.analysis.hw_model")
    assert hits(findings) == [("SVT002", 2)]


def test_citation_above_def_covers_default():
    assert check("""
        # paper: §6 scheduler-wakeup share
        def scale(share=0.85):
            return share
    """, module="repro.analysis.hw_model") == []


def test_class_fields_need_citation():
    findings = check("""
        class CostModel:
            switch_l2_l0: int = 810  # paper: Table 1 part 1
            idle_wake: int = 6000
    """)
    assert hits(findings) == [("SVT002", 4)]


def test_negative_literals_and_strings_handled():
    findings = check("""
        OFFSET = -25
        NAME = "CPUID"
        FLAG = True
    """)
    assert hits(findings) == [("SVT002", 2)]


def test_function_local_arithmetic_not_flagged():
    assert check("""
        def half(value):
            scratch = value // 2
            return scratch
    """) == []


def test_only_cost_model_modules_in_scope():
    assert check("X = 810\n", module="repro.cpu.smt") == []
    assert check("X = 810\n", module="repro.exp.runner") == []


# -- the registry and the backoff policy -----------------------------------

REGISTRY = "repro.cpu.costmodels.xeon_paper"
BACKOFF = "repro.faults.backoff"


def test_costmodels_package_is_in_scope():
    findings = check("STALL = 16\n", module=REGISTRY)
    assert hits(findings) == [("SVT002", 1)]
    assert "'# paper:'" in findings[0].message
    assert "'# synthetic:'" not in findings[0].message


def test_synthetic_citation_satisfies_in_backoff():
    assert check(
        "FACTOR = 2  # synthetic: classic bounded-exponential shape\n",
        module=BACKOFF) == []


def test_synthetic_requires_a_rationale():
    findings = check("FACTOR = 2  # synthetic:\n", module=BACKOFF)
    assert hits(findings) == [("SVT002", 1)]
    assert "'# synthetic:' rationale" in findings[0].message


def test_paper_citation_still_valid_in_costmodels():
    assert check("STALL = 20  # paper: §4 stall/resume\n",
                 module=REGISTRY) == []


def test_synthetic_not_accepted_in_paper_modules():
    for module in ("repro.cpu.costs", REGISTRY):
        findings = check("STALL = 16  # synthetic: made up\n",
                         module=module)
        assert hits(findings) == [("SVT002", 1)], module


def test_derived_keyword_arguments_checked():
    findings = check("""
        POLICY = dataclasses.replace(
            DEFAULT,
            factor=3,  # synthetic: steeper schedule for slow rings
            cap_ns=64_000,
        )
    """, module=BACKOFF)
    assert hits(findings) == [("SVT002", 5)]


def test_block_citation_covers_whole_derived_call():
    assert check("""
        # synthetic: every bound doubled for the slower fabric
        POLICY = dataclasses.replace(
            DEFAULT,
            factor=3,
            cap_ns=64_000,
        )
    """, module=BACKOFF) == []
