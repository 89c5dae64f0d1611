"""The differential harness and its oracle suite.

The acceptance story: stock machines survive generated programs with
every oracle green; each deliberately broken fixture machine
(:mod:`repro.fuzz.bugs`) is caught by the oracle built for it; and a
case's outcome document is byte-stable under replay.
"""

import os

import pytest

from repro.exp.result import canonical_json
from repro.fuzz import bugs, evaluate_case, generate_case
from repro.fuzz.harness import MODES, run_case_on, sanitized
from repro.errors import ConfigError
from repro.sim import sanitizer

#: Seeds kept small so the whole battery stays in test-suite budget.
CLEAN_SEED = 2
N_OPS = 15


@pytest.fixture(scope="module")
def clean_report():
    return evaluate_case(generate_case(CLEAN_SEED, n_ops=N_OPS,
                                       fault_ratio=0.0))


def test_stock_machines_pass_every_oracle(clean_report):
    assert clean_report.violations == []
    assert not clean_report.failed


def test_all_three_machines_ran(clean_report):
    assert sorted(clean_report.outcomes) == sorted(MODES)
    for outcome in clean_report.outcomes.values():
        assert outcome.instructions > 0
        assert outcome.crash is None


def test_fault_armed_case_relaxes_but_replays():
    report = evaluate_case(generate_case(CLEAN_SEED, n_ops=N_OPS,
                                         fault_ratio=1.0))
    assert not report.failed


def test_drop_redirect_bug_is_caught():
    report = evaluate_case(generate_case(CLEAN_SEED, n_ops=N_OPS,
                                         fault_ratio=0.0,
                                         bug="drop-redirect"))
    assert "steering" in report.violated_oracles()
    details = " ".join(v.detail for v in report.violations)
    assert "redirect" in details


def test_svt_clobber_bug_is_caught():
    report = evaluate_case(generate_case(CLEAN_SEED, n_ops=N_OPS,
                                         fault_ratio=0.0,
                                         bug="svt-clobber"))
    assert "crash" in report.violated_oracles()
    crashes = [v for v in report.violations if v.oracle == "crash"]
    assert all(v.mode == "hw_svt" for v in crashes)
    assert any("CrossContextFault" in v.detail for v in crashes)


def test_bugs_are_hw_only(clean_report):
    """The fixture bugs sabotage SVt steering: BASELINE and SW_SVT
    outcomes are bit-identical with or without the bug armed."""
    for bug in bugs.names():
        for mode in MODES[:2]:
            stock = clean_report.outcomes[mode]
            bugged = run_case_on(
                mode,
                generate_case(CLEAN_SEED, n_ops=N_OPS,
                              fault_ratio=0.0),
                bug=bug)
            assert (canonical_json(bugged.replay_comparable())
                    == canonical_json(stock.replay_comparable()))


def test_unknown_bug_rejected():
    with pytest.raises(ConfigError):
        bugs.apply("heisenbug", object())


def test_outcome_replay_is_byte_stable():
    case = generate_case(CLEAN_SEED, n_ops=N_OPS, fault_ratio=0.0)
    first = run_case_on("hw_svt", case)
    second = run_case_on("hw_svt", case)
    assert (canonical_json(first.to_dict())
            == canonical_json(second.to_dict()))


def test_sanitized_context_manager_restores_env():
    sentinel = os.environ.get(sanitizer.ENV_FLAG)
    with sanitized():
        assert os.environ.get(sanitizer.ENV_FLAG) == "1"
        with sanitized():
            pass
        assert os.environ.get(sanitizer.ENV_FLAG) == "1"
    assert os.environ.get(sanitizer.ENV_FLAG) == sentinel


def test_steering_snapshot_reports_table2(clean_report):
    steering = clean_report.outcomes["hw_svt"].steering
    assert steering["svt"] == [0, 1, 2]
    assert steering["redirect"] == 0
    assert steering["is_vm"] is False
    assert steering["resolve"] == {"1": 1, "2": 2}
    assert steering["ctxt_faults"] == 0
    assert steering["ctxt_mismatches"] == 0
