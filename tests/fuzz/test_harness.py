"""The differential harness and its oracle suite.

The acceptance story: stock machines survive generated programs with
every oracle green; each deliberately broken fixture machine
(:mod:`repro.fuzz.bugs`) is caught by the oracle built for it; and a
case's outcome document is byte-stable under replay.
"""

import os
from collections import Counter

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
        with sanitized(on=False):
            assert os.environ.get(sanitizer.ENV_FLAG) is None
        assert os.environ.get(sanitizer.ENV_FLAG) == "1"
    assert os.environ.get(sanitizer.ENV_FLAG) == sentinel


def test_unsanitized_runs_take_the_fast_paths(monkeypatch):
    """The fast-path oracle's second run reaches what the sanitizer
    switches off: decoupled aux-trap charges and the journal-driven
    vmcs02 refresh (a copy of fewer fields than the full table)."""
    from repro.sim.engine import Simulator
    from repro.virt import transform
    from repro.virt.vmcs import Vmcs

    taken = Counter()
    try_charge = Simulator.try_charge
    copy_fields = Vmcs.copy_fields

    def spy_charge(self, ns):
        accepted = try_charge(self, ns)
        taken["decoupled"] += accepted
        return accepted

    def spy_copy(self, source, names, rewritten):
        if names is not transform._COPIED_12_TO_02 \
                and names is not transform._REFLECTED_02_TO_12:
            taken["refresh"] += 1
        return copy_fields(self, source, names, rewritten)

    monkeypatch.setattr(Simulator, "try_charge", spy_charge)
    monkeypatch.setattr(Vmcs, "copy_fields", spy_copy)
    case = generate_case(CLEAN_SEED, n_ops=N_OPS, fault_ratio=0.0)
    for mode in MODES:
        taken.clear()
        run_case_on(mode, case)
        assert not taken, mode
        run_case_on(mode, case, sanitize=False)
        assert taken["decoupled"] > 0 and taken["refresh"] > 0, mode


def test_fast_path_divergence_is_caught(monkeypatch):
    """A decoupled aux-trap run that prices a leg one nanosecond off
    the per-leg walk is seen only without the sanitizer, and only the
    fast-path oracle fires, once per mode."""
    from repro.sim.trace import Tracer

    add = Tracer.add
    monkeypatch.setattr(Tracer, "add", lambda self, category, ns, count:
                        add(self, category, ns + 1, count))
    report = evaluate_case(generate_case(CLEAN_SEED, n_ops=N_OPS,
                                         fault_ratio=0.0))
    assert report.violated_oracles() == ["fast-path"]
    assert sorted(v.mode for v in report.violations) == sorted(MODES)
    assert all("charged" in v.detail for v in report.violations)


def test_mistimed_decoupled_charge_is_caught(monkeypatch):
    """A decoupled charge that overshoots its target by one nanosecond
    moves the clock only inside the op stream (the end-of-case drain
    runs to absolute-time events), so the fast-path oracle must see it
    through the stream-end clock."""
    from repro.sim.engine import Simulator

    try_charge = Simulator.try_charge

    def overshoot(self, ns):
        accepted = try_charge(self, ns)
        if accepted:
            self.now += 1
        return accepted

    monkeypatch.setattr(Simulator, "try_charge", overshoot)
    report = evaluate_case(generate_case(CLEAN_SEED, n_ops=N_OPS,
                                         fault_ratio=0.0))
    assert "fast-path" in report.violated_oracles()
    fast = [v for v in report.violations if v.oracle == "fast-path"]
    assert all("stream_clock_ns" in v.detail for v in fast)


def test_steering_snapshot_reports_table2(clean_report):
    steering = clean_report.outcomes["hw_svt"].steering
    assert steering["svt"] == [0, 1, 2]
    assert steering["redirect"] == 0
    assert steering["is_vm"] is False
    assert steering["resolve"] == {"1": 1, "2": 2}
    assert steering["ctxt_faults"] == 0
    assert steering["ctxt_mismatches"] == 0
