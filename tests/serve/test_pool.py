"""WorkerPool: supervised execution, crash retry, deadlines."""

import pytest

from repro.errors import ConfigError
from repro.exp import registry
from repro.exp.runner import run_experiments
from repro.faults.backoff import BackoffPolicy
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.serve.pool import Job, WorkerPool, compute_body

#: A near-instant retry schedule so crash tests stay fast.
FAST = BackoffPolicy(base_ns=1000, factor=1, cap_ns=1000,
                     max_attempts=3)


def setup_module():
    registry.ensure_loaded()


def smoke_job(name="table1", **overrides):
    exp = registry.get(name)
    params = exp.resolve(exp.smoke)
    return Job(key=f"fp-{name}", kind="experiment", experiment=name,
               params=tuple(sorted(params.items())),
               deadline_s=overrides.pop("deadline_s", 30.0))


def storm_injector(seed=1):
    plan = FaultPlan(seed=seed, rates={FaultKind.WORKER_KILL: 1.0})
    return FaultInjector(plan)


def test_jobs_must_be_positive():
    with pytest.raises(ConfigError):
        WorkerPool(jobs=0)


def test_execute_requires_start():
    pool = WorkerPool(jobs=1)
    with pytest.raises(ConfigError):
        pool.execute(smoke_job())


def test_served_body_is_byte_identical_to_the_serial_path():
    job = smoke_job("table1")
    report = run_experiments(["table1"], overrides=dict(job.params))
    expected = report.results["table1"].to_json()
    pool = WorkerPool(jobs=1)
    pool.start()
    try:
        outcome = pool.execute(job)
    finally:
        pool.stop()
    assert outcome.status == "ok"
    assert outcome.attempts == 1
    assert outcome.body == expected


def test_worker_errors_come_back_as_error_outcomes():
    pool = WorkerPool(jobs=1)
    pool.start()
    try:
        outcome = pool.execute(Job(
            key="fp-bad", kind="experiment", experiment="no-such",
            params=(), deadline_s=30.0))
    finally:
        pool.stop()
    assert outcome.status == "error"
    assert "no-such" in outcome.error
    # The worker survives a deterministic failure: no restart burned.
    assert pool.counters()["restarts"] == 0


def test_injected_kill_is_retried_without_duplicating_work():
    injector = storm_injector()
    pool = WorkerPool(jobs=1, policy=FAST, injector=injector,
                      max_kills_per_worker=1)
    pool.start()
    try:
        outcome = pool.execute(smoke_job())
    finally:
        pool.stop()
    assert outcome.status == "ok"
    assert outcome.attempts == 2
    counters = pool.counters()
    # The killed attempt never computed: exactly one execution.
    assert counters["executed"] == 1
    assert counters["crashes"] == 1
    assert counters["retries"] == 1
    assert counters["restarts"] == 1
    assert injector.injected[FaultKind.WORKER_KILL] == 1
    assert injector.recovered[FaultKind.WORKER_KILL] == 1


def test_unbroken_crash_storm_exhausts_into_a_crash_outcome():
    # Every dispatch kills (no per-worker cap): the FAST budget of 3
    # attempts burns out and the caller gets a "crash" to quarantine.
    pool = WorkerPool(jobs=1, policy=FAST, injector=storm_injector(),
                      max_kills_per_worker=1000)
    pool.start()
    try:
        outcome = pool.execute(smoke_job())
    finally:
        pool.stop()
    assert outcome.status == "crash"
    assert outcome.attempts == 3
    counters = pool.counters()
    assert counters["quarantine_hits"] == 1
    assert counters["executed"] == 0
    assert counters["crashes"] == 3


def test_deadline_overrun_is_a_timeout_not_a_retry():
    pool = WorkerPool(jobs=1, policy=FAST)
    pool.start()
    try:
        outcome = pool.execute(smoke_job(deadline_s=1e-4))
        assert outcome.status == "timeout"
        assert "deadline" in outcome.error
        assert pool.counters()["timeouts"] == 1
        assert pool.counters()["retries"] == 0
        # The pool restarted the overrun worker and still serves.
        replay = pool.execute(smoke_job())
    finally:
        pool.stop()
    assert replay.status == "ok"


def test_compute_body_rejects_unknown_kinds():
    with pytest.raises(ConfigError):
        compute_body("teleport", "", {})


def test_stop_is_idempotent():
    pool = WorkerPool(jobs=1)
    pool.start()
    pool.stop()
    pool.stop()
