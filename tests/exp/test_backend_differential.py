"""fig8's queue backends give identical Result bytes.

The ETC queue loop has two implementations: the reference loop and the
self-checked native loop (``repro.workloads.memcached_native``).  Their
contract is byte-identity, serial and across a ``--jobs 2`` pool: the
reference is forced by monkeypatching the probe result, which forked
pool workers inherit, and the merged metrics prove the workers really
served it.
"""

from repro.exp.runner import run_experiments
from repro.workloads import memcached, memcached_native

NAMES = ["fig8", "table1"]


def _documents(jobs, collect_metrics=False):
    memcached.reset_service_memo()
    report = run_experiments(NAMES, jobs=jobs, cache=None, smoke=True,
                             collect_metrics=collect_metrics)
    return ({run.name: run.result.to_json() for run in report.runs},
            report)


def _fig8_backends(report):
    counters = next(run for run in report.runs
                    if run.name == "fig8").metrics["counters"]
    return {key for key in counters
            if key.startswith("memcached_queue_runs_total")}


def test_reference_and_native_backends_give_identical_bytes(monkeypatch):
    memcached_native.reset_probe()
    native_serial, _ = _documents(jobs=1)
    native_pooled, _ = _documents(jobs=2)

    reason = memcached_native.SELF_CHECK_MISMATCH
    monkeypatch.setattr(memcached_native, "_probe", (None, reason))
    reference_serial, serial_report = _documents(jobs=1,
                                                 collect_metrics=True)
    reference_pooled, pooled_report = _documents(jobs=2,
                                                 collect_metrics=True)
    expected = {"memcached_queue_runs_total{backend=reference "
                f"({reason})}}"}
    assert _fig8_backends(serial_report) == expected
    assert _fig8_backends(pooled_report) == expected

    assert native_pooled == native_serial
    assert reference_serial == native_serial
    assert reference_pooled == native_serial
    memcached_native.reset_probe()
