"""Tests of the benchmark harness itself.

::

    python3 -m pytest perfbench/tests -q

The last group runs the benchmark for real (a fraction of a second of
measurement per workload, so it takes about a minute).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- self time -----------------------------------------------------------------

class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_a_nested_call_tree():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.spend(1.0)

    def middle():
        clock.spend(2.0)
        leaf()
        clock.spend(0.5)
        leaf()

    def root():
        clock.spend(4.0)
        middle()
        leaf()

    leaf = tracer.wrap(leaf, "a/leaf")
    middle = tracer.wrap(middle, "a/middle")
    root = tracer.wrap(root, "b/root")
    root()

    assert tracer.self_s == {"a/leaf": 3.0, "a/middle": 2.5,
                             "b/root": 4.0}
    assert tracer.inclusive_s["b/root"] == 9.5
    assert tracer.inclusive_s["a/middle"] == 4.5
    assert tracer.calls == {"a/leaf": 3, "a/middle": 1, "b/root": 1}
    assert sum(tracer.self_s.values()) == tracer.inclusive_s["b/root"]
    assert tracer.stack == []


def test_self_time_survives_an_exception_and_recursion():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def fall(depth):
        clock.spend(1.0)
        if depth:
            fall(depth - 1)
        else:
            raise ValueError("bottom")

    fall = tracer.wrap(fall, "x/fall")
    with pytest.raises(ValueError):
        fall(3)
    assert tracer.self_s["x/fall"] == 4.0
    assert tracer.inclusive_s["x/fall"] == 1.0 + 2.0 + 3.0 + 4.0
    assert tracer.stack == []


def test_patch_rebinds_imported_names_and_uninstall_restores():
    from repro.virt import nested, transform

    original = transform.transform_12_to_02
    tracer = tracing.Tracer()
    tracer.patch(transform, "transform_12_to_02", "virt.transform/t")
    try:
        assert nested.transform_12_to_02 is transform.transform_12_to_02
        assert nested.transform_12_to_02 is not original
    finally:
        tracer.uninstall()
    assert transform.transform_12_to_02 is original
    assert nested.transform_12_to_02 is original


def test_layer_metrics_account_for_the_wall():
    raw = {
        "self_s": {"virt.ept/EptTable.translate": 1.0,
                   "virt.vmcs/Vmcs.read": 2.0,
                   "-/Fig9.run_cell": 0.5},
        "inclusive_s": {}, "calls": {"virt.ept/EptTable.translate": 7},
        "tallies": {}, "wall_s": 4.0, "import_s": 0.2, "events": 3,
    }
    metrics = tracing.layer_metrics(raw)
    assert metrics["virt.ept.translations"] == 7
    assert metrics["virt.ept.self_s"] == 1.0
    # The barrier (experiment code) is not a layer: it stays unattributed.
    assert metrics["trace.unattributed_s"] == pytest.approx(1.0)


# -- output checks ---------------------------------------------------------------

def _document(value: float) -> bytes:
    return json.dumps({"experiments": {"fig6": {"scalars": {"x": value}}},
                       "code_fingerprint": "anything"}).encode()


def test_forced_digest_mismatch_counts_as_failure(tmp_path, monkeypatch):
    table = {"digests": {"exit-path": {"5": "0" * 64}}}
    path = tmp_path / "digests.json"
    path.write_text(json.dumps(table))
    monkeypatch.setattr(bench, "DIGEST_FILE", path)

    workload = bench.ExitPath(runner=None, seed=5)
    ref = workload._reference(_document(1.0), exits=10, kernel="segment")
    assert "differs from the recorded" in ref.mismatch
    failure = bench._check_digest(_document(1.0), ref)
    assert "differs" in failure

    its = [bench.Iteration(failure=failure, wall_s=1.0, compute_s=1.0,
                           calib_s=1.0),
           bench.Iteration(wall_s=1.0, compute_s=1.0, calib_s=1.0)]
    assert bench.end_to_end(workload, ref, its)["failed_frac"] == 0.5


def test_a_seed_without_a_recorded_digest_fails_closed(tmp_path,
                                                       monkeypatch):
    path = tmp_path / "digests.json"
    path.write_text(json.dumps({"digests": {"exit-path": {}}}))
    monkeypatch.setattr(bench, "DIGEST_FILE", path)
    workload = bench.ExitPath(runner=None, seed=5)
    with pytest.raises(bench.HarnessError, match="no digest recorded"):
        workload._reference(_document(1.0), exits=10, kernel="segment")


def test_every_seed_maps_to_a_recorded_experiment_seed():
    table = json.loads(bench.DIGEST_FILE.read_text())["digests"]
    for seed in (0, 99, 100, 12345, 2**31 - 1):
        workload = bench.ExitPath(runner=None, seed=seed)
        assert 0 <= workload.seed < bench.RECORDED_SEEDS
        for name in bench.WORKLOADS:
            assert str(workload.seed) in table[name]


def test_digest_ignores_everything_but_the_experiments():
    other = json.dumps({"experiments": {"fig6": {"scalars": {"x": 1.0}}},
                        "code_fingerprint": "changed"}).encode()
    assert bench.experiments_digest(_document(1.0)) == \
        bench.experiments_digest(other)
    assert bench.experiments_digest(_document(1.0)) != \
        bench.experiments_digest(_document(1.5))


def test_warm_bytes_differing_from_cold_count_as_failure():
    doc = _document(1.0)
    ref = bench.Reference(digest=bench.experiments_digest(doc),
                          exits=1, requests=0,
                          paper_err_pct=0.0, paper_pairs=0,
                          kernel="segment")

    def finished(stdout, stderr):
        return bench.Finished(code=0, wall_s=1.0, spawned=0.0, rss_mb=1.0,
                              stdout=stdout, stderr=stderr)

    cold = finished(doc, "cache: served 0, computed 17 (cache)\n")
    warm = finished(doc, "cache: served 17, computed 0 (cache)\n")
    assert bench._check_document(cold, warm, ref) == ""
    changed = finished(doc + b" ", warm.stderr)
    assert "differ" in bench._check_document(cold, changed, ref)
    recomputed = finished(doc, "cache: served 0, computed 17 (cache)\n")
    assert "computed" in bench._check_document(cold, recomputed, ref)


def test_throughput_bases_come_from_simulation_outputs():
    metrics = {"counters": {
        "exits_total{level=2,mode=baseline,reason=CPUID}": 5,
        "exits_total{level=1,mode=baseline,reason=CPUID}": 100,
        "exits_total{level=2,mode=sw_svt,reason=HLT}": 2,
        "aux_exits_total{kind=vmread}": 50,
    }}
    assert bench.l2_exits(metrics) == 7
    fig8 = {"fig8": {"params": {"requests": 1000},
                     "series": [{"points": [[1, 2]] * 8},
                                {"points": [[1, 2]] * 8}]}}
    assert bench.memcached_requests(fig8) == 2 * 8 * 1000


def test_tail_percentile_leaves_ten_samples_beyond():
    assert bench.tail_percentile([1.0] * 10) is None
    values = [float(v) for v in range(1, 21)]
    pct, value = bench.tail_percentile(values)
    assert pct == 50
    assert sum(1 for v in values if v > value) == 10


# -- names -------------------------------------------------------------------------

def _spec_names(section):
    return [metric["name"] for metric in SPEC[section]]


def test_every_metric_name_is_valid():
    synthetic = {"self_s": {}, "inclusive_s": {}, "calls": {},
                 "tallies": {}, "wall_s": 1.0, "import_s": 0.1,
                 "events": 0}
    names = (list(bench.END_TO_END_UNITS) + list(bench.REPORT_ONLY)
             + list(tracing.layer_metrics(synthetic)) + ["trace.overhead"]
             + _spec_names("end_to_end") + _spec_names("per_layer")
             + [w["name"] for w in SPEC["workloads"]])
    for name in names:
        assert NAME.match(name), name
    for section in ("end_to_end", "per_layer", "workloads"):
        spec = [m["name"] for m in SPEC[section]]
        assert len(spec) == len(set(spec)), section


def test_spec_matches_the_harness():
    assert set(_spec_names("end_to_end")) == set(bench.END_TO_END_UNITS)
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(bench.WORKLOADS)
    for metric in SPEC["end_to_end"]:
        assert metric["unit"] == bench.END_TO_END_UNITS[metric["name"]]
    for metric in SPEC["per_layer"]:
        assert metric["unit"] == bench.per_layer_unit(metric["name"])


# -- real runs -----------------------------------------------------------------------

def _run(args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_a_run_emits_every_declared_name(workload, trace):
    done = _run(["--workload", workload, "--seed", "1", "--seconds",
                 "0.1", "--trace", str(trace)])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == set(_spec_names(section))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


def test_forbidden_environment_fails_closed():
    env = dict(os.environ, REPRO_SIM_KERNEL="legacy")
    done = _run(["--workload", "exit-path", "--seed", "1", "--seconds",
                 "1"], env=env)
    assert done.returncode != 0
    assert "REPRO_SIM_KERNEL" in done.stderr
    assert done.stdout.strip() == ""


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "exit-path", "--seed", "1", "--seconds",
                 "1"], cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout
