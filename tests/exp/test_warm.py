"""Shared work done once: the pre-fork warm-up and one cache key per run.

``Experiment.warm`` imports what ``run_cell`` and ``merge`` import
lazily, and the runner calls it only just before it forks a worker
pool.  The cache computes each experiment's key once per run and
digests each cost model once per cache.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.cpu import costmodels
from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.exp.runner import run_experiments

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Each experiment in a forked child of one fresh interpreter: warm,
#: then every smoke cell and the merge through the runner's cell entry;
#: prints the ``repro.*`` modules the cells or the merge still imported.
COMPLETENESS = """
import json, os, sys
from repro.exp import registry, runner

def loaded():
    return {name for name in sys.modules if name.startswith("repro.")}

for name in registry.names():
    sys.stdout.flush()
    pid = os.fork()
    if pid:
        os.waitpid(pid, 0)
        continue
    experiment = registry.get(name)
    experiment.warm()
    warmed = loaded()
    params = experiment.resolve(None, smoke=True)
    payloads = {cell: runner._execute_cell(name, cell, params)[2]
                for cell in experiment.cells(params)}
    experiment.merge(params, payloads)
    print(json.dumps([name, sorted(loaded() - warmed)]))
    sys.stdout.flush()
    os._exit(0)
"""

#: jobs=2 through a stand-in pool that records, when it is built, which
#: of the planned experiments' lazy modules are loaded and whether
#: fig8's native probe has run; it then runs the cells in process.
POOL_STATE = """
import concurrent.futures, json, sys
from repro.exp import registry
from repro.exp.runner import run_experiments

NAMES = ["fig8", "related", "table3"]
lazy = sorted({module for name in NAMES
               for module in registry.get(name).lazy_imports})
seen = {}

class Pool:
    def __init__(self, max_workers):
        seen["loaded"] = [module in sys.modules for module in lazy]
        native = sys.modules.get("repro.workloads.memcached_native")
        seen["probed"] = getattr(native, "_probe", None) is not None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *columns):
        return map(fn, *columns)

before = [module in sys.modules for module in lazy]
concurrent.futures.ProcessPoolExecutor = Pool
run_experiments(NAMES, jobs=2, smoke=True)
print(json.dumps({"lazy": lazy, "before": before, **seen}))
"""


def _python(code):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return done.stdout


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_warm_imports_everything_cells_and_merge_import():
    lines = _python(COMPLETENESS).splitlines()
    leftovers = dict(json.loads(line) for line in lines)
    assert sorted(leftovers) == registry.names()
    assert {name: modules for name, modules in leftovers.items()
            if modules} == {}


def test_parallel_run_warms_planned_experiments_before_the_pool():
    state = json.loads(_python(POOL_STATE))
    assert "repro.workloads.memcached" in state["lazy"]
    assert not any(state["before"])
    assert all(state["loaded"])
    assert state["probed"]


def _spy_warm(monkeypatch):
    calls = []
    for experiment in registry.experiments():
        monkeypatch.setattr(type(experiment), "warm",
                            lambda self: calls.append(self.name))
    return calls


def test_serial_run_never_warms(monkeypatch):
    calls = _spy_warm(monkeypatch)
    run_experiments(["fig6", "related"], jobs=1, smoke=True)
    assert calls == []


def test_cached_parallel_run_never_warms(monkeypatch, tmp_path):
    cache = ResultCache(tmp_path)
    run_experiments(["related", "table4"], jobs=1, cache=cache)
    calls = _spy_warm(monkeypatch)
    warm = run_experiments(["related", "table4"], jobs=2, cache=cache)
    assert warm.served == ["related", "table4"]
    assert calls == []


def test_jobs_below_one_is_rejected():
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            run_experiments(["table4"], jobs=jobs)


def test_one_fingerprint_per_model_and_one_key_per_entry(monkeypatch,
                                                          tmp_path,
                                                          second_model):
    fingerprint = costmodels.fingerprint
    calls = Counter()

    def counting(model):
        calls[id(model)] += 1
        return fingerprint(model)

    monkeypatch.setattr(costmodels, "fingerprint", counting)
    names = ["fig6", "related", "table4"]
    for overrides in ({}, {"cost_model": second_model.model_id}):
        root = tmp_path / (overrides.get("cost_model") or "default")
        for temperature in ("cold", "warm"):
            calls.clear()
            report = run_experiments(names, overrides=overrides,
                                     smoke=True, cache=ResultCache(root))
            assert max(calls.values()) == 1, temperature
            assert (report.computed if temperature == "cold"
                    else report.served) == names
        entries = report.to_document()["meta"]["cache"]["entries"]
        assert sorted(entries) == names
        for name, key in entries.items():
            path = root / f"{name}-{key}.json"
            assert json.loads(path.read_text())["key"] == key
