"""Runner: parallel == serial byte-for-byte, and cache integration."""

from repro.exp import registry
from repro.exp.cache import ResultCache
from repro.exp.runner import run_experiments

#: Small-but-real parameters so the determinism check stays fast.
FAST = {"iterations": 10, "requests": 5_000}


def test_jobs_do_not_change_the_document():
    serial = run_experiments(["fig6", "fig8"], overrides=FAST, jobs=1)
    parallel = run_experiments(["fig6", "fig8"], overrides=FAST, jobs=4)
    assert parallel.to_json() == serial.to_json()


def test_cache_round_trip(tmp_path):
    cache = ResultCache(tmp_path)
    cold = run_experiments(["fig6"], overrides={"iterations": 10},
                           cache=cache)
    assert cold.served == [] and cold.computed == ["fig6"]
    warm = run_experiments(["fig6"], overrides={"iterations": 10},
                           cache=cache)
    assert warm.served == ["fig6"] and warm.computed == []
    # Cache temperature must not leak into the document.
    assert warm.to_json() == cold.to_json()
    assert warm.results["fig6"] == cold.results["fig6"]


def test_document_covers_every_requested_experiment(tmp_path):
    report = run_experiments(["fig6", "table1"],
                             overrides={"iterations": 10},
                             cache=ResultCache(tmp_path))
    doc = report.to_document()
    assert sorted(doc["experiments"]) == ["fig6", "table1"]
    assert sorted(doc["meta"]["cache"]["entries"]) == ["fig6", "table1"]
    for result_doc in doc["experiments"].values():
        assert result_doc["schema"] == "repro-result/1"


def test_smoke_overlay_applies():
    report = run_experiments(["fig6"], jobs=1, smoke=True)
    assert report.results["fig6"].params_dict["iterations"] == \
        registry.get("fig6").smoke["iterations"]
