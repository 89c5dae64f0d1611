"""Result cache: hits, misses, and fingerprint invalidation."""

from repro.exp.cache import (
    ResultCache,
    code_fingerprint,
    cost_model_fingerprint,
)
from repro.exp.result import Result

PARAMS = {"iterations": 5}


def _result():
    return Result.create(experiment="x", params=PARAMS,
                         scalars={"v": 1.0})


def test_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path)
    assert cache.load("x", PARAMS) is None
    cache.store("x", PARAMS, _result())
    assert cache.load("x", PARAMS) == _result()


def test_params_change_misses(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("x", PARAMS, _result())
    assert cache.load("x", {"iterations": 6}) is None


def test_cost_model_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, cost_fingerprint="aaaa")
    old.store("x", PARAMS, _result())
    assert old.load("x", PARAMS) == _result()
    # A new timing constant -> new fingerprint -> the entry is stale.
    new = ResultCache(tmp_path, cost_fingerprint="bbbb")
    assert new.load("x", PARAMS) is None


def test_code_change_invalidates(tmp_path):
    old = ResultCache(tmp_path, code_version="v1")
    old.store("x", PARAMS, _result())
    assert ResultCache(tmp_path, code_version="v2").load("x", PARAMS) \
        is None


def test_corrupt_entry_reads_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.store("x", PARAMS, _result())
    path.write_text("{not json")
    assert cache.load("x", PARAMS) is None


def test_clear(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store("x", PARAMS, _result())
    cache.store("y", PARAMS, _result())
    assert cache.clear("x") == 1
    assert cache.load("x", PARAMS) is None
    assert cache.load("y", PARAMS) is not None
    assert cache.clear() == 1


def test_fingerprints_are_stable():
    assert cost_model_fingerprint() == cost_model_fingerprint()
    assert code_fingerprint() == code_fingerprint()
    assert len(cost_model_fingerprint()) == 16


def test_cost_model_param_keys_differently(tmp_path, second_model):
    # The registry's cache bar: the same experiment under a different
    # registered model must occupy a different cache slot.
    cache = ResultCache(tmp_path)
    xeon = {**PARAMS, "cost_model": "xeon-paper"}
    other = {**PARAMS, "cost_model": second_model.model_id}
    assert cache.key("x", xeon) != cache.key("x", other)
    # "xeon-paper" is what an absent param resolves to, but it is still
    # a distinct *param dict*, which the key material already covers.
    cache.store("x", xeon, _result())
    assert cache.load("x", other) is None
    assert cache.load("x", xeon) == _result()


def test_per_model_fingerprints_differ(second_model):
    assert cost_model_fingerprint(second_model.model_id) \
        != cost_model_fingerprint("xeon-paper")
    assert cost_model_fingerprint("xeon-paper") \
        == cost_model_fingerprint()

