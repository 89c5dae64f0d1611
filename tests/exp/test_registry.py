"""Registry: registration, lookup, and parameter resolution."""

import pytest

from repro.errors import ConfigError
from repro.exp import registry
from repro.exp.registry import Experiment, register, unregister
from repro.exp.result import Result
from repro.exp.runner import run_experiments


class _Toy(Experiment):
    name = "_toy"
    title = "toy"
    description = "registry test fixture"
    defaults = {"iterations": 3}
    smoke = {"iterations": 1}

    def cells(self, params):
        return ("a", "b")

    def run_cell(self, cell, params):
        return {"a": 1, "b": 2}[cell] * params["iterations"]

    def merge(self, params, payloads):
        return Result.create(
            experiment=self.name, params=params,
            scalars={"total": payloads["a"] + payloads["b"]},
        )


@pytest.fixture
def toy():
    register(_Toy)
    yield registry.get("_toy")
    unregister("_toy")


def test_register_and_lookup(toy):
    assert registry.get("_toy") is toy
    assert "_toy" in registry.names()
    assert toy in registry.experiments()


def test_names_are_sorted():
    assert registry.names() == sorted(registry.names())


def test_unknown_name_raises():
    with pytest.raises(ConfigError, match="unknown experiment"):
        registry.get("nope")


def test_duplicate_registration_raises(toy):
    with pytest.raises(ConfigError, match="duplicate"):
        register(_Toy)


def test_register_requires_experiment_subclass():
    with pytest.raises(ConfigError):
        register(object)


def test_register_requires_name():
    class Nameless(Experiment):
        pass

    with pytest.raises(ConfigError, match="no name"):
        register(Nameless)


#: Parameters every experiment inherits without declaring them.
UNIVERSAL = {"cost_model": "xeon-paper"}


def test_resolve_merges_defaults(toy):
    assert toy.resolve() == {**UNIVERSAL, "iterations": 3}
    assert toy.resolve({"iterations": 9}) \
        == {**UNIVERSAL, "iterations": 9}
    # None means "not overridden" (the CLI's unset flags).
    assert toy.resolve({"iterations": None}) \
        == {**UNIVERSAL, "iterations": 3}
    # Undeclared keys are ignored by default (shared CLI namespace)...
    assert toy.resolve({"seed": 5}) == {**UNIVERSAL, "iterations": 3}
    # ...and rejected in strict mode (tests catch typos).
    with pytest.raises(ConfigError, match="no parameter"):
        toy.resolve({"seed": 5}, strict=True)


def test_resolve_accepts_universal_overrides(toy, second_model):
    name = second_model.model_id
    resolved = toy.resolve({"cost_model": name}, strict=True)
    assert resolved == {"cost_model": name, "iterations": 3}


def test_resolve_lays_smoke_over_defaults(toy):
    assert toy.resolve(smoke=True) == {**UNIVERSAL, "iterations": 1}
    # An override beats the smoke value; a None override keeps it.
    assert toy.resolve({"iterations": 7}, smoke=True) \
        == {**UNIVERSAL, "iterations": 7}
    assert toy.resolve({"iterations": None}, smoke=True) \
        == {**UNIVERSAL, "iterations": 1}


def test_run_composes_cells(toy):
    result = run_experiments(["_toy"]).results["_toy"]
    assert result.scalar("total") == 9
    assert result.params_dict == {**UNIVERSAL, "iterations": 3}


def test_every_paper_experiment_is_registered():
    # Regression for the old hand-maintained `all` list, which silently
    # dropped table3/l3/related: the registry is now the single source.
    expected = {
        "table1", "table3", "table4",
        "fig6", "fig7", "fig8", "fig9", "fig10",
        "sec61", "deep", "l3", "coexist", "related",
        "ablation_lazy_split", "ablation_hw_model", "ablation_wait",
    }
    assert expected <= set(registry.names())
