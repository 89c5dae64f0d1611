"""Cost-model registry: registration, validation, ambient defaults."""

import pytest

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import costmodels
from repro.cpu.costs import CostModel
from repro.errors import ConfigError


def test_xeon_paper_is_the_bare_cost_model():
    # The refactor's bit-identity anchor: a registered default that
    # compares equal (dataclass equality over every field) to what the
    # nine former `costs or CostModel()` sites constructed.
    assert costmodels.get_model("xeon-paper") == CostModel()
    assert costmodels.DEFAULT_MODEL == "xeon-paper"


def test_bundled_models_are_registered():
    assert costmodels.model_names() == ["xeon-paper"]


def test_every_registered_model_is_usable():
    for name in costmodels.model_names():
        model = costmodels.get_model(name)
        assert model.model_id == name
        assert model.table1_total() > 0
        # CPUID must stay priced: it is the Table 1 anchor workload.
        assert "CPUID" in model.l0_handler_pure


def test_unknown_model_raises_with_known_names():
    with pytest.raises(ConfigError, match="xeon-paper"):
        costmodels.get_model("pentium-iii")


def test_resolve_layers(second_model):
    custom = CostModel().with_overrides(model_id="custom-here",
                                        mwait_wake=90)
    assert costmodels.resolve(None) == CostModel()
    assert costmodels.resolve("second-test") is second_model
    assert costmodels.resolve(custom) is custom
    with pytest.raises(ConfigError):
        costmodels.resolve(12345)


def test_use_default_is_a_stack(second_model):
    assert costmodels.default_model() == CostModel()
    with costmodels.use_default("second-test"):
        assert costmodels.default_model() is second_model
        assert costmodels.resolve(None) is second_model
        with costmodels.use_default("xeon-paper"):
            assert costmodels.default_model().model_id == "xeon-paper"
        assert costmodels.default_model() is second_model
    assert costmodels.default_model() == CostModel()


def test_register_rejects_duplicates_and_bad_ids():
    with pytest.raises(ConfigError, match="duplicate cost model"):
        costmodels.register_model(CostModel())
    with pytest.raises(ConfigError):
        costmodels.validate_model(
            CostModel().with_overrides(model_id="Not Kebab Case"))
    with pytest.raises(ConfigError):
        costmodels.validate_model("not-a-model")


def test_unregister_round_trip():
    model = CostModel().with_overrides(model_id="ephemeral-test",
                                       mwait_wake=90)
    costmodels.register_model(model)
    try:
        assert costmodels.get_model("ephemeral-test") is model
        assert costmodels.model_names() == ["ephemeral-test",
                                            "xeon-paper"]
    finally:
        costmodels.unregister_model("ephemeral-test")
    assert "ephemeral-test" not in costmodels.model_names()


def test_machine_accepts_a_model_name(second_model):
    machine = Machine(mode=ExecutionMode.BASELINE, costs="second-test")
    assert machine.costs is second_model


def test_machine_differs_across_models(second_model):
    from repro.workloads import cpuid

    per_model = {
        name: cpuid.run(iterations=10, costs=name).ns_per_op
        for name in ("xeon-paper", "second-test")
    }
    assert per_model["xeon-paper"] == 10400.0
    assert per_model["second-test"] < per_model["xeon-paper"]


def test_model_id_rides_segment_fingerprints():
    # Same constants, different id: the cost-model fingerprint and
    # every other asdict-based digest must treat them as distinct.
    import dataclasses

    twin = CostModel().with_overrides(model_id="twin-of-xeon")
    assert dataclasses.asdict(twin) != dataclasses.asdict(CostModel())
