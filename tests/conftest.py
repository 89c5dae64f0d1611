"""Shared fixtures for the test suite."""

import json
import signal
from pathlib import Path

import pytest

from repro.cpu import costmodels
from repro.cpu.costs import CostModel
from repro.sim.engine import Simulator

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Per-test wall-clock ceiling (seconds) for the SIGALRM fallback below.
#: Generous — the whole suite runs in well under a minute — but finite,
#: so a hung blocking wait fails loudly instead of wedging CI.
FALLBACK_TIMEOUT_S = 120


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite tests/golden/*.json from the current simulator "
             "output instead of comparing against it",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Per-test timeout fallback when pytest-timeout is unavailable.

    CI installs pytest-timeout and passes ``--timeout``; the offline
    evaluation image has no network, so this hook arms a plain SIGALRM
    around each test instead.  It stands down whenever the real plugin
    is loaded (or off the main thread / non-Unix, where SIGALRM is
    unavailable).
    """
    use_alarm = (
        not item.config.pluginmanager.hasplugin("timeout")
        and hasattr(signal, "SIGALRM")
    )
    if use_alarm:
        def _expired(signum, frame):
            raise TimeoutError(
                f"test exceeded the {FALLBACK_TIMEOUT_S}s fallback "
                "timeout (deadlocked wait?)"
            )

        previous = signal.signal(signal.SIGALRM, _expired)
        signal.alarm(FALLBACK_TIMEOUT_S)
    try:
        yield
    finally:
        if use_alarm:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


def _assert_matches(got, expected, where, rel_tol):
    """Recursive structural compare; floats within ``rel_tol``."""
    if isinstance(expected, float) or isinstance(got, float):
        assert got == pytest.approx(expected, rel=rel_tol), \
            f"{where}: {got} != {expected} (rel_tol={rel_tol})"
    elif isinstance(expected, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(expected), \
            f"{where}: keys {sorted(got)} != {sorted(expected)}"
        for key in expected:
            _assert_matches(got[key], expected[key],
                            f"{where}.{key}", rel_tol)
    elif isinstance(expected, list):
        assert isinstance(got, list) and len(got) == len(expected), \
            f"{where}: length {len(got)} != {len(expected)}"
        for i, (g, e) in enumerate(zip(got, expected)):
            _assert_matches(g, e, f"{where}[{i}]", rel_tol)
    else:
        assert got == expected, f"{where}: {got!r} != {expected!r}"


class GoldenStore:
    """Load/compare/update helper behind the ``golden`` fixture.

    ``check(name, data)`` compares ``data`` against
    ``tests/golden/<name>.json`` and fails with a pointer to
    ``--update-golden`` on drift; with the flag set it rewrites the
    file instead.  Integers and strings must match exactly (the
    simulator is deterministic); floats within ``rel_tol``.
    """

    def __init__(self, update):
        self.update = update

    def path(self, name):
        return GOLDEN_DIR / f"{name}.json"

    def check(self, name, data, rel_tol=1e-9):
        path = self.path(name)
        encoded = json.dumps(data, sort_keys=True, indent=2) + "\n"
        if self.update:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(encoded)
            return json.loads(encoded)
        if not path.exists():
            pytest.fail(
                f"golden file {path} missing; run "
                f"pytest --update-golden to create it"
            )
        expected = json.loads(path.read_text())
        got = json.loads(encoded)   # normalize tuples/ints the same way
        try:
            _assert_matches(got, expected, name, rel_tol)
        except AssertionError as exc:
            pytest.fail(
                f"output drifted from golden/{path.name}: {exc}\n"
                f"If the change is intentional, regenerate with "
                f"pytest --update-golden"
            )
        return expected


@pytest.fixture
def golden(request):
    return GoldenStore(request.config.getoption("--update-golden"))


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def costs():
    return CostModel()


@pytest.fixture
def second_model():
    """A second registered cost model (a cheaper L2<->L0 switch) for the
    test's duration, so the name-keyed paths — the ``cost_model``
    parameter through the runner, cache keys, ``use_default`` — see
    more than the one bundled model."""
    model = costmodels.register_model(CostModel().with_overrides(
        model_id="second-test", switch_l2_l0=200))
    try:
        yield model
    finally:
        costmodels.unregister_model(model.model_id)
