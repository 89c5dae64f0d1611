"""BackoffPolicy: the shared deterministic retry schedule."""

import pytest

from repro.faults import BackoffPolicy, Watchdog


def test_defaults_reproduce_the_watchdog_schedule():
    policy = BackoffPolicy()
    assert [policy.delay_ns(k) for k in range(policy.max_attempts)] == \
           [2_000, 4_000, 8_000, 16_000, 32_000]


def test_delay_is_exponential_and_capped():
    policy = BackoffPolicy(base_ns=1000, factor=2, cap_ns=4000)
    assert [policy.delay_ns(k) for k in range(5)] == \
           [1000, 2000, 4000, 4000, 4000]


def test_constructor_validation():
    with pytest.raises(ValueError):
        BackoffPolicy(base_ns=0)
    with pytest.raises(ValueError):
        BackoffPolicy(factor=0)
    with pytest.raises(ValueError):
        BackoffPolicy(base_ns=2000, cap_ns=1000)
    with pytest.raises(ValueError):
        BackoffPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        BackoffPolicy().delay_ns(-1)


def test_exhausted_matches_max_attempts():
    # The watchdog charges delay_ns(k) for strikes 0..max_attempts-1
    # and is exhausted exactly at the policy's budget.
    wd = Watchdog(timeout_ns=1000, max_strikes=3)
    assert wd.policy.max_attempts == 3
    wd.start()
    charged = []
    for _ in range(wd.policy.max_attempts):
        assert not wd.exhausted
        charged.append(wd.strike())
    assert wd.exhausted
    assert charged == [wd.policy.delay_ns(k) for k in range(3)] == \
           [1000, 2000, 4000]


def test_watchdog_delegates_byte_identically():
    wd = Watchdog(timeout_ns=1000, backoff_factor=3,
                  max_backoff_ns=50_000, max_strikes=4)
    assert isinstance(wd.policy, BackoffPolicy)
    for strike in range(6):
        assert wd.backoff_ns(strike) == wd.policy.delay_ns(strike)
    assert [wd.backoff_ns(k) for k in range(5)] == \
           [1000, 3000, 9000, 27000, 50000]
