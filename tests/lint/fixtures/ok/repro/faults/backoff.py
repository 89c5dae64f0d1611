"""Fixture: backoff constants with valid provenance (SVT002)."""

import dataclasses

BASE_NS = 2_000                      # paper: §5.2 channel round trips


def steeper(policy):
    return dataclasses.replace(
        policy,
        factor=3,                    # synthetic: steeper for slow rings
        cap_ns=64_000,               # synthetic: wider ceiling
        max_attempts=7,              # synthetic: two more strikes
    )
