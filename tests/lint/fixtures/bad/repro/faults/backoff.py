"""Fixture: backoff constants without provenance (SVT002)."""

import dataclasses

BASE_NS = 2_000                      # no citation at all


def steeper(policy):
    return dataclasses.replace(
        policy,
        factor=3,                    # synthetic:
        cap_ns=64_000,               # synthetic: wider ceiling
        max_attempts=7,
    )
