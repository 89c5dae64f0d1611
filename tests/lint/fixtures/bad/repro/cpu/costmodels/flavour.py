"""Fixture: registry constants without paper provenance (SVT002)."""

BASE_STALL = 20                      # no citation at all


def build(model):
    return model.with_overrides(
        model_id="bad-flavour",
        switch_l2_l0=560,            # synthetic: not accepted here
        mwait_wake=45,               # paper: §5.2 mwait wake, rescaled
    )
