"""Fixture: registry constants with valid provenance (SVT002)."""

BASE_STALL = 20                      # paper: §4 stall/resume event


def build(model):
    return model.with_overrides(
        model_id="ok-flavour",
        switch_l2_l0=560,            # paper: Table 1 part 1, rescaled
        mwait_wake=45,               # paper: §5.2 mwait wake, rescaled
    )
