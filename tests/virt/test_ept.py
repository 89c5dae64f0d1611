"""EPT translation, MMIO misconfig, two-level composition."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EptFault
from repro.io.device import MmioDevice
from repro.virt.ept import EptMisconfig, EptTable


class NullDevice(MmioDevice):
    def on_kick(self, queue_index):
        pass


def test_simple_translate():
    ept = EptTable()
    ept.map_range(0x0, 0x10000, 0x100000)
    assert ept.translate(0x0) == 0x100000
    assert ept.translate(0xFFFF) == 0x10FFFF


def test_unmapped_faults():
    ept = EptTable()
    ept.map_range(0x0, 0x1000, 0x100000)
    with pytest.raises(EptFault):
        ept.translate(0x2000)


def test_mmio_raises_misconfig():
    ept = EptTable()
    device = NullDevice("d", 0xF000)
    region = ept.map_mmio(0xF000, 0x1000, device)
    with pytest.raises(EptMisconfig) as excinfo:
        ept.translate(0xF800)
    assert excinfo.value.region is region
    assert ept.lookup_mmio(0xF800).device is device
    assert ept.lookup_mmio(0x0) is None


def test_overlapping_mappings_rejected():
    ept = EptTable()
    ept.map_range(0x0, 0x2000, 0x100000)
    with pytest.raises(EptFault):
        ept.map_range(0x1000, 0x1000, 0x200000)
    with pytest.raises(EptFault):
        ept.map_mmio(0x1800, 0x1000, NullDevice("d", 0x1800))


def test_layout_counts_successful_mappings_only():
    ept = EptTable()
    ept.map_range(0x0, 0x2000, 0x100000)
    ept.map_mmio(0xF000, 0x1000, NullDevice("d", 0xF000))
    with pytest.raises(EptFault):
        ept.map_range(0x1000, 0x1000, 0x200000)
    ept.invalidate()                       # a TLB flush moves nothing
    assert ept.layout == 2


def test_zero_size_rejected():
    ept = EptTable()
    with pytest.raises(EptFault):
        ept.map_range(0, 0, 0)


def test_inverse_translation():
    ept = EptTable()
    ept.map_range(0x1000, 0x1000, 0x500000)
    assert ept.inverse(0x500800) == 0x1800
    with pytest.raises(EptFault):
        ept.inverse(0x900000)


def test_compose_two_levels_matches_sequential_translation():
    inner = EptTable("l1for2")       # L2 GPA -> L1 GPA
    inner.map_range(0x0, 0x4000, 0x10000)
    outer = EptTable("l0for1")       # L1 GPA -> HPA
    outer.map_range(0x0, 0x100000, 0x40000000)
    composed = inner.compose(outer)
    for gpa in (0x0, 0x123, 0x3FFF):
        assert composed.translate(gpa) == outer.translate(
            inner.translate(gpa)
        )


def test_compose_preserves_inner_mmio():
    inner = EptTable()
    device = NullDevice("nic", 0xF000)
    inner.map_mmio(0xF000, 0x1000, device)
    inner.map_range(0x0, 0x1000, 0x10000)
    outer = EptTable()
    outer.map_range(0x0, 0x100000, 0x40000000)
    composed = inner.compose(outer)
    with pytest.raises(EptMisconfig):
        composed.translate(0xF010)
    assert composed.lookup_mmio(0xF010).device is device


def test_compose_splits_across_outer_discontiguity():
    inner = EptTable()
    inner.map_range(0x0, 0x4000, 0x0)    # spans two outer runs
    outer = EptTable()
    outer.map_range(0x0, 0x2000, 0x100000)
    outer.map_range(0x2000, 0x2000, 0x900000)  # discontiguous target
    composed = inner.compose(outer)
    assert composed.translate(0x1FFF) == 0x101FFF
    assert composed.translate(0x2000) == 0x900000


def test_invalidate_bumps_generation():
    ept = EptTable()
    assert ept.generation == 0
    ept.invalidate()
    assert ept.generation == 1


def test_mapped_bytes():
    ept = EptTable()
    ept.map_range(0x0, 0x1000, 0x0)
    ept.map_range(0x10000, 0x2000, 0x100000)
    assert ept.mapped_bytes == 0x3000


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=0x3FFF))
def test_property_compose_equals_two_step(gpa):
    inner = EptTable()
    inner.map_range(0x0, 0x4000, 0x20000)
    outer = EptTable()
    # 4 KiB-granular scattered outer mapping.
    for page in range(0x20000 // 0x1000, 0x24000 // 0x1000):
        outer.map_range(page * 0x1000, 0x1000,
                        0x40000000 + (page * 7 % 64) * 0x1000)
    composed = inner.compose(outer)
    assert composed.translate(gpa) == outer.translate(inner.translate(gpa))


def test_compose_splits_at_unaligned_outer_boundary():
    # The second outer range starts mid-page: a 4 KiB page walk would
    # extend the first run through 0x1FFF and map 0x1800 -> 0x101800.
    outer = EptTable()
    outer.map_range(0x0, 0x1800, 0x100000)
    outer.map_range(0x1800, 0x2800, 0x900000)
    inner = EptTable()
    inner.map_range(0x0, 0x4000, 0x0)
    composed = inner.compose(outer)
    assert composed.translate(0x17FF) == 0x1017FF
    assert composed.translate(0x1800) == 0x900000
    assert composed._ranges == [(0x0, 0x1800, 0x100000),
                                (0x1800, 0x2800, 0x900000)]


# -- compose against a walk reference over random layouts -----------------


def walk_compose(inner, outer, step):
    """Reference compose: walk every ``step`` bytes of each inner range
    through ``outer.translate`` and extend a run while the translation
    stays contiguous.  With ``step`` = 4096 this is the page walk the
    interval compose replaced; it is exact on layouts whose every
    boundary is a multiple of ``step``.  Returns the ``_ranges`` list."""
    ranges = []
    for base, size, mid in inner._ranges:
        offset = 0
        while offset < size:
            hpa = outer.translate(mid + offset)
            run = 1
            while offset + run * step < size:
                nxt = outer.translate(mid + offset + run * step)
                if nxt != hpa + run * step:
                    break
                run += 1
            chunk = min(run * step, size - offset)
            ranges.append((base + offset, chunk, hpa))
            offset += chunk
    return ranges


def _segments(max_units, max_target, max_size):
    return st.lists(st.tuples(
        st.sampled_from(("ram", "ram", "ram", "ram", "gap", "mmio")),
        st.integers(min_value=1, max_value=max_units),  # size in units
        st.integers(min_value=0, max_value=max_target),  # target, units
        st.booleans(),                      # continue the host-physical run
    ), min_size=1, max_size=max_size)


def _build(segments, unit, start, host_base, name):
    """Lay ``segments`` end to end from ``start``; RAM targets are
    ``host_base``-relative unit offsets, or continue the previous RAM
    range's target when its flag is set."""
    table = EptTable(name)
    cursor, next_target = start, None
    for kind, size_units, target_units, cont in segments:
        size = size_units * unit
        if kind == "ram":
            target = (next_target if cont and next_target is not None
                      else host_base + target_units * unit)
            table.map_range(cursor, size, target)
            next_target = target + size
        else:
            next_target = None
            if kind == "mmio":
                table.map_mmio(cursor, size, NullDevice("d", cursor))
        cursor += size
    return table


def _outcome(call, *args):
    try:
        return "ok", call(*args)
    except EptFault as err:
        return type(err), err.gpa


@settings(max_examples=300, deadline=None)
@given(unit=st.sampled_from((0x1000, 0x100, 0x10, 0x1)),
       outer_segments=_segments(max_units=3, max_target=64, max_size=12),
       inner_segments=_segments(max_units=8, max_target=12, max_size=5))
def test_property_compose_matches_walk_and_two_step(unit, outer_segments,
                                                    inner_segments):
    outer = _build(outer_segments, unit, 0, 0x4000_0000, "outer")
    # Inner RAM targets land in [0, 20 units) of L1 space, so ranges
    # over outer gaps, outer MMIO and past the outer table all occur.
    inner = _build(inner_segments, unit, 0x10 * unit, 0, "inner")

    composed = _outcome(inner.compose, outer)
    reference = _outcome(walk_compose, inner, outer, unit)
    if reference[0] != "ok":
        # An uncovered inner range raises what outer.translate raises
        # at its first uncovered address.
        assert composed == reference
        return
    assert composed[0] == "ok", composed
    table = composed[1]
    assert table._ranges == reference[1]
    assert table._bases == [base for base, _, _ in table._ranges]
    assert [(r.base, r.size, r.device) for r in table._mmio] == [
        (r.base, r.size, r.device) for r in inner._mmio]

    end = 0x10 * unit + sum(size for _, size, _, _ in inner_segments) * unit
    for gpa in range(0, end + unit, max(1, unit // 4)):
        # RAM, inner MMIO (EptMisconfig) and inner holes (EptFault) alike.
        assert _outcome(table.translate, gpa) == _outcome(
            lambda g: outer.translate(inner.translate(g)), gpa)
