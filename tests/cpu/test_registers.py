"""Architectural register state."""

import pytest

from repro.cpu.registers import ArchRegisters, RegNames
from repro.errors import VirtualizationError


def test_register_set_is_dozens():
    # Paper §2.3: a context switch moves "in excess of various dozens of
    # values" — our switched set must be at least three dozen.
    assert len(RegNames.switched_set()) >= 36


def test_unwritten_registers_read_zero():
    assert ArchRegisters().read("rax") == 0


def test_write_then_read():
    regs = ArchRegisters()
    regs.write("rbx", 0xDEAD)
    assert regs.read("rbx") == 0xDEAD


def test_values_truncate_to_64_bits():
    regs = ArchRegisters()
    regs.write("rax", 1 << 70)
    assert regs.read("rax") == 0


def test_unknown_register_rejected():
    with pytest.raises(VirtualizationError):
        ArchRegisters().read("xmm0")
    with pytest.raises(VirtualizationError):
        ArchRegisters().write("es", 1)


def test_read_many_matches_read_and_rejects_unknown_names():
    regs = ArchRegisters({"rax": 1, "rip": 0x1000})
    names = ("rip", "rbx", "rax")
    assert regs.read_many(names) == {name: regs.read(name)
                                     for name in names}
    assert list(regs.read_many(names)) == list(names)
    with pytest.raises(VirtualizationError, match="'xmm0'"):
        regs.read_many(("rax", "xmm0", "es"))
    assert RegNames.ALL_SET == frozenset(RegNames.ALL)


def test_non_integer_value_rejected():
    with pytest.raises(VirtualizationError):
        ArchRegisters().write("rax", "nope")


def test_copy_is_independent():
    regs = ArchRegisters({"rax": 1})
    clone = regs.copy()
    clone.write("rax", 2)
    assert regs.read("rax") == 1


def test_diff_lists_changed_names():
    a = ArchRegisters({"rax": 1, "rbx": 2})
    b = ArchRegisters({"rax": 1, "rbx": 3, "rcx": 4})
    assert a.diff(b) == ["rbx", "rcx"]


def test_equality_ignores_storage_detail():
    a = ArchRegisters({"rax": 0})
    b = ArchRegisters()
    assert a == b


def test_msr_classification():
    assert RegNames.is_msr("ia32_efer")
    assert not RegNames.is_msr("rax")
