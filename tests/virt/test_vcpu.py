"""vCPU state homes: memory vs pinned hardware context."""

import pytest

from repro.cpu.context import HardwareContext
from repro.cpu.prf import PhysicalRegisterFile
from repro.errors import VirtualizationError
from repro.virt.vcpu import VCpu


@pytest.fixture
def vcpu():
    return VCpu("test.vcpu0", 2)


def test_memory_home_by_default(vcpu):
    assert not vcpu.is_pinned
    vcpu.write("rax", 5)
    assert vcpu.read("rax") == 5
    assert vcpu.memory_state.read("rax") == 5


def test_bind_context_moves_state_into_prf(vcpu):
    vcpu.write("rax", 11)
    ctx = HardwareContext(2, PhysicalRegisterFile(128))
    vcpu.bind_context(ctx)
    assert vcpu.is_pinned
    assert ctx.read("rax") == 11
    assert ctx.owner_label == "test.vcpu0"


def test_writes_go_to_context_when_pinned(vcpu):
    ctx = HardwareContext(2, PhysicalRegisterFile(128))
    vcpu.bind_context(ctx)
    vcpu.write("rbx", 42)
    assert ctx.read("rbx") == 42
    # Memory snapshot is stale while pinned (state lives in the PRF).
    assert vcpu.memory_state.read("rbx") == 0


def test_read_many_from_either_home(vcpu):
    names = ("rax", "rbx", "rip")
    vcpu.write("rax", 3)
    vcpu.write("rip", 0x40)
    in_memory = vcpu.read_many(names)
    vcpu.bind_context(HardwareContext(2, PhysicalRegisterFile(128)))
    assert vcpu.read_many(names) == in_memory == {
        name: vcpu.read(name) for name in names}
    with pytest.raises(VirtualizationError):
        vcpu.read_many(("rax", "xmm0"))


def test_unbind_evicts_state_back_to_memory(vcpu):
    # Paper §3.1: multiplexing past the core's SMT width.
    ctx = HardwareContext(2, PhysicalRegisterFile(128))
    vcpu.bind_context(ctx)
    vcpu.write("rcx", 9)
    vcpu.unbind_context()
    assert not vcpu.is_pinned
    assert vcpu.read("rcx") == 9
    assert ctx.owner_label is None


def test_unbind_without_bind_rejected(vcpu):
    with pytest.raises(VirtualizationError):
        vcpu.unbind_context()


def test_advance_rip(vcpu):
    vcpu.write("rip", 0x100)
    vcpu.advance_rip(3)
    assert vcpu.rip == 0x103


def test_msr_store(vcpu):
    assert vcpu.read_msr(0x6E0) == 0
    vcpu.write_msr(0x6E0, 123)
    assert vcpu.read_msr(0x6E0) == 123
