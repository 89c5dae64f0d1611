"""VMCS field registry, shadow semantics, dirty tracking."""

import pytest

from repro.errors import VmcsError
from repro.sim import sanitizer
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.vmcs import FieldRegistry, Vmcs


def test_registry_has_the_svt_fields():
    # Paper Table 2: three new VMCS fields.
    for name in ("svt_visor", "svt_vm", "svt_nested"):
        assert FieldRegistry.get(name).category == "svt"


def test_unknown_field_rejected():
    with pytest.raises(VmcsError):
        FieldRegistry.get("guest_xcr17")
    with pytest.raises(VmcsError):
        Vmcs("x").read("nonsense")


def test_address_bearing_fields_listed():
    addressy = FieldRegistry.names(address_bearing=True)
    assert "ept_pointer" in addressy
    assert "msr_bitmap_addr" in addressy
    assert "guest_rip" not in addressy


def test_exit_info_fields_read_only():
    vmcs = Vmcs("t")
    with pytest.raises(VmcsError):
        vmcs.write("exit_reason", "CPUID")
    vmcs.write("exit_reason", "CPUID", force=True)  # hardware path
    assert vmcs.read("exit_reason") == "CPUID"


def test_unwritten_fields_read_zero():
    assert Vmcs("t").read("guest_rip") == 0


def test_shadowed_guest_access_does_not_trap():
    traps = []
    vmcs = Vmcs("t", exit_on_write_callback=lambda k, f: traps.append((k, f)))
    vmcs.guest_read("exit_reason")       # shadow-readable
    vmcs.guest_write("guest_rip", 0x10)  # shadow-writable
    assert traps == []


def test_non_shadowed_guest_access_traps():
    # Paper Alg. 1 lines 8-10: L1's privileged VMCS accesses exit to L0.
    traps = []
    vmcs = Vmcs("t", exit_on_write_callback=lambda k, f: traps.append((k, f)))
    vmcs.guest_write("ept_pointer", 0x5000)
    vmcs.guest_read("host_rip")
    assert traps == [("VMWRITE", "ept_pointer"), ("VMREAD", "host_rip")]


def test_guest_read_all_hands_the_trapping_reads_over_at_once(monkeypatch):
    names = ("exit_reason", "ept_pointer", "tsc_offset")
    single, bursts = [], []
    vmcs = Vmcs("t", exit_on_write_callback=lambda k, f: single.append(f),
                burst_callback=lambda k, fs: bursts.append((k, fs)))
    vmcs.guest_read_all(names)
    assert single == []
    assert bursts == [("VMREAD", ("ept_pointer", "tsc_offset"))]
    with pytest.raises(VmcsError):
        vmcs.guest_read_all(("bogus",))
    # The sanitizer needs every read's event: one guest_read per name.
    monkeypatch.setattr(sanitizer, "ACTIVE", type(
        "Log", (), {"record": lambda *args: None})())
    vmcs.guest_read_all(names)
    assert single == ["ept_pointer", "tsc_offset"]
    assert len(bursts) == 1


def test_write_journal_and_epochs():
    vmcs = Vmcs("t")
    vmcs.write("guest_rip", 1)
    vmcs.copy_fields(Vmcs("src"), ("tsc_offset",), {})
    vmcs.record_exit(ExitInfo(ExitReason.CPUID))
    assert vmcs.take_journal() == {
        "guest_rip", "tsc_offset", "exit_reason", "exit_qualification",
        "instruction_length"}
    assert vmcs.journal_epoch == 1
    snapshot = {"exception_bitmap": 4}
    vmcs.synced_from = ("marker",)
    vmcs.restore(snapshot)
    assert vmcs.synced_from is None        # keys were dropped
    assert vmcs.take_journal() == {
        "guest_rip", "tsc_offset", "exit_reason", "exit_qualification",
        "instruction_length", "exception_bitmap"}
    assert vmcs.journal_epoch == 2


def test_guest_access_without_callback_is_silent():
    vmcs = Vmcs("t")
    vmcs.guest_write("ept_pointer", 1)
    assert vmcs.read("ept_pointer") == 1


def test_dirty_tracking():
    vmcs = Vmcs("t")
    vmcs.write("guest_rip", 1)
    vmcs.write("guest_rsp", 2)
    assert vmcs.dirty_fields == {"guest_rip", "guest_rsp"}
    taken = vmcs.take_dirty()
    assert taken == {"guest_rip", "guest_rsp"}
    assert vmcs.dirty_fields == frozenset()


def test_record_exit_populates_exit_area():
    vmcs = Vmcs("t")
    info = ExitInfo(ExitReason.CPUID, {"leaf": 3}, guest_rip=0x44,
                    instruction_length=2)
    vmcs.record_exit(info)
    assert vmcs.read("exit_reason") == ExitReason.CPUID
    assert vmcs.read("exit_qualification") == {"leaf": 3}
    assert vmcs.read("guest_rip") == 0x44
    assert vmcs.read("instruction_length") == 2


def test_snapshot_is_copy():
    vmcs = Vmcs("t")
    vmcs.write("guest_rip", 1)
    snap = vmcs.snapshot()
    vmcs.write("guest_rip", 2)
    assert snap["guest_rip"] == 1


def test_exit_info_rejects_unknown_reason():
    with pytest.raises(ValueError):
        ExitInfo("WARP_FAULT")


class AccessLog:
    """Stands in for the sanitizer: keeps every recorded access."""

    def __init__(self):
        self.events = []

    def record(self, owner, field, op, site):
        self.events.append((owner, field, op, site))


def test_copy_fields_is_a_bulk_forced_write(monkeypatch):
    names = ("guest_rip", "exit_reason", "ept_pointer", "guest_cr3")
    rewritten = {"ept_pointer": 0x40005000}
    runs = []
    for bulk in (True, False):
        log = AccessLog()
        monkeypatch.setattr(sanitizer, "ACTIVE", log)
        source, target = Vmcs("src"), Vmcs("dst")
        source.write("guest_rip", 0x1000)
        source.write("ept_pointer", 0x5000)
        target.write("guest_cr3", 7)
        if bulk:
            target.copy_fields(source, names, rewritten)
        else:
            for name in names:
                value = source.read(name)
                target.write(name, rewritten.get(name, value), force=True)
        runs.append((list(target._values.items()), target.dirty_fields,
                     log.events))
    assert runs[0] == runs[1]
