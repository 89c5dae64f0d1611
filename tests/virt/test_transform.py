"""vmcs12 <-> vmcs02 transformations (paper Fig. 2 / §2.1)."""

import pytest

from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.scenario import VmcsScrubber
from repro.sim import sanitizer
from repro.virt.ept import EptTable
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.transform import (
    L0_HANDLER_ENTRY,
    L0Policy,
    sync_shadow_to_vmcs12,
    transform_02_to_12,
    transform_12_to_02,
)
from repro.virt.vmcs import FieldRegistry, Vmcs


@pytest.fixture
def ept01():
    table = EptTable("ept01")
    table.map_range(0x0, 0x1000000, 0x40000000)
    return table


def make_vmcs12():
    vmcs12 = Vmcs("vmcs12")
    vmcs12.write("guest_rip", 0x1000)
    vmcs12.write("guest_cr3", 0x2000)
    vmcs12.write("msr_bitmap_addr", 0x3000)
    vmcs12.write("ept_pointer", 0x5000)
    vmcs12.trapped_msrs.add(0x6E0)
    return vmcs12


def test_addresses_translated_to_host_physical(ept01):
    # Paper: "L0 must thus transform these addresses into the actual
    # host physical addresses".
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    translated = transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert vmcs02.read("msr_bitmap_addr") == 0x40003000
    assert vmcs02.read("ept_pointer") == 0x40005000
    assert set(translated) == {"msr_bitmap_addr", "ept_pointer"}


def test_guest_state_copied_untranslated(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert vmcs02.read("guest_rip") == 0x1000
    assert vmcs02.read("guest_cr3") == 0x2000


def test_l0_policy_forced_on_top_of_l1(ept01):
    # Paper: "L0 configures vmcs02 to ensure access to these resources
    # trigger a VM trap, regardless of the configuration set by L1".
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    vmcs12.force_tsc_exit = False
    policy = L0Policy(force_tsc_exit=True, forced_msr_traps={0x10})
    transform_12_to_02(vmcs12, vmcs02, ept01, policy)
    assert vmcs02.force_tsc_exit is True
    assert vmcs02.trapped_msrs == {0x6E0, 0x10}


def test_host_state_belongs_to_l0(ept01):
    # A trap from L2 must always land in L0 first (paper Fig. 1).
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    vmcs12.write("host_rip", 0x1234)  # whatever L1 put there
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert vmcs02.read("host_rip") != 0x1234


def test_composed_ept_attached(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    marker = EptTable("composed")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy(),
                       composed_ept=marker)
    assert vmcs02.ept is marker


def test_exit_state_reflected_back(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    vmcs02.record_exit(ExitInfo(ExitReason.CPUID, {"leaf": 1},
                                guest_rip=0x1002))
    transform_02_to_12(vmcs02, vmcs12, ept01)
    assert vmcs12.read("exit_reason") == ExitReason.CPUID
    assert vmcs12.read("guest_rip") == 0x1002


def test_guest_physical_address_inverse_translated(ept01):
    # Exit info carries host-physical addresses; L1 must see its own
    # guest-physical space.
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    vmcs02.write("guest_physical_address", 0x40007000, force=True)
    transform_02_to_12(vmcs02, vmcs12, ept01)
    assert vmcs12.read("guest_physical_address") == 0x7000


def test_roundtrip_preserves_l1_visible_guest_state(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    before = {name: vmcs12.read(name)
              for name in ("guest_rip", "guest_cr3", "guest_rsp")}
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    transform_02_to_12(vmcs02, vmcs12, ept01)
    after = {name: vmcs12.read(name)
             for name in ("guest_rip", "guest_cr3", "guest_rsp")}
    assert before == after


def test_sync_shadow_copies_dirty_fields():
    vmcs01p, vmcs12 = Vmcs("vmcs01'"), Vmcs("vmcs12")
    vmcs01p.write("guest_rip", 7)
    vmcs01p.write("exception_bitmap", 0xFF)
    vmcs01p.take_dirty()
    vmcs01p.write("guest_rip", 9)   # only this one dirty now
    synced = sync_shadow_to_vmcs12(vmcs01p, vmcs12)
    assert synced == ["guest_rip"]
    assert vmcs12.read("guest_rip") == 9
    assert vmcs12.read("exception_bitmap") == 0


def test_sync_shadow_explicit_fields():
    vmcs01p, vmcs12 = Vmcs("vmcs01'"), Vmcs("vmcs12")
    vmcs01p.write("exception_bitmap", 0xFF)
    sync_shadow_to_vmcs12(vmcs01p, vmcs12, fields=["exception_bitmap"])
    assert vmcs12.read("exception_bitmap") == 0xFF


def test_sync_shadow_carries_trap_configuration():
    vmcs01p, vmcs12 = Vmcs("vmcs01'"), Vmcs("vmcs12")
    vmcs01p.trapped_msrs.add(0x6E0)
    vmcs01p.force_tsc_exit = True
    sync_shadow_to_vmcs12(vmcs01p, vmcs12)
    assert 0x6E0 in vmcs12.trapped_msrs
    assert vmcs12.force_tsc_exit


# -- bulk field-table copies against a per-field reference ----------------


def reference_12_to_02(vmcs12, vmcs02, ept01, policy, composed_ept=None,
                       obs=None):
    """Per-field transform through the checked accessors."""
    translated = []
    for name in FieldRegistry.names(category="guest"):
        vmcs02.write(name, vmcs12.read(name), force=True)
    for name in FieldRegistry.names(category="control"):
        value = vmcs12.read(name)
        if (FieldRegistry.get(name).address_bearing
                and isinstance(value, int) and value != 0):
            value = ept01.translate(value)
            translated.append(name)
        vmcs02.write(name, value, force=True)
    vmcs02.write("host_rip", L0_HANDLER_ENTRY, force=True)
    vmcs02.trapped_msrs = set(vmcs12.trapped_msrs) | set(
        policy.forced_msr_traps)
    vmcs02.trapped_io_ports = set(vmcs12.trapped_io_ports) | set(
        policy.forced_io_traps)
    vmcs02.force_tsc_exit = vmcs12.force_tsc_exit or policy.force_tsc_exit
    if composed_ept is not None:
        vmcs02.ept = composed_ept
    vmcs02.take_dirty()
    if obs is not None:
        obs.count("vmcs_fields_copied_total", direction="12->02",
                  n=len(FieldRegistry.names(category="guest"))
                  + len(FieldRegistry.names(category="control")))
        obs.count("vmcs_fields_translated_total", direction="12->02",
                  n=len(translated))
    return translated


def reference_02_to_12(vmcs02, vmcs12, ept01, obs=None):
    reflected = []
    for name in FieldRegistry.names(category="guest"):
        vmcs12.write(name, vmcs02.read(name), force=True)
        reflected.append(name)
    for name in FieldRegistry.names(category="exit"):
        value = vmcs02.read(name)
        if name == "guest_physical_address" and isinstance(value, int) \
                and value != 0:
            value = ept01.inverse(value)
        vmcs12.write(name, value, force=True)
        reflected.append(name)
    vmcs12.take_dirty()
    if obs is not None:
        obs.count("vmcs_fields_copied_total", direction="02->12",
                  n=len(reflected))
    return reflected


def reference_record_exit(vmcs, exit_info):
    vmcs.write("exit_reason", exit_info.reason, force=True)
    vmcs.write("exit_qualification", dict(exit_info.qualification),
               force=True)
    vmcs.write("guest_rip", exit_info.guest_rip)
    vmcs.write("instruction_length", exit_info.instruction_length,
               force=True)


class EventLog:
    """Stands in for both the sanitizer and the observer: keeps every
    access event and counter bump in arrival order."""

    def __init__(self):
        self.events = []
        self.counts = []

    def record(self, owner, field, op, site):
        self.events.append((owner, field, op, site))

    def count(self, name, n=1, **labels):
        self.counts.append((name, n, sorted(labels.items())))


def _world():
    """vmcs12/vmcs02 with corner values: a zero and a non-integer
    address-bearing control, a host-physical exit address, stale vmcs02
    state and pending dirty fields on both sides."""
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    vmcs12.write("io_bitmap_addr", 0)
    vmcs12.write("virtual_apic_addr", "unset")
    vmcs12.write("exception_bitmap", 0x60042)
    vmcs12.write("svt_vm", 1)
    vmcs12.trapped_io_ports.add(0x3F8)
    vmcs02.write("svt_vm", 2)
    vmcs02.write("guest_rsp", 0xDEAD)
    vmcs02.write("guest_physical_address", 0x40007000, force=True)
    return vmcs12, vmcs02


def _state(vmcs):
    return (list(vmcs._values.items()), set(vmcs._dirty),
            vmcs.trapped_msrs, vmcs.trapped_io_ports, vmcs.force_tsc_exit,
            vmcs.ept)


def _exercise(transforms, record_exit, ept01, composed, chaos):
    """One reflected trap: 12->02, hardware exit info, 02->12."""
    to_02, to_12 = transforms
    vmcs12, vmcs02 = _world()
    log = EventLog()
    out = [to_02(vmcs12, vmcs02, ept01, L0Policy(forced_io_traps={0x80}),
                 composed_ept=composed, obs=log)]
    if chaos:
        injector = FaultInjector(FaultPlan(
            seed=11, rates=((FaultKind.VMCS_FLIP, 1.0),)))
        scrubber = VmcsScrubber(vmcs02, faults=injector)
        for _ in range(3):
            injector.corrupt_vmcs(vmcs02)
            scrubber.scrub()
        injector.corrupt_vmcs(vmcs02)       # left unrepaired
        out.append(to_02(vmcs12, vmcs02, ept01, L0Policy(), obs=log))
    record_exit(vmcs02, ExitInfo(ExitReason.EPT_VIOLATION, {"gpa": 0x7000},
                                 guest_rip=0x1004, instruction_length=3))
    out.append(to_12(vmcs02, vmcs12, ept01, obs=log))
    record_exit(vmcs12, ExitInfo(ExitReason.CPUID, {"leaf": 1},
                                 guest_rip=0x1006))
    out.append(to_12(vmcs02, vmcs12, ept01, obs=log))
    return out, _state(vmcs12), _state(vmcs02), log.counts


@pytest.mark.parametrize("chaos", [False, True])
@pytest.mark.parametrize("sanitized", [False, True])
def test_bulk_transforms_match_per_field_reference(ept01, monkeypatch,
                                                   chaos, sanitized):
    composed = EptTable("composed")
    runs = []
    for transforms, record_exit in (
            ((transform_12_to_02, transform_02_to_12), Vmcs.record_exit),
            ((reference_12_to_02, reference_02_to_12),
             reference_record_exit)):
        san = EventLog() if sanitized else None
        monkeypatch.setattr(sanitizer, "ACTIVE", san)
        run = _exercise(transforms, record_exit, ept01, composed, chaos)
        runs.append(run + (san.events if san is not None else None,))
    bulk, reference = runs
    # Translated/reflected lists, both descriptors' values (in insertion
    # order), dirty and trap sets, obs counters and sanitizer events.
    assert bulk == reference
    if sanitized:
        assert len(bulk[-1]) > 100


# -- the journal refresh against the same per-field reference -------------


def _refresh_exercise(transforms, record_exit, ept01):
    """Repeated syncs of one vmcs12/vmcs02 pair, with every kind of
    change between them that the journal refresh must pick up."""
    to_02, to_12 = transforms
    vmcs12, vmcs02 = _world()
    stale02 = vmcs02.snapshot()           # lacks most table fields
    log = EventLog()
    policy = L0Policy(forced_msr_traps={0x10})
    injector = FaultInjector(FaultPlan(
        seed=5, rates=((FaultKind.VMCS_FLIP, 1.0),)))
    out = []

    def sync():
        translated = to_02(vmcs12, vmcs02, ept01, policy, obs=log)
        out.append((translated, _state(vmcs02)))

    sync()
    sync()                                # nothing changed
    # L1's handler writes through the shadow (a retranslated address,
    # a control, guest state).
    vmcs12.guest_write("msr_bitmap_addr", 0x9000)
    vmcs12.guest_write("exception_bitmap", 0x4)
    vmcs12.guest_write("guest_rip", 0x1100)
    sync()
    # Hardware records an exit in vmcs02; L0's direct path writes it.
    record_exit(vmcs02, ExitInfo(ExitReason.HLT, guest_rip=0x1102))
    sync()
    vmcs02.write("tsc_offset", 77)
    vmcs02.guest_write("guest_rsp", 0xBEEF)
    sync()
    record_exit(vmcs02, ExitInfo(ExitReason.EPT_VIOLATION, {"gpa": 0x7000},
                                 guest_rip=0x1104))
    out.append(to_12(vmcs02, vmcs12, ept01, obs=log))
    sync()
    # ept01 grows (demand paging) while an address moves into the new
    # range.
    ept01.map_range(0x1000000, 0x10000, 0x80000000)
    vmcs12.write("io_bitmap_addr", 0x1000040)
    sync()
    ept01.map_range(0x2000000, 0x1000, 0x90000000)
    sync()
    # The scrubber's repair path drops the fields the snapshot lacks.
    vmcs02.restore(stale02)
    sync()
    snapshot12 = vmcs12.snapshot()
    for _ in range(3):
        injector.corrupt_vmcs(vmcs12)
        injector.corrupt_vmcs(vmcs02)
        sync()
    vmcs12.restore(snapshot12)
    sync()
    return out, _state(vmcs12), _state(vmcs02), log.counts


@pytest.mark.parametrize("sanitized", [False, True])
def test_journal_refresh_matches_per_field_reference(monkeypatch,
                                                     sanitized):
    runs = []
    for transforms, record_exit in (
            ((transform_12_to_02, transform_02_to_12), Vmcs.record_exit),
            ((reference_12_to_02, reference_02_to_12),
             reference_record_exit)):
        san = EventLog() if sanitized else None
        monkeypatch.setattr(sanitizer, "ACTIVE", san)
        ept01 = EptTable("ept01")
        ept01.map_range(0x0, 0x1000000, 0x40000000)
        run = _refresh_exercise(transforms, record_exit, ept01)
        runs.append(run + (san.events if san is not None else None,))
    bulk, reference = runs
    assert bulk == reference
    # The refresh ran with real changes to find.
    assert bulk[0][0][0] == ["msr_bitmap_addr", "ept_pointer"]
    assert "io_bitmap_addr" in bulk[0][-1][0]


def test_refresh_copies_only_journaled_fields(ept01):
    vmcs12, vmcs02 = make_vmcs12(), Vmcs("vmcs02")
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    copied = []
    original = vmcs02.copy_fields

    def spy(source, names, rewritten):
        copied.append((set(names), dict(rewritten)))
        original(source, names, rewritten)

    vmcs02.copy_fields = spy
    vmcs12.write("exception_bitmap", 0x1)
    assert transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy()) == [
        "msr_bitmap_addr", "ept_pointer"]
    assert copied == [({"exception_bitmap"}, {})]
    # A new ept01 layout, another source or the sanitizer: full copy.
    ept01.map_range(0x2000000, 0x1000, 0x0)
    transform_12_to_02(vmcs12, vmcs02, ept01, L0Policy())
    assert len(copied[-1][0]) == len(FieldRegistry.names(category="guest")
                                     + FieldRegistry.names(
                                         category="control"))
    assert copied[-1][1] == {"msr_bitmap_addr": 0x40003000,
                             "ept_pointer": 0x40005000}
