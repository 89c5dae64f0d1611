"""VMCS transformations between virtualization levels (paper §2.1-§2.2).

Three operations, matching Figure 2 and Algorithm 1:

* :func:`sync_shadow_to_vmcs12` — step ①: L0 reflects L1's updates of
  vmcs01' into its shadow copy vmcs12.
* :func:`transform_12_to_02` — step ② / Alg. 1 line 14: build the
  descriptor L2 really runs on.  Guest-physical addresses set by L1
  become host-physical, and L0's policy is merged in ("L0 configures
  vmcs02 to ensure access to these resources trigger a VM trap,
  regardless of the configuration set by L1").
* :func:`transform_02_to_12` — Alg. 1 line 3: after an L2 trap, reflect
  hardware-written state back into vmcs12 so L1 sees it, translating
  host-physical values back to L1's guest-physical space.
"""

from dataclasses import dataclass, field

from repro.sim import sanitizer as _san
from repro.virt.vmcs import FieldRegistry

#: Guest-state fields reflected in both directions.
_GUEST_STATE_FIELDS = tuple(FieldRegistry.names(category="guest"))

#: Control fields copied from vmcs12 into vmcs02 (address-bearing ones get
#: translated on the way).
_CONTROL_FIELDS = tuple(FieldRegistry.names(category="control"))

#: The address-bearing controls: L1 guest-physical in vmcs12, host-
#: physical in vmcs02.
_ADDRESS_CONTROLS = tuple(
    FieldRegistry.names(category="control", address_bearing=True)
)

#: Exit-information fields reflected 02 -> 12 after a nested trap.
_EXIT_FIELDS = tuple(FieldRegistry.names(category="exit"))

#: The exit field holding a host-physical address L1 must see in its own
#: guest-physical space.
_EXIT_ADDRESS = FieldRegistry.get("guest_physical_address").name

#: Whole field tables moved by each direction, in the order the fields
#: are written.  Built from the registry, so every name is valid and the
#: copies need no per-field lookup.
_COPIED_12_TO_02 = _GUEST_STATE_FIELDS + _CONTROL_FIELDS
_REFLECTED_02_TO_12 = _GUEST_STATE_FIELDS + _EXIT_FIELDS
_COPIED_12_TO_02_SET = frozenset(_COPIED_12_TO_02)

#: Sentinel host-physical address standing in for L0's VM-exit entry point.
L0_HANDLER_ENTRY = 0xFFFF_8000_0000_0000


@dataclass
class L0Policy:
    """What L0 forces onto vmcs02 regardless of L1's wishes (paper §2.1:
    timestamp-counter trapping for scheduling/migration is the example)."""

    force_tsc_exit: bool = True
    forced_msr_traps: set = field(default_factory=set)
    forced_io_traps: set = field(default_factory=set)


def sync_shadow_to_vmcs12(vmcs01_prime, vmcs12, fields=None):
    """Reflect L1's writes to vmcs01' into L0's shadow vmcs12.

    ``fields`` limits the sync (the trap handler knows which field L1
    touched); ``None`` syncs every dirty field.  Returns the synced names.
    """
    names = list(fields) if fields is not None else sorted(
        vmcs01_prime.dirty_fields
    )
    for name in names:
        vmcs12.write(name, vmcs01_prime.read(name), force=True)
    vmcs12.trapped_msrs = set(vmcs01_prime.trapped_msrs)
    vmcs12.trapped_io_ports = set(vmcs01_prime.trapped_io_ports)
    vmcs12.force_tsc_exit = vmcs01_prime.force_tsc_exit
    return names


def transform_12_to_02(vmcs12, vmcs02, ept01, policy, composed_ept=None,
                       obs=None):
    """Build/refresh vmcs02 from vmcs12 (paper Fig. 2 step ②).

    ``ept01`` is L0's EPT for L1 — the table that turns "guest physical
    addresses pertaining to L1" into host-physical ones.  ``composed_ept``
    is the pre-collapsed two-level table for L2 (see
    :meth:`repro.virt.ept.EptTable.compose`); when given, vmcs02's EPT
    pointer is marked as pointing at it.

    Refresh: when vmcs02 was last built by this function from this
    vmcs12, under the same ``ept01`` layout, and neither descriptor's
    journal was taken since, only the table fields written on either
    side since then are copied and translated; every other field
    already holds what a full copy would store.  Otherwise, and always
    under the sanitizer (which needs each field's events), the whole
    table is copied.

    Returns the names of address-bearing fields that were translated:
    every nonzero address control, refreshed or not.
    """
    values12 = vmcs12._values
    synced = (vmcs12, vmcs12.journal_epoch, vmcs02.journal_epoch, ept01,
              ept01.layout)
    changed = vmcs12.take_journal()
    changed |= vmcs02.take_journal()
    if vmcs02.synced_from == synced and _san.ACTIVE is None:
        # Every table field is already in vmcs02 (only restore() drops
        # one, and it clears synced_from), so copy order cannot change
        # the insertion order.
        names = changed & _COPIED_12_TO_02_SET
        full = False
    else:
        names = _COPIED_12_TO_02
        full = True
    translated = []
    rewritten = {}
    for name in _ADDRESS_CONTROLS:
        value = values12.get(name, 0)
        if isinstance(value, int) and value != 0:
            if full or name in names:
                rewritten[name] = ept01.translate(value)
            translated.append(name)
    vmcs02.copy_fields(vmcs12, names, rewritten)

    # Host-state area of vmcs02 is L0's own, never L1's: a trap from L2
    # must always land in L0 first (paper Fig. 1 step 1).  The sentinel
    # address below stands for L0's trap-handler entry point.
    vmcs02.write("host_rip", L0_HANDLER_ENTRY, force=True)

    # Merge L0 policy on top of L1's trap configuration.
    vmcs02.trapped_msrs = set(vmcs12.trapped_msrs) | set(
        policy.forced_msr_traps
    )
    vmcs02.trapped_io_ports = set(vmcs12.trapped_io_ports) | set(
        policy.forced_io_traps
    )
    vmcs02.force_tsc_exit = vmcs12.force_tsc_exit or policy.force_tsc_exit

    if composed_ept is not None:
        vmcs02.ept = composed_ept
    vmcs02.take_dirty()
    vmcs02.take_journal()
    vmcs02.synced_from = (vmcs12, vmcs12.journal_epoch,
                          vmcs02.journal_epoch, ept01, ept01.layout)
    if obs is not None:
        obs.count("vmcs_fields_copied_total", direction="12->02",
                  n=len(_COPIED_12_TO_02))
        obs.count("vmcs_fields_translated_total", direction="12->02",
                  n=len(translated))
    return translated


def transform_02_to_12(vmcs02, vmcs12, ept01, obs=None):
    """Reflect post-trap state of vmcs02 back into vmcs12 (Alg. 1 line 3).

    Guest state (e.g. the RIP that trapped) and the exit-information area
    are copied; host-physical addresses in exit info are translated back
    to L1 guest-physical via the inverse of ``ept01``.

    Returns the reflected field names.
    """
    rewritten = {}
    value = vmcs02._values.get(_EXIT_ADDRESS, 0)
    if isinstance(value, int) and value != 0:
        rewritten[_EXIT_ADDRESS] = ept01.inverse(value)
    vmcs12.copy_fields(vmcs02, _REFLECTED_02_TO_12, rewritten)
    reflected = list(_REFLECTED_02_TO_12)
    vmcs12.take_dirty()
    if obs is not None:
        obs.count("vmcs_fields_copied_total", direction="02->12",
                  n=len(reflected))
    return reflected
