"""VM state descriptor (VMCS in Intel parlance) — paper §2.1/Figure 2.

A VMCS "contains various fields that describe information such as the
reason of a VM trap ... or the context of the host and its guest vCPU".
We model a typed field registry with the properties the nested-
virtualization machinery cares about:

* ``address_bearing`` — the field holds a physical address and therefore
  must be translated between guest-physical and host-physical space when
  L0 transforms vmcs12 into vmcs02 (paper §2.1: "L0 must thus transform
  these addresses into the actual host physical addresses").
* ``shadow_read`` / ``shadow_write`` — whether Intel-style hardware VMCS
  shadowing can satisfy the access without a VM trap (paper §2.1: "the
  CPU can only shadow some of the VMCS fields").

The three SVt fields of paper Table 2 are ordinary fields here, so the
shadowing/transformation machinery applies to them unchanged.
"""

from dataclasses import dataclass

from repro.errors import VmcsError
from repro.sim import sanitizer as _san


@dataclass(frozen=True)
class Field:
    """Metadata for one VMCS field."""

    name: str
    category: str              # "guest", "host", "control", "exit", "svt"
    address_bearing: bool = False
    shadow_read: bool = False
    shadow_write: bool = False
    writable: bool = True


def _build_fields():
    fields = []

    def f(*args, **kwargs):
        fields.append(Field(*args, **kwargs))

    # Guest-state area: loaded/saved on VM entry/exit.  Register state is
    # shadow-accessible on recent Intel parts.
    for reg in ("rip", "rsp", "rflags", "cr0", "cr3", "cr4", "efer"):
        f(f"guest_{reg}", "guest", shadow_read=True, shadow_write=True)
    f("guest_activity_state", "guest", shadow_read=True, shadow_write=True)
    f("guest_interruptibility", "guest", shadow_read=True, shadow_write=True)

    # Host-state area: where the hypervisor resumes on a trap.
    for reg in ("rip", "rsp", "cr3"):
        f(f"host_{reg}", "host")

    # Execution controls.  Address-bearing controls point at structures in
    # (host- or guest-) physical memory and are never shadow-writable.
    f("pin_based_controls", "control")
    f("proc_based_controls", "control")
    f("secondary_controls", "control")
    f("exception_bitmap", "control")
    f("exit_controls", "control")
    f("entry_controls", "control")
    f("entry_interruption_info", "control")   # event injection
    f("tsc_offset", "control")
    f("preemption_timer_value", "control", shadow_read=True,
      shadow_write=True)
    f("msr_bitmap_addr", "control", address_bearing=True)
    f("io_bitmap_addr", "control", address_bearing=True)
    f("ept_pointer", "control", address_bearing=True)
    f("virtual_apic_addr", "control", address_bearing=True)
    f("vmcs_link_pointer", "control", address_bearing=True)

    # Exit-information area: read-only to software, shadow-readable.
    f("exit_reason", "exit", shadow_read=True, writable=False)
    f("exit_qualification", "exit", shadow_read=True, writable=False)
    f("guest_linear_address", "exit", shadow_read=True, writable=False)
    f("guest_physical_address", "exit", shadow_read=True, writable=False)
    f("instruction_length", "exit", shadow_read=True, writable=False)
    f("interruption_info", "exit", shadow_read=True, writable=False)

    # SVt additions (paper Table 2): target contexts for trap/resume
    # steering and nested cross-context register access.
    f("svt_visor", "svt")
    f("svt_vm", "svt")
    f("svt_nested", "svt")

    return {fld.name: fld for fld in fields}


class FieldRegistry:
    """The (singleton) set of known VMCS fields."""

    FIELDS = _build_fields()

    @classmethod
    def get(cls, name):
        try:
            return cls.FIELDS[name]
        except KeyError:
            raise VmcsError(f"unknown VMCS field {name!r}") from None

    @classmethod
    def names(cls, category=None, address_bearing=None):
        out = []
        for fld in cls.FIELDS.values():
            if category is not None and fld.category != category:
                continue
            if (address_bearing is not None
                    and fld.address_bearing != address_bearing):
                continue
            out.append(fld.name)
        return out


#: The fields hardware writes on every VM trap (:meth:`Vmcs.record_exit`),
#: in write order; looked up once here so an unknown name fails at import.
_EXIT_RECORD_FIELDS = tuple(FieldRegistry.get(name).name for name in (
    "exit_reason", "exit_qualification", "guest_rip", "instruction_length",
))

#: Field-name tuple -> its names that trap on a guest read (memo of
#: :meth:`Vmcs.guest_read_all`; callers pass a few fixed tuples).
_TRAPPING_READS = {}


def _trapping_reads(names):
    trapping = _TRAPPING_READS.get(names)
    if trapping is None:
        trapping = tuple(name for name in names
                         if not FieldRegistry.get(name).shadow_read)
        _TRAPPING_READS[names] = trapping
    return trapping


class Vmcs:
    """One VM state descriptor.

    Naming follows the paper: ``vmcs01`` is managed by L0 and represents
    L1; ``vmcs01'`` is L1's own descriptor for L2; ``vmcs12`` is L0's
    shadow of vmcs01'; ``vmcs02`` is what L0 actually runs L2 on.

    The descriptor does **not** hold the whole VM context (paper §2.1) —
    register state beyond the fields above lives in the hardware context
    or hypervisor memory.
    """

    def __init__(self, name, exit_on_write_callback=None,
                 burst_callback=None):
        self.name = name
        self._values = {}
        self._dirty = set()
        # Write journal: every field written since take_journal() last
        # ran, and how many times it has run.  The vmcs12 -> vmcs02
        # refresh copies only journaled fields (KVM's dirty-vmcs12
        # tracking); ``synced_from`` is what that refresh last built
        # this descriptor from.
        self._journal = set()
        self.journal_epoch = 0
        self.synced_from = None
        self.loaded = False
        # When set, reads/writes of non-shadowed fields invoke this
        # callback — that is how an L1 access to vmcs01' traps into L0
        # (paper Alg. 1 lines 8-10).  ``burst_callback(kind, names)``
        # takes a whole run of trapping reads (guest_read_all) at once.
        self._trap_callback = exit_on_write_callback
        self._burst_callback = burst_callback
        # Software-configured trap sets (paper §3.1: "Intel uses various
        # VMCS fields to identify which registers will trap").
        self.trapped_msrs = set()
        self.trapped_io_ports = set()
        self.force_tsc_exit = False
        # The EPT hierarchy this descriptor runs its guest on.  Kept as an
        # object reference alongside the numeric ept_pointer field: the
        # simulator needs the structure, the transform code the address.
        self.ept = None

    # -- raw access (no shadow semantics; used by the owning hypervisor) --

    def read(self, field_name):
        FieldRegistry.get(field_name)
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"vmcs:{self.name}", field_name, "r",
                               "Vmcs.read")
        return self._values.get(field_name, 0)

    def write(self, field_name, value, force=False):
        fld = FieldRegistry.get(field_name)
        if not fld.writable and not force:
            raise VmcsError(f"field {field_name} is read-only to software")
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"vmcs:{self.name}", field_name, "w",
                               "Vmcs.write")
        self._values[field_name] = value
        self._dirty.add(field_name)
        self._journal.add(field_name)

    def copy_fields(self, source, names, rewritten):
        """Bulk ``self.write(name, source.read(name), force=True)`` for
        every name in ``names``, with ``rewritten[name]`` stored in place
        of the source value where given (translated addresses).

        ``names`` must be registered fields: callers validate their field
        tables once, at import, so no per-field registry lookup is done
        here.  Under an active sanitizer the same loop records the
        per-field read and write events the checked accessors would."""
        read = source._values.get
        values = self._values
        san = _san.ACTIVE
        for name in names:
            if san is not None:
                san.record(f"vmcs:{source.name}", name, "r", "Vmcs.read")
                san.record(f"vmcs:{self.name}", name, "w", "Vmcs.write")
            values[name] = read(name, 0)
        values.update(rewritten)
        self._dirty.update(names)
        self._journal.update(names)

    # -- shadowed access (used by a guest hypervisor on its own VMCS) -----

    def guest_read(self, field_name):
        """Read as a *virtualized* hypervisor: shadow-readable fields are
        served from the shadow copy; others trap to the supervising
        hypervisor first (cost and bookkeeping via the callback)."""
        fld = FieldRegistry.get(field_name)
        if not fld.shadow_read and self._trap_callback is not None:
            self._trap_callback("VMREAD", field_name)
        return self.read(field_name)

    def guest_write(self, field_name, value):
        """Write as a virtualized hypervisor (see :meth:`guest_read`)."""
        fld = FieldRegistry.get(field_name)
        if not fld.shadow_write and self._trap_callback is not None:
            self._trap_callback("VMWRITE", field_name)
        self.write(field_name, value, force=not fld.writable)

    def guest_read_all(self, names):
        """:meth:`guest_read` of every name in the ``names`` tuple, values
        discarded (a handler walking control state).  With a burst
        callback and no sanitizer the trapping reads reach the
        supervisor as one call; the reads themselves only validate the
        names, which the memo did.  The sanitizer needs each read's
        event in order, so it gets the per-field walk."""
        burst = self._burst_callback
        if burst is None or _san.ACTIVE is not None:
            for name in names:
                self.guest_read(name)
            return
        trapping = _trapping_reads(names)
        if trapping:
            burst("VMREAD", trapping)

    # -- dirty tracking (drives transformation cost accounting) -----------

    def take_dirty(self):
        dirty = self._dirty
        self._dirty = set()
        return dirty

    @property
    def dirty_fields(self):
        return frozenset(self._dirty)

    def take_journal(self):
        """The fields written since the last call; starts a new epoch."""
        journal = self._journal
        self._journal = set()
        self.journal_epoch += 1
        return journal

    # -- exit info plumbing -------------------------------------------------

    def record_exit(self, exit_info):
        """Hardware writing the exit-information area on a VM trap."""
        san = _san.ACTIVE
        if san is not None:
            for name in _EXIT_RECORD_FIELDS:
                san.record(f"vmcs:{self.name}", name, "w", "Vmcs.write")
        values = self._values
        values["exit_reason"] = exit_info.reason
        values["exit_qualification"] = dict(exit_info.qualification)
        values["guest_rip"] = exit_info.guest_rip
        values["instruction_length"] = exit_info.instruction_length
        self._dirty.update(_EXIT_RECORD_FIELDS)
        self._journal.update(_EXIT_RECORD_FIELDS)

    def snapshot(self):
        return dict(self._values)

    def diff(self, values):
        """Field names whose current value differs from a snapshot —
        how the chaos scrubber detects injected corruption."""
        names = set(self._values) | set(values)
        return sorted(
            name for name in names
            if self._values.get(name, 0) != values.get(name, 0)
        )

    def restore(self, values):
        """Reset the value store to a snapshot (the repair path after
        detected corruption).  Changed fields are marked dirty so the
        vmcs12 -> vmcs02 transformation re-syncs them; returns them."""
        changed = self.diff(values)
        if _san.ACTIVE is not None:
            _san.ACTIVE.record(f"vmcs:{self.name}", "*", "w",
                               "Vmcs.restore")
        # Journal every key on either side.  Keys the snapshot lacks are
        # dropped, so a refresh into this descriptor must be a full copy
        # (which re-adds them in table order).
        self._journal.update(self._values, values)
        self.synced_from = None
        self._values = dict(values)
        self._dirty |= set(changed)
        return changed

    def __repr__(self):
        return f"Vmcs({self.name!r}, {len(self._values)} fields set)"
