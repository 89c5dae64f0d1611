"""The fuzz op grammar and its stable serialization.

A :class:`FuzzOp` is one generator-drawn action of a fuzz-harness VM:
either an *instruction op* (lowered to :mod:`repro.cpu.isa` and batched
into programs run at L2) or a *meta op* the harness performs on the
machine between programs (raising interrupts, letting time pass,
SEV-Step-style single-stepping, ctxtld/ctxtst bursts).

The grammar deliberately excludes anything whose architectural effect
is mode- or time-dependent — ``rdtsc`` writes the virtual TSC into
``rax``/``rdx`` and port I/O needs a device model — so that on a
healthy machine the final state is byte-comparable across BASELINE,
SW_SVT and HW_SVT.  ``vmresume`` is excluded because the hypervisor
dispatch table has no handler for it (a nested guest hypervisor is not
modelled beyond the VMCS shadowing ops).
"""

from dataclasses import dataclass, field

from repro.cpu import isa
from repro.errors import ConfigError
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE


class Kind:
    """Every op kind the generator can draw."""

    # -- instruction ops: batched into an L2 program -------------------
    ALU = "alu"                  # {work_ns}
    ALU_LOOP = "alu_loop"        # {count, work_ns} (repeated program)
    CPUID = "cpuid"              # {leaf}
    CPUID_LOOP = "cpuid_loop"    # {count, leaf}
    WRMSR_DEADLINE = "wrmsr_deadline"   # {deadline_ns} (arms the timer)
    WRMSR_EOI = "wrmsr_eoi"      # {} (trapped APIC EOI write)
    WRMSR_PLAIN = "wrmsr_plain"  # {msr, value} (untrapped store)
    RDMSR_PLAIN = "rdmsr_plain"  # {msr}
    RDMSR_DEADLINE = "rdmsr_deadline"   # {}
    VMCALL = "vmcall"            # {number}
    MMIO_READ = "mmio_read"      # {addr} (demand-paging EPT violation)
    VMREAD = "vmread"            # {fld}
    VMWRITE = "vmwrite"          # {fld, value}
    VMPTRLD = "vmptrld"          # {}
    INVEPT = "invept"            # {}
    HLT = "hlt"                  # {}

    # -- meta ops: performed by the harness between programs -----------
    IRQ = "irq"                  # {vector, ctx, delay_ns}
    SINGLE_STEP = "single_step"  # {vector, steps, work_ns}
    ELAPSE = "elapse"            # {ns}
    CTXT_BURST = "ctxt_burst"    # {lvl, register, value, count}

    INSTRUCTION = frozenset({
        ALU, ALU_LOOP, CPUID, CPUID_LOOP, WRMSR_DEADLINE, WRMSR_EOI,
        WRMSR_PLAIN, RDMSR_PLAIN, RDMSR_DEADLINE, VMCALL, MMIO_READ,
        VMREAD, VMWRITE, VMPTRLD, INVEPT, HLT,
    })
    META = frozenset({IRQ, SINGLE_STEP, ELAPSE, CTXT_BURST})
    ALL = INSTRUCTION | META


#: VMCS fields a fuzzed vmread/vmwrite may name.  From L2 both lower
#: to the hypervisor's shadow-VMCS emulation path with no shadow
#: loaded, so they exercise the full nested exit without perturbing
#: comparable state.
VMCS_FIELDS = ("guest_rip", "guest_rsp", "guest_cr3")

#: Registers a ctxt burst may round-trip.
CTXT_REGISTERS = ("rax", "rbx", "rcx", "rdx", "rsi")

#: Untrapped MSR pool (outside every trap bitmap in the stack).
PLAIN_MSRS = tuple(range(0x110, 0x118))


@dataclass(frozen=True)
class FuzzOp:
    """One generated action; ``args`` holds JSON-scalar operands."""

    kind: str
    args: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.kind not in Kind.ALL:
            raise ConfigError(f"unknown fuzz op kind {self.kind!r}")
        object.__setattr__(
            self, "args", tuple(sorted(dict(self.args).items()))
        )

    def arg(self, name, default=None):
        return dict(self.args).get(name, default)

    def to_dict(self):
        return {"kind": self.kind, "args": dict(self.args)}

    @classmethod
    def from_dict(cls, doc):
        return cls(kind=doc["kind"], args=tuple(doc["args"].items()))

    def replace_arg(self, name, value):
        """Same op with one operand changed (shrinking)."""
        args = dict(self.args)
        args[name] = value
        return FuzzOp(self.kind, tuple(args.items()))


def to_instructions(op):
    """Lower an instruction op to a list of ISA instructions.

    Loop ops return ``(instructions, repeat)`` through their single
    entry's repeat count instead of unrolling, so the harness can hand
    the repeat to :class:`~repro.cpu.isa.Program`.
    """
    kind = op.kind
    if kind == Kind.ALU:
        return [isa.alu(op.arg("work_ns", 100))], 1
    if kind == Kind.ALU_LOOP:
        return ([isa.alu(op.arg("work_ns", 20))],
                max(1, op.arg("count", 64)))
    if kind == Kind.CPUID:
        return [isa.cpuid(leaf=op.arg("leaf", 0))], 1
    if kind == Kind.CPUID_LOOP:
        return ([isa.cpuid(leaf=op.arg("leaf", 0))],
                max(1, op.arg("count", 8)))
    if kind == Kind.WRMSR_DEADLINE:
        return [isa.wrmsr(MSR_TSC_DEADLINE,
                          op.arg("deadline_ns", 100_000))], 1
    if kind == Kind.WRMSR_EOI:
        return [isa.wrmsr(MSR_APIC_EOI, 0)], 1
    if kind == Kind.WRMSR_PLAIN:
        return [isa.wrmsr(op.arg("msr", PLAIN_MSRS[0]),
                          op.arg("value", 0))], 1
    if kind == Kind.RDMSR_PLAIN:
        return [isa.rdmsr(op.arg("msr", PLAIN_MSRS[0]))], 1
    if kind == Kind.RDMSR_DEADLINE:
        return [isa.rdmsr(MSR_TSC_DEADLINE)], 1
    if kind == Kind.VMCALL:
        return [isa.vmcall(number=op.arg("number", 0))], 1
    if kind == Kind.MMIO_READ:
        return [isa.mmio_read(op.arg("addr", 0x0400_0000))], 1
    if kind == Kind.VMREAD:
        return [isa.vmread([op.arg("fld", VMCS_FIELDS[0])])], 1
    if kind == Kind.VMWRITE:
        return [isa.vmwrite({op.arg("fld", VMCS_FIELDS[0]):
                             op.arg("value", 0)})], 1
    if kind == Kind.VMPTRLD:
        return [isa.vmptrld("vmcs12")], 1
    if kind == Kind.INVEPT:
        return [isa.invept()], 1
    if kind == Kind.HLT:
        return [isa.hlt()], 1
    raise ConfigError(f"{kind!r} is not an instruction op")
