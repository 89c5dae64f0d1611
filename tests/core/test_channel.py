"""SW SVt command rings: FIFO, bounds, trap/resume protocol."""

import copy

import pytest
from hypothesis import given, strategies as st

from repro.core.channel import (
    Command,
    CommandKind,
    CommandRing,
    PairedChannels,
)
from repro.errors import ChannelError


def test_unknown_command_kind_rejected():
    with pytest.raises(ChannelError):
        Command("CMD_WARP")


def test_ring_fifo_order():
    ring = CommandRing("r")
    ring.push(Command(CommandKind.VM_TRAP, {"n": 1}))
    ring.push(Command(CommandKind.VM_TRAP, {"n": 2}))
    assert ring.pop().payload["n"] == 1
    assert ring.pop().payload["n"] == 2


def test_ring_capacity_enforced():
    ring = CommandRing("r", capacity=2)
    ring.push(Command(CommandKind.VM_TRAP))
    ring.push(Command(CommandKind.VM_TRAP))
    with pytest.raises(ChannelError):
        ring.push(Command(CommandKind.VM_TRAP))


def test_pop_empty_rejected():
    with pytest.raises(ChannelError):
        CommandRing("r").pop()


def test_sequence_numbers_monotonic():
    ring = CommandRing("r")
    seqs = [ring.push(Command(CommandKind.VM_TRAP)) for _ in range(5)]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == 5


def test_occupancy_stats():
    ring = CommandRing("r")
    ring.push(Command(CommandKind.VM_TRAP))
    ring.push(Command(CommandKind.VM_TRAP))
    ring.pop()
    assert ring.occupancy == 1
    assert ring.max_occupancy == 2
    ring.check_invariants()


def test_paired_alternation_enforced():
    channels = PairedChannels("vcpu0")
    channels.send_trap({"r": 1})
    with pytest.raises(ChannelError):
        channels.send_trap({"r": 2})   # previous trap not resumed


def test_resume_without_trap_rejected():
    with pytest.raises(ChannelError):
        PairedChannels("vcpu0").send_resume({})


def test_full_round_trip():
    channels = PairedChannels("vcpu0")
    channels.send_trap({"exit_reason": "CPUID"})
    request = channels.take_request()
    assert request.kind == CommandKind.VM_TRAP
    channels.send_resume({"regs": {"rax": 1}})
    response = channels.take_response()
    assert response.kind == CommandKind.VM_RESUME
    assert channels.round_trips == 1
    assert channels.in_flight == 0
    channels.check_invariants()


def test_blocked_response_does_not_complete_exchange():
    # §5.3: SVT_BLOCKED lets L0 service interrupts; the trap stays open.
    channels = PairedChannels("vcpu0")
    channels.send_trap({})
    channels.take_request()
    channels.response.push(Command(CommandKind.BLOCKED))
    blocked = channels.take_response()
    assert blocked.kind == CommandKind.BLOCKED
    assert channels.in_flight == 1
    channels.send_resume({"regs": {}})
    assert channels.take_response().kind == CommandKind.VM_RESUME
    assert channels.in_flight == 0


@given(st.lists(st.integers(0, 1_000_000), max_size=60))
def test_property_ring_preserves_payload_order(values):
    ring = CommandRing("r", capacity=64)
    for v in values:
        ring.push(Command(CommandKind.VM_TRAP, {"v": v}))
    ring.check_invariants()
    out = [ring.pop().payload["v"] for _ in values]
    assert out == values
    ring.check_invariants()


def test_capacity_must_be_positive():
    with pytest.raises(ChannelError):
        CommandRing("r", capacity=0)


# -- robustness: backpressure, faults, dedup (docs/robustness.md) ---------


class ScriptedInjector:
    """Stub injector: replays a scripted fault sequence per push."""

    def __init__(self, kinds, delay=4_000):
        self._kinds = list(kinds)
        self._delay = delay
        self.corrupted_keys = []

    def ring_fault(self, ring_name):
        return self._kinds.pop(0) if self._kinds else None

    def delay_ns(self):
        return self._delay

    def corrupt_payload(self, payload, ring_name):
        key = sorted(payload)[0] if payload else "corrupted"
        payload[key] = 0xDEADBEEF
        self.corrupted_keys.append(key)
        return key


def test_try_push_full_ring_returns_false_and_counts():
    ring = CommandRing("r", capacity=1)
    assert ring.try_push(Command(CommandKind.VM_TRAP))
    assert not ring.try_push(Command(CommandKind.VM_TRAP))
    assert ring.overflows == 1
    ring.check_invariants()


def test_one_capacity_ring_round_trips():
    ring = CommandRing("r", capacity=1)
    for n in range(3):
        ring.push(Command(CommandKind.VM_TRAP, {"n": n}))
        assert ring.pop().payload["n"] == n
    ring.check_invariants()


def test_clock_stamps_enqueued_at():
    t = {"now": 123}
    ring = CommandRing("r", clock=lambda: t["now"])
    ring.push(Command(CommandKind.VM_TRAP))
    t["now"] = 456
    ring.push(Command(CommandKind.VM_TRAP))
    assert ring.pop().enqueued_at == 123
    assert ring.pop().enqueued_at == 456


def test_explicit_now_overrides_clock():
    ring = CommandRing("r", clock=lambda: 999)
    ring.push(Command(CommandKind.VM_TRAP), now=42)
    assert ring.pop().enqueued_at == 42


def test_drop_fault_never_lands_but_producer_succeeds():
    from repro.faults.plan import FaultKind

    ring = CommandRing("r", faults=ScriptedInjector([FaultKind.RING_DROP]))
    assert ring.try_push(Command(CommandKind.VM_TRAP))
    assert ring.occupancy == 0
    assert ring.dropped == 1
    ring.check_invariants()
    with pytest.raises(ChannelError):
        ring.pop()


def test_delay_fault_hides_head_until_visible_at():
    from repro.faults.plan import FaultKind

    t = {"now": 0}
    ring = CommandRing("r", clock=lambda: t["now"],
                       faults=ScriptedInjector([FaultKind.RING_DELAY],
                                               delay=500))
    ring.push(Command(CommandKind.VM_TRAP, {"n": 1}))
    assert ring.is_empty
    with pytest.raises(ChannelError):
        ring.pop()
    t["now"] = 500
    assert ring.pop().payload["n"] == 1
    assert ring.delayed == 1


def test_lost_wakeup_raises_once_then_delivers():
    from repro.faults.plan import FaultKind

    ring = CommandRing("r", faults=ScriptedInjector([FaultKind.LOST_WAKEUP]))
    ring.push(Command(CommandKind.VM_TRAP, {"n": 7}))
    with pytest.raises(ChannelError):
        ring.pop()           # the missed wakeup
    assert ring.pop().payload["n"] == 7   # watchdog's next look
    assert ring.wakeups_lost == 1


def test_duplicate_fault_deduped_by_xid():
    from repro.faults.plan import FaultKind

    injector = ScriptedInjector([FaultKind.RING_DUPLICATE])
    channels = PairedChannels("vcpu0", faults=injector)
    channels.send_trap({"exit_reason": "CPUID"})
    assert channels.request.occupancy == 2
    assert channels.take_request().payload["exit_reason"] == "CPUID"
    with pytest.raises(ChannelError):
        channels.take_request()            # twin discarded, ring empty
    assert channels.request.dups_discarded == 1


def test_corrupt_fault_detected_and_retransmit_accepted():
    from repro.faults.plan import FaultKind

    injector = ScriptedInjector([FaultKind.RING_CORRUPT])
    channels = PairedChannels("vcpu0", faults=injector)
    channels.send_trap({"exit_reason": "CPUID"})
    with pytest.raises(ChannelError):
        channels.take_request()            # damaged entry discarded
    assert channels.request.corrupt_discarded == 1
    # The producer's own payload copy is intact; retransmit reuses xid.
    assert channels.resend_trap({"exit_reason": "CPUID"})
    request = channels.take_request()
    assert request.payload["exit_reason"] == "CPUID"
    assert request.xid == channels._trap_xid
    assert channels.retransmissions == 1


def test_retransmitted_twin_discarded_after_commit():
    channels = PairedChannels("vcpu0")
    channels.send_trap({"exit_reason": "CPUID"})
    assert channels.resend_trap({"exit_reason": "CPUID"})
    assert channels.take_request().kind == CommandKind.VM_TRAP
    with pytest.raises(ChannelError):
        channels.take_request()
    assert channels.request.dups_discarded == 1


def test_resume_retransmission_round_trip():
    channels = PairedChannels("vcpu0")
    channels.send_trap({})
    channels.take_request()
    channels.send_resume({"regs": {"rax": 1}})
    assert channels.resend_resume({"regs": {"rax": 1}})
    response = channels.take_response()
    assert response.kind == CommandKind.VM_RESUME
    assert channels.in_flight == 0
    # The twin must not double-complete the exchange.
    with pytest.raises(ChannelError):
        channels.take_response()
    assert channels.response.dups_discarded == 1
    channels.check_invariants()


def test_resend_trap_without_in_flight_rejected():
    with pytest.raises(ChannelError):
        PairedChannels("vcpu0").resend_trap({})


def test_resend_resume_before_any_resume_rejected():
    channels = PairedChannels("vcpu0")
    channels.send_trap({})
    with pytest.raises(ChannelError):
        channels.resend_resume({})


def test_try_send_resume_without_trap_rejected():
    with pytest.raises(ChannelError):
        PairedChannels("vcpu0").try_send_resume({})


def test_try_send_trap_full_ring_returns_false():
    channels = PairedChannels("vcpu0", capacity=1)
    # Fill the request ring out-of-band so the protocol state is clean.
    channels.request.push(Command(CommandKind.VM_TRAP))
    assert not channels.try_send_trap({"exit_reason": "CPUID"})
    assert channels.in_flight == 0      # nothing consumed on failure
    assert channels.request.overflows == 1


def test_send_trap_full_ring_raises():
    channels = PairedChannels("vcpu0", capacity=1)
    channels.request.push(Command(CommandKind.VM_TRAP))
    with pytest.raises(ChannelError):
        channels.send_trap({"exit_reason": "CPUID"})


def test_corruption_cannot_damage_producer_payload():
    from repro.faults.plan import FaultKind

    injector = ScriptedInjector([FaultKind.RING_CORRUPT])
    channels = PairedChannels("vcpu0", faults=injector)
    payload = {"exit_reason": "CPUID"}
    channels.send_trap(payload)
    assert payload == {"exit_reason": "CPUID"}


def test_sealed_command_verifies_until_mutated():
    command = Command(CommandKind.VM_TRAP, {"a": 1})
    command.seal()
    assert command.verify()
    command.payload["a"] = 2
    assert not command.verify()


def _trap_payload(order=1):
    """An enter_l1 payload; ``order=-1`` builds it in reverse key order."""
    regs = dict(list({f"r{i}": 0x1000 + i for i in range(16)}.items())
                [::order])
    items = [("exit_reason", "EPT_MISCONFIG"),
             ("qualification", {"gpa": 0xFEB00000, "write": True}),
             ("regs", regs), ("rip", -1)]
    return dict(items[::order])


def test_seal_holds_for_untouched_payload_in_any_key_order():
    command = Command(CommandKind.VM_TRAP, _trap_payload())
    assert not command.verify()          # unsealed
    command.seal()
    assert command.verify()
    command.payload = _trap_payload(order=-1)
    assert list(command.payload) != list(_trap_payload())
    assert command.verify()


@pytest.mark.parametrize("path", [("regs", "r3"),
                                  ("qualification", "gpa"),
                                  ("qualification", "extra")])
def test_seal_breaks_on_nested_in_place_change(path):
    command = Command(CommandKind.VM_TRAP, _trap_payload())
    command.seal()
    outer, inner = path
    command.payload[outer][inner] = 0xBAD
    assert not command.verify()


def test_seal_breaks_on_every_injected_corruption():
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan

    payloads = (_trap_payload(), {"regs": {"rax": 1}}, {})
    picked = set()
    for seed in range(40):
        injector = FaultInjector(FaultPlan(seed=seed))
        for payload in payloads:
            command = Command(CommandKind.VM_RESUME, copy.deepcopy(payload))
            command.seal()
            picked.add(injector.corrupt_payload(command.payload, "r"))
            assert not command.verify()
    assert picked == set(_trap_payload()) | {"regs", "corrupted"}
