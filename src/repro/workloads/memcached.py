"""memcached under Facebook's ETC workload (paper Fig. 8 / §6.3.1).

The paper drives a memcached server in L2 with the mutilate load
generator from a separate machine, sweeping offered load and reporting
average and 99th-percentile latency against a 500 µs SLA.

Reproduction in two stages:

1. **Service-time measurement** — server-side request handling is driven
   through the live machine: RX interrupt into L2 (reflected exit + aux),
   EOIs (reflected MSR writes), hash-table work, reply TX kick (reflected
   EPT_MISCONFIG through L1's vhost), TX completion, and a periodic
   TSC-deadline re-arm.  This is where the paper's profiling shape comes
   from (EPT_MISCONFIG and MSR_WRITE dominating L0's handling time).
2. **Queueing simulation** — open-loop Poisson arrivals over the L2 VM's
   two usable vCPUs (Table 4), log-normal service jitter, FCFS.  Tail
   latency then *emerges* from utilisation, which is why the baseline's
   p99 explodes first.
"""

import math
from dataclasses import dataclass, field

from repro.core.mode import ExecutionMode
from repro.core.system import Machine
from repro.cpu import isa
from repro.io.net import Packet, TXQ, install_network
from repro.sim.rng import DeterministicRng
from repro.sim.stats import percentile
from repro.virt.exits import ExitInfo, ExitReason
from repro.virt.hypervisor import MSR_APIC_EOI, MSR_TSC_DEADLINE

#: Paper Figure 8.
PAPER = {
    "sla_us": 500.0,
    "p99_improvement": 2.20,
    "avg_improvement": 1.43,
    "load_range_kqps": (5.0, 22.5),
}


@dataclass(frozen=True)
class EtcConfig:
    """Facebook ETC workload shape (Atikoglu et al., SIGMETRICS'12)."""

    get_fraction: float = 0.97          # ETC is strongly read-dominated
    key_space: int = 4096
    zipf_skew: float = 0.99
    get_work_ns: int = 2600             # hash lookup + response build
    set_work_ns: int = 5800             # allocation + LRU + store
    timer_rearm_every: int = 6          # background deadline re-arms
    # Every request wakes L1-side workers (vhost TX+RX, QEMU event loop,
    # iothread): scheduler wakeups in the baseline, free with the
    # mwait-parked SVt-thread / stalled hardware contexts under SVt.
    l1_wakes_per_request: int = 5
    service_jitter_sigma: float = 0.22  # log-normal shape
    servers: int = 2                    # usable L2 vCPUs (Table 4)


@dataclass
class LoadPoint:
    offered_kqps: float
    avg_us: float
    p99_us: float

    def within_sla(self, sla_us=500.0):
        return self.p99_us <= sla_us


@dataclass
class MemcachedResult:
    mode: str
    service_get_us: float
    service_set_us: float
    points: list = field(default_factory=list)

    def max_load_within_sla(self, sla_us=500.0):
        ok = [p.offered_kqps for p in self.points if p.within_sla(sla_us)]
        return max(ok) if ok else 0.0


def _serve_one(machine, net, cfg, is_get, op_index):
    """Drive one server-side request through the machine; returns ns."""
    started = machine.sim.now
    for _ in range(cfg.l1_wakes_per_request):
        machine.stack.engine.charge_guest_wake(1)
    # Request arrives: RX interrupt into L2 plus its EOI.
    machine.stack.inject_irq_into_l2(0x60)
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    # Application work.
    work = cfg.get_work_ns if is_get else cfg.set_work_ns
    machine.run_instruction(isa.alu(work))
    # Reply: TX kick through the nested virtio chain + completion + EOI.
    net.l2_nic.queue_tx(Packet("reply", 128 if is_get else 32))
    machine.run_instruction(isa.mmio_write(net.l2_nic.doorbell_gpa, TXQ))
    machine.run_instruction(isa.wrmsr(MSR_APIC_EOI, 0))
    # L1's own EOI for the forwarded frame.
    machine.stack.l1_exit(ExitInfo(ExitReason.MSR_WRITE,
                                   {"msr": MSR_APIC_EOI, "value": 0}))
    if op_index % cfg.timer_rearm_every == 0:
        machine.run_instruction(
            isa.wrmsr(MSR_TSC_DEADLINE, machine.sim.now + 10_000_000)
        )
    return machine.sim.now - started


#: Service-time memo (the "compile once per sweep" stage for this
#: workload): ``measure_service`` is a pure function of its inputs —
#: it builds a private Machine, drives a fixed request script through
#: it, and returns two means — so one measurement per
#: (mode, config, samples, cost model) serves a whole sweep.  Bypassed
#: whenever an observer is ambient or the ordering sanitizer is armed:
#: those want the *events*, not just the result.  Bounded with a full
#: wipe (no LRU ordering state).
_SERVICE_MEMO_MAX = 64
_service_memo = {}


def reset_service_memo():
    """Drop memoized service-time measurements (the bench times every
    experiment from this cold start)."""
    _service_memo.clear()


def measure_service(mode=ExecutionMode.BASELINE, config=None, samples=18,
                    costs=None):
    """Mean service time (ns) for GET and SET in a mode."""
    from repro.cpu import costmodels
    from repro.obs.observer import ambient as obs_ambient
    from repro.sim import sanitizer

    cfg = config or EtcConfig()
    memoizable = obs_ambient() is None and not sanitizer.enabled()
    key = None
    if memoizable:
        key = (str(mode), cfg, samples,
               costmodels.fingerprint(costmodels.resolve(costs)))
        cached = _service_memo.get(key)
        if cached is not None:
            return cached
    machine = Machine(mode=mode, costs=costs)
    net = install_network(machine)
    # Under sustained load, TX completions are coalesced (event index).
    net.l1_backend.notify_tx_completion = False
    get_ns = []
    set_ns = []
    for i in range(2):   # warmup
        _serve_one(machine, net, cfg, True, i + 1)
    for i in range(samples):
        get_ns.append(_serve_one(machine, net, cfg, True, i + 1))
        set_ns.append(_serve_one(machine, net, cfg, False, i + 7))
    outcome = (sum(get_ns) / len(get_ns), sum(set_ns) / len(set_ns))
    if memoizable:
        if len(_service_memo) >= _SERVICE_MEMO_MAX:
            _service_memo.clear()
        _service_memo[key] = outcome
    return outcome


def _queueing_run(get_ns, set_ns, offered_kqps, cfg, rng, requests=30_000):
    """FCFS multi-server queue; returns (avg_us, p99_us) of sojourn.

    Served by the self-checked native loop
    (:mod:`repro.workloads.memcached_native`) when it is available and
    the shape is one it compiles; otherwise by the reference loop.  Both
    give identical bytes.  The serving backend is recorded for
    ``repro bench`` and the obs metrics, never in the result.  The
    native module (ctypes, the compiler probe) loads here, at the first
    queue run, so experiments without one never pay for it.
    """
    from repro.workloads import memcached_native

    if (cfg.servers == 2 and cfg.key_space > 1
            and cfg.service_jitter_sigma > 0
            and get_ns > 0 and set_ns > 0 and requests > 0):
        lib = memcached_native.library()
        if lib is not None:
            memcached_native.record(memcached_native.NATIVE)
            return _queueing_run_native(lib, get_ns, set_ns,
                                        offered_kqps, cfg, rng, requests)
        _, reason = memcached_native.status()
    else:
        reason = memcached_native.UNSUPPORTED_SHAPE
    memcached_native.record(memcached_native.REFERENCE, reason)
    return _queueing_run_reference(get_ns, set_ns, offered_kqps, cfg,
                                   rng, requests)


def _queueing_run_reference(get_ns, set_ns, offered_kqps, cfg, rng,
                            requests=30_000):
    """The per-request loop, one rng helper call per draw: the semantic
    definition the native loop is checked against."""
    arrival_mean_ns = 1e6 / offered_kqps
    servers = [0.0] * cfg.servers
    clock = 0.0
    sojourns = []
    for _ in range(requests):
        clock += rng.exponential(arrival_mean_ns)
        is_get = rng.bernoulli(cfg.get_fraction)
        rng.zipf_index(cfg.key_space, cfg.zipf_skew)  # key popularity draw
        base = get_ns if is_get else set_ns
        service = rng.lognormal_around(base, cfg.service_jitter_sigma)
        idx = min(range(len(servers)), key=servers.__getitem__)
        start = max(clock, servers[idx])
        finish = start + service
        servers[idx] = finish
        sojourns.append(finish - clock)
    avg = sum(sojourns) / len(sojourns) / 1000.0
    return avg, percentile(sojourns, 99) / 1000.0


#: Kinderman-Monahan constant, exactly as CPython's random.normalvariate
#: uses it (stable across the 3.9-3.13 line; the native self-check
#: guards against upstream drift).
_NV_MAGICCONST = 4 * math.exp(-0.5) / math.sqrt(2.0)


def _queueing_run_native(lib, get_ns, set_ns, offered_kqps, cfg, rng,
                         requests):
    """The reference loop for two servers with jitter, run natively.

    Hoists the per-mode constants the inlined samplers need (``lambd``
    and the two log-normal ``mu`` values), sums the sojourns with
    :func:`sum` exactly as the reference does, and interpolates the p99
    from the two order statistics the C loop selected with
    :func:`repro.sim.stats.percentile`'s arithmetic.
    """
    from repro.workloads import memcached_native

    half_var = cfg.service_jitter_sigma * cfg.service_jitter_sigma / 2.0
    rank = (99 / 100) * (requests - 1)
    k = math.floor(rank)
    sojourns, lo, hi = memcached_native.replay(
        lib, rng, requests, k, 1.0 / (1e6 / offered_kqps),
        cfg.get_fraction, cfg.service_jitter_sigma,
        math.log(get_ns) - half_var, math.log(set_ns) - half_var,
        _NV_MAGICCONST,
    )
    avg = sum(sojourns) / len(sojourns) / 1000.0
    frac = rank - k
    p99 = lo if not frac else lo * (1 - frac) + hi * frac
    return avg, p99 / 1000.0


def run(mode=ExecutionMode.BASELINE, config=None, loads_kqps=None, seed=42,
        requests=30_000, costs=None):
    """Full Figure-8 sweep for one mode."""
    cfg = config or EtcConfig()
    loads = loads_kqps or [5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5]
    get_ns, set_ns = measure_service(mode, cfg, costs=costs)
    result = MemcachedResult(mode=mode, service_get_us=get_ns / 1000.0,
                             service_set_us=set_ns / 1000.0)
    for load in loads:
        rng = DeterministicRng(seed).fork(f"{mode}:{load}")
        avg, p99 = _queueing_run(get_ns, set_ns, load, cfg, rng,
                                 requests=requests)
        result.points.append(LoadPoint(load, avg, p99))
    return result


def headline_improvements(baseline, svt, sla_us=500.0):
    """The paper's headline numbers (the 2.20x / 1.43x arrows of Fig. 8).

    * p99: the largest improvement over loads where the baseline still
      meets the SLA (the paper's "within SLA" qualifier).
    * avg: the improvement in the flat low-load region, where average
      latency reflects the service path rather than queueing.
    """
    p99_ratios = [
        base_point.p99_us / svt_point.p99_us
        for base_point, svt_point in zip(baseline.points, svt.points)
        if base_point.within_sla(sla_us)
    ]
    avg_ratio = (baseline.points[0].avg_us / svt.points[0].avg_us
                 if baseline.points and svt.points else 0.0)
    return (max(p99_ratios) if p99_ratios else 0.0, avg_ratio)
