"""Supervised process worker pool: deadlines, crash retry, quarantine.

Requests execute in child processes (one :class:`WorkerSlot` per
``--jobs``), so a wedged or dying cell can never take the service
down.  The supervisor side (this module) owns the full robustness
contract:

* **deadlines** — every dispatch polls the worker pipe against a
  per-request deadline; an overrun kills and restarts the worker and
  the request fails fast with a ``timeout`` outcome (the deadline is
  spent — no retry);
* **crash detection + deterministic retry** — a worker dying
  mid-request (EOF on the pipe / process death) is retried on a fresh
  worker under the shared :class:`repro.faults.BackoffPolicy`, with
  the backoff jitter seeded by the *request fingerprint* — replaying
  the same campaign replays the same retry schedule;
* **capped attempts + quarantine** — a request that kills its worker
  on every attempt exhausts the policy budget and is reported as a
  ``crash`` outcome; the service quarantines its fingerprint so one
  poisoned request cannot grind the pool down forever;
* **fault injection** — an optional :class:`repro.faults.FaultInjector`
  is consulted once per dispatch (``FaultKind.WORKER_KILL``); an
  injected kill makes the worker exit *before* computing, so crash
  storms never duplicate a computation, and recoveries are reported
  back to the injector scoreboard.

Workers compute through exactly the code path the CLI uses
(:func:`repro.exp.runner.run_experiments` /
:func:`repro.exp.dse.build_document`), so a served body is
byte-identical to the CLI artifact for the same fingerprint.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError, ReproError
from repro.faults.backoff import BackoffPolicy
from repro.faults.plan import FaultKind

#: Worker exit code for an injected kill (distinguishable in ps/logs).
_KILL_EXIT = 17

#: Pipe poll slice, seconds: how often the supervisor re-checks the
#: deadline and worker liveness while waiting.
_POLL_SLICE_S = 0.02

#: Serve-tier retry schedule: the watchdog shape (double and cap)
#: scaled from sim-nanoseconds to real milliseconds, with
#: fingerprint-seeded jitter on so storm retries de-synchronize.
SERVE_BACKOFF = BackoffPolicy(
    base_ns=1_000_000,       # 1 ms
    factor=2,
    cap_ns=16_000_000,       # 16 ms
    max_attempts=4,
    jitter_tenths=5,
)


@dataclass(frozen=True)
class Job:
    """One unit of pool work (picklable, fully resolved)."""

    key: str
    kind: str
    experiment: str
    params: Tuple[Tuple[str, Any], ...]
    deadline_s: float = 30.0


@dataclass
class Outcome:
    """What one :meth:`WorkerPool.execute` call produced."""

    status: str              # "ok" | "error" | "timeout" | "crash"
    body: str = ""
    error: str = ""
    attempts: int = 1
    worker: str = ""


def compute_body(kind: str, experiment: str,
                 params: Dict[str, Any]) -> str:
    """The canonical body for one request — the CLI path, verbatim.

    Experiment bodies are ``Result.to_json()`` of
    :func:`repro.exp.runner.run_experiments`, the function behind
    ``python -m repro <experiment> --json``; dse bodies are the
    canonical JSON of the document the ``repro dse`` CLI emits.
    """
    from repro.exp.result import canonical_json

    if kind == "experiment":
        from repro.exp.runner import run_experiments

        report = run_experiments([experiment], overrides=params)
        return report.results[experiment].to_json()
    if kind == "dse":
        from repro.exp import dse

        doc = dse.build_document(
            models=params.get("models", ("xeon-paper",)),
            scale_tenths=params.get("scale_tenths",
                                    dse.SMOKE["scale_tenths"]),
            mwait_wake=params.get("mwait_wake",
                                  dse.SMOKE["mwait_wake"]),
            stall_resume=params.get("stall_resume",
                                    dse.SMOKE["stall_resume"]),
            placements=params.get("placements",
                                  dse.SMOKE["placements"]),
            iterations=params.get("iterations", 50),
        )
        return canonical_json(doc)
    raise ConfigError(f"unknown request kind {kind!r}")


def _worker_main(conn: Any) -> None:
    """Child-process loop: recv a job, compute, send the outcome."""
    # svtlint: disable=SVT005 — bounded: the supervisor owns this
    # loop; closing the pipe raises EOFError on recv and the worker
    # exits, and a "stop" message ends it cooperatively.
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message.get("op") == "stop":
            break
        if message.get("kill"):
            # Injected WORKER_KILL: die *before* computing, so a
            # retried request is never a duplicated computation.
            os._exit(_KILL_EXIT)
        try:
            body = compute_body(message["kind"], message["experiment"],
                                dict(message["params"]))
            reply = {"status": "ok", "body": body}
        except ReproError as error:
            # Deterministic simulation/config failure: same inputs
            # would fail the same way — cacheable as a negative entry.
            reply = {"status": "error", "error": str(error)}
        except Exception as error:  # noqa: BLE001 - worker must reply
            reply = {"status": "error",
                     "error": f"{type(error).__name__}: {error}"}
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break


@dataclass
class WorkerSlot:
    """One supervised worker process and its pipe."""

    name: str
    process: Any = None
    conn: Any = None
    kills: int = 0           # injected kills absorbed by this slot
    completed: int = 0       # computations finished on this slot

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class WorkerPool:
    """Fixed-size supervised pool; ``execute`` blocks one caller
    thread per in-flight request (the service runs it in an executor).
    """

    def __init__(self, jobs: int = 2,
                 policy: Optional[BackoffPolicy] = None,
                 injector: Any = None,
                 max_kills_per_worker: int = 1) -> None:
        if jobs < 1:
            raise ConfigError(f"jobs must be >= 1: {jobs}")
        self.jobs = jobs
        self.policy = policy or SERVE_BACKOFF
        self.injector = injector
        self.max_kills_per_worker = max_kills_per_worker
        self._mp = multiprocessing.get_context("fork")
        self._slots: Dict[str, WorkerSlot] = {}
        self._ready: "queue.Queue[WorkerSlot]" = queue.Queue()
        self._lock = threading.Lock()
        self._started = False
        # -- supervisor scoreboard (mirrored into /healthz) ---------------
        self.executed = 0        # computations completed
        self.crashes = 0         # worker deaths observed mid-request
        self.retries = 0         # re-dispatches after a crash
        self.timeouts = 0        # deadline overruns
        self.restarts = 0        # worker processes respawned
        self.quarantine_hits = 0  # requests that exhausted retries

    # -- lifecycle --------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for index in range(self.jobs):
            slot = WorkerSlot(name=f"worker-{index}")
            self._spawn(slot)
            self._slots[slot.name] = slot
            self._ready.put(slot)

    def stop(self) -> None:
        if not self._started:
            return
        self._started = False
        for slot in self._slots.values():
            try:
                if slot.conn is not None:
                    slot.conn.send({"op": "stop"})
                    slot.conn.close()
            except (BrokenPipeError, OSError):
                pass
            if slot.process is not None:
                slot.process.join(timeout=2.0)
                if slot.process.is_alive():
                    slot.process.terminate()
                    slot.process.join(timeout=2.0)
        self._slots.clear()
        # Drain the ready queue so a restart starts clean.
        # svtlint: disable=SVT005 — bounded: drains a queue that no
        # longer receives entries (started flag is down); each
        # iteration removes one element and Empty breaks out.
        while True:
            try:
                self._ready.get_nowait()
            except queue.Empty:
                break

    def _spawn(self, slot: WorkerSlot) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(target=_worker_main,
                                   args=(child_conn,), daemon=True)
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn

    def _restart(self, slot: WorkerSlot) -> None:
        try:
            if slot.conn is not None:
                slot.conn.close()
        except OSError:
            pass
        if slot.process is not None:
            if slot.process.is_alive():
                slot.process.terminate()
            slot.process.join(timeout=2.0)
        self._spawn(slot)
        with self._lock:
            self.restarts += 1

    # -- execution --------------------------------------------------------

    def execute(self, job: Job) -> Outcome:
        """Run one job to a final outcome (blocking; see class doc)."""
        if not self._started:
            raise ConfigError("pool is not started")
        attempts = 0
        injected = 0
        while True:   # each attempt consumes retry budget (attempts)
            slot = self._ready.get()
            kill = self._decide_kill(slot)
            if kill:
                injected += 1
            outcome = self._dispatch(slot, job, kill)
            outcome.attempts = attempts + 1
            if outcome.status != "crash":
                if outcome.status == "ok":
                    self._note_recovered(injected)
                return outcome
            with self._lock:
                self.crashes += 1
            attempts += 1
            if self.policy.exhausted(attempts):
                with self._lock:
                    self.quarantine_hits += 1
                outcome.error = (
                    f"worker crashed on every attempt ({attempts})")
                return outcome
            with self._lock:
                self.retries += 1
            delay_ns = self.policy.delay_ns(attempts - 1, key=job.key)
            time.sleep(delay_ns / 1e9)

    def _decide_kill(self, slot: WorkerSlot) -> bool:
        if self.injector is None:
            return False
        if slot.kills >= self.max_kills_per_worker:
            return False
        if not self.injector.worker_kill(slot.name):
            return False
        slot.kills += 1
        return True

    def _note_recovered(self, injected: int) -> None:
        if injected and self.injector is not None:
            self.injector.note_recovered(FaultKind.WORKER_KILL,
                                         injected)

    def _dispatch(self, slot: WorkerSlot, job: Job,
                  kill: bool) -> Outcome:
        """One attempt on one worker; always re-parks a live slot."""
        payload = {"op": "job", "kind": job.kind,
                   "experiment": job.experiment, "params": job.params,
                   "kill": kill}
        try:
            slot.conn.send(payload)
        except (BrokenPipeError, OSError):
            self._restart(slot)
            self._ready.put(slot)
            return Outcome(status="crash", worker=slot.name,
                           error="worker pipe closed before dispatch")
        deadline = time.monotonic() + job.deadline_s
        reply = None
        crashed = False
        while reply is None and not crashed:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            try:
                if slot.conn.poll(min(remaining, _POLL_SLICE_S)):
                    reply = slot.conn.recv()
                elif not slot.alive():
                    crashed = True
            except (EOFError, OSError):
                crashed = True
        if reply is not None:
            slot.completed += 1
            with self._lock:
                self.executed += 1
            self._ready.put(slot)
            return Outcome(status=reply.get("status", "error"),
                           body=reply.get("body", ""),
                           error=reply.get("error", ""),
                           worker=slot.name)
        self._restart(slot)
        self._ready.put(slot)
        if crashed:
            return Outcome(status="crash", worker=slot.name,
                           error="worker died mid-request")
        with self._lock:
            self.timeouts += 1
        return Outcome(
            status="timeout", worker=slot.name,
            error=f"deadline of {job.deadline_s:g}s exceeded")

    # -- introspection ----------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """JSON-ready supervisor scoreboard (deterministic order)."""
        with self._lock:
            return {
                "jobs": self.jobs,
                "executed": self.executed,
                "crashes": self.crashes,
                "retries": self.retries,
                "timeouts": self.timeouts,
                "restarts": self.restarts,
                "quarantine_hits": self.quarantine_hits,
            }
