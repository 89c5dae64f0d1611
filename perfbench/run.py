"""End-to-end and per-layer benchmark of the nested-virtualization simulator.

::

    python3 perfbench/run.py --workload exit-path --seed 3 --seconds 30 \\
        --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing is built or installed).  One closed-loop caller runs
iterations back to back — each starts when the previous one has ended —
until ``--seconds`` have passed, then prints a human-readable report
and, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates traced and untraced iterations and reports the
per-layer metrics (see ``tracing.py``) plus the tracing overhead.
Workloads, metrics and the layer table are described in ``README.md``
beside this file.

Every iteration is a fresh interpreter, so each pays what a CLI user
pays.  The host's speed drifts, so a calibration run (``calib.py``)
brackets every iteration and the end-to-end times are scaled to a
reference speed; raw medians are printed beside them.  Every
iteration's result document is checked: its experiments
must hash to the digest recorded in ``digests.json`` for this workload
and experiment seed (``--seed`` modulo ``RECORDED_SEEDS``), and an
iteration whose bytes differ counts as failed.  Without a recorded
digest the run fails closed.  All files go to a private directory under
``.perfbench_work/`` in the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (sibling module)

#: The seven exit-heavy experiments, at default (full) parameters.
EXIT_PATH = ("fig9", "fig7", "fig10", "chaos", "fig6", "table1", "sec61")
#: fig8's ``requests`` for ``memcached-etc``: twice the default, so the
#: queue model owns most of the traced wall.
MEMCACHED_REQUESTS = 60_000
#: ``document``'s pool size.
DOCUMENT_JOBS = 2
WORKLOADS = ("exit-path", "memcached-etc", "document")
#: ``digests.json`` holds experiment seeds 0 .. RECORDED_SEEDS - 1; the
#: experiment seed of a run is ``--seed`` modulo this.
RECORDED_SEEDS = 100
#: Environment variables that select a non-default configuration.
FORBIDDEN_ENV = ("REPRO_SIM_KERNEL", "REPRO_SIM_SANITIZE",
                 "REPRO_BATCH_NATIVE")
#: A run must end within this many seconds, children included.
HARD_LIMIT_S = 170.0
MIN_ITERATIONS = 2
#: Iteration modes: the traced run alternates the two.
UNTRACED, TRACED = "untraced", "traced"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "nested_exits_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed in the report; not in the JSON because they are 0 or
#: undefined on some workload, or move with the seed rather than the
#: code (see README.md).
REPORT_ONLY = ("cached_wall_s", "requests_per_s", "failed_frac",
               "paper_err_pct")

DIGEST_FILE = HERE / "digests.json"
#: Host-speed calibration (see README.md): the script, what it prints,
#: and its wall on the reference host, to which every time is scaled.
CALIBRATION = HERE / "calib.py"
CALIBRATION_OUTPUT = "261698445"
CALIBRATION_REF_S = 0.35
CACHE_LINE = re.compile(r"cache: served (\d+), computed (\d+)")


class HarnessError(RuntimeError):
    """The benchmark cannot run here (not a failed iteration)."""


# -- processes ---------------------------------------------------------------

@dataclass
class Finished:
    """One child process, waited for."""

    code: int
    wall_s: float
    spawned: float          # time.monotonic() just before the spawn
    rss_mb: float           # peak RSS of it and the children it reaped
    stdout: bytes
    stderr: str


class Runner:
    """Starts every child of a run, with one hard deadline for all."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        self.env = env

    def spawn(self, argv: list[str], cwd: Path) -> Finished:
        out_path = cwd / "stdout"
        err_path = cwd / "stderr"
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise HarnessError("run deadline passed before a child started")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=out, stderr=err,
                                    start_new_session=True)
            # The child and any pool workers it started form one
            # process group; a timeout kills the whole group.
            timer = threading.Timer(timeout, _kill_group, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            ended = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return Finished(
            code=proc.returncode,
            wall_s=ended - spawned,
            spawned=spawned,
            rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_text(errors="replace"),
        )

    def child(self, kind: str, cwd: Path, *extra: str) -> Finished:
        stats = cwd / "stats.json"
        return self.spawn([sys.executable, str(HERE / "child.py"), kind,
                           "--stats", str(stats), *extra], cwd)

    def calibrate(self) -> float:
        """Wall of one calibration run (see ``calib.py``)."""
        done = self.spawn([sys.executable, str(CALIBRATION)], self.workdir)
        if done.code != 0 or done.stdout.decode().strip() != \
                CALIBRATION_OUTPUT:
            raise HarnessError(f"calibration failed ({done.code}): "
                               f"{done.stdout[-100:]!r} {done.stderr[-300:]}")
        return done.wall_s

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(prefix="it-", dir=self.workdir))


def _kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def read_stats(cwd: Path) -> dict[str, Any]:
    return json.loads((cwd / "stats.json").read_text())


# -- output checks -----------------------------------------------------------

def experiments_digest(document: bytes) -> str:
    """Digest of a result document's ``experiments`` section.  The rest
    of the document names the code fingerprint and cache keys, which
    change with every source edit; the results must not."""
    return digest_of(json.loads(document)["experiments"])


def digest_of(experiments: dict[str, Any]) -> str:
    """sha256 of parsed experiments, re-encoded by the benchmark
    (sorted keys, fixed separators)."""
    canonical = json.dumps(experiments, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def recorded_digest(workload: str, seed: int) -> Optional[str]:
    try:
        table = json.loads(DIGEST_FILE.read_text())
    except (OSError, ValueError):
        return None
    return table.get("digests", {}).get(workload, {}).get(str(seed))


def l2_exits(metrics_doc: dict[str, Any]) -> int:
    """Sum of ``exits_total{level=2,...}`` in a metrics document."""
    total = 0
    for key, value in metrics_doc.get("counters", {}).items():
        name, _, labels = key.partition("{")
        if name != "exits_total":
            continue
        pairs = dict(item.split("=", 1)
                     for item in labels.rstrip("}").split(",") if item)
        if pairs.get("level") == "2":
            total += int(value)
    return total


def memcached_requests(experiments: dict[str, Any]) -> int:
    """Requests fig8 simulates, from its sweep shape: one series per
    mode, one point per load, ``requests`` requests per point."""
    fig8 = experiments.get("fig8")
    if fig8 is None:
        return 0
    points = sum(len(series["points"]) for series in fig8["series"])
    return points * int(fig8["params"]["requests"])


def paper_error(experiments: dict[str, Any]) -> tuple[float, int]:
    """Mean relative error (%) of Result scalars against the ``paper``
    values that share their key, and how many pairs it averages."""
    errors = []
    for doc in experiments.values():
        scalars = doc.get("scalars", {})
        for key, paper in doc.get("paper", {}).items():
            measured = scalars.get(key)
            if _number(paper) and _number(measured) and paper != 0:
                errors.append(abs(measured - paper) / abs(paper))
    if not errors:
        return 0.0, 0
    return 100.0 * sum(errors) / len(errors), len(errors)


def _number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# -- iterations --------------------------------------------------------------

@dataclass
class Iteration:
    """What one closed-loop iteration measured."""

    failure: str = ""                 # "" when every check passed
    wall_s: float = 0.0
    setup_s: float = 0.0
    compute_s: float = 0.0
    rss_mb: float = 0.0
    cached_wall_s: float = 0.0        # document only
    calib_s: float = 0.0              # calibration wall around it
    traced: bool = False
    layers: Optional[dict[str, float]] = None


@dataclass
class Reference:
    """Per-run ground truth, taken once from the metrics-capture run."""

    digest: str
    exits: int
    requests: int
    paper_err_pct: float
    paper_pairs: int
    kernel: str
    mismatch: str = ""                # capture vs recorded digest


class Workload:
    """Base: a fresh ``child.py runner`` per iteration."""

    name = ""
    names: tuple[str, ...] = ()
    requests: Optional[int] = None

    def __init__(self, runner: Runner, seed: int) -> None:
        self.runner = runner
        self.seed = seed % RECORDED_SEEDS

    def _child_args(self) -> list[str]:
        args = ["--names", ",".join(self.names), "--seed", str(self.seed)]
        if self.requests is not None:
            args += ["--requests", str(self.requests)]
        return args

    def reference(self) -> Reference:
        cwd = self.runner.fresh_dir()
        done = self.runner.child("capture", cwd, *self._child_args())
        if done.code != 0:
            raise HarnessError(f"metrics-capture run failed ({done.code}):"
                               f" {done.stderr.strip()[-400:]}")
        stats = read_stats(cwd)
        return self._reference(done.stdout, l2_exits(stats["metrics"]),
                               stats["kernel"])

    def _reference(self, document: bytes, exits: int,
                   kernel: str) -> Reference:
        captured = experiments_digest(document)
        recorded = recorded_digest(self.name, self.seed)
        if recorded is None:
            raise HarnessError(f"no digest recorded in {DIGEST_FILE.name}"
                               f" for {self.name} seed {self.seed}")
        experiments = json.loads(document)["experiments"]
        err, pairs = paper_error(experiments)
        mismatch = ""
        if recorded != captured:
            mismatch = (f"capture run digest {captured[:16]} differs from"
                        f" the recorded {recorded[:16]}")
        return Reference(
            digest=recorded,
            exits=exits, requests=memcached_requests(experiments),
            paper_err_pct=err, paper_pairs=pairs, kernel=kernel,
            mismatch=mismatch)

    def iterate(self, ref: Reference, mode: str) -> Iteration:
        cwd = self.runner.fresh_dir()
        traced = mode == TRACED
        extra = ["--trace"] if traced else []
        done = self.runner.child("runner", cwd, *self._child_args(), *extra)
        it = Iteration(wall_s=done.wall_s, rss_mb=done.rss_mb,
                       traced=traced)
        if done.code != 0:
            it.failure = f"exit code {done.code}: {done.stderr[-300:]}"
        else:
            stats = read_stats(cwd)
            it.setup_s = stats["ready"] - done.spawned
            it.compute_s = stats["compute_s"]
            it.failure = _check_digest(done.stdout, ref)
            if traced:
                it.layers = tracing.layer_metrics(_raw(stats))
        shutil.rmtree(cwd, ignore_errors=True)
        return it

    @staticmethod
    def sim_seconds(it: Iteration) -> float:
        """Host seconds an iteration spent simulating: the in-process
        run, without interpreter set-up."""
        return it.compute_s


class ExitPath(Workload):
    name = "exit-path"
    names = EXIT_PATH


class MemcachedEtc(Workload):
    name = "memcached-etc"
    names = ("fig8",)
    requests = MEMCACHED_REQUESTS


class Document(Workload):
    """``repro all --json --jobs 2`` cold, then warm, each through
    ``child.py cli`` in a fresh interpreter."""

    name = "document"

    def _cli_args(self) -> list[str]:
        return ["all", "--json", "--jobs", str(DOCUMENT_JOBS),
                "--seed", str(self.seed)]

    def reference(self) -> Reference:
        cwd = self.runner.fresh_dir()
        done = self.runner.child("cli", cwd, "--", *self._cli_args(),
                                 "--metrics", "metrics.json")
        if done.code != 0:
            raise HarnessError(f"metrics-capture run failed ({done.code}):"
                               f" {done.stderr.strip()[-400:]}")
        metrics = json.loads((cwd / "metrics.json").read_text())
        return self._reference(done.stdout, l2_exits(metrics),
                               read_stats(cwd)["kernel"])

    def iterate(self, ref: Reference, mode: str) -> Iteration:
        cwd = self.runner.fresh_dir()
        # Relative, so the document's meta.cache.dir reads "cache" in
        # every iteration and cold/warm bytes can be compared whole.
        args = [*self._cli_args(), "--cache-dir", "cache"]
        traced = mode == TRACED
        flag = ["--trace"] if traced else []
        runs = []
        stats = []
        for _ in range(2):      # cold, then warm against the same cache
            runs.append(self.runner.child("cli", cwd, *flag, "--", *args))
            if runs[-1].code == 0:
                stats.append(read_stats(cwd))
        cold, warm = runs
        it = Iteration(wall_s=cold.wall_s, cached_wall_s=warm.wall_s,
                       rss_mb=max(cold.rss_mb, warm.rss_mb),
                       traced=traced)
        if len(stats) == 2:
            # Set-up is the cold process's: start up to its ready stamp.
            it.setup_s = stats[0]["ready"] - cold.spawned
            it.compute_s = stats[0]["compute_s"] + stats[1]["compute_s"]
            if traced:
                it.layers = tracing.layer_metrics(
                    _sum_raw([_raw(one) for one in stats]))
        it.failure = _check_document(cold, warm, ref)
        shutil.rmtree(cwd, ignore_errors=True)
        return it

    @staticmethod
    def sim_seconds(it: Iteration) -> float:
        """The cold run's wall: the CLI's inside is not visible."""
        return it.wall_s


def _check_digest(document: bytes, ref: Reference) -> str:
    try:
        digest = experiments_digest(document)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable result document: {exc}"
    if digest != ref.digest:
        return (f"result digest {digest[:16]} differs from the"
                f" recorded {ref.digest[:16]}")
    return ""


def _check_document(cold: Finished, warm: Finished,
                    ref: Reference) -> str:
    for label, run in (("cold", cold), ("warm", warm)):
        if run.code != 0:
            return f"{label} run exit code {run.code}: {run.stderr[-300:]}"
    failure = _check_digest(cold.stdout, ref)
    if failure:
        return failure
    if warm.stdout != cold.stdout:
        return "warm document bytes differ from the cold document"
    cold_line = CACHE_LINE.search(cold.stderr)
    warm_line = CACHE_LINE.search(warm.stderr)
    if not cold_line or int(cold_line.group(1)) != 0:
        return "cold run did not start from an empty cache"
    if not warm_line or int(warm_line.group(2)) != 0:
        return "warm run computed instead of reading the cache"
    return ""


def _raw(stats: dict[str, Any]) -> dict[str, Any]:
    """A child's stats as :func:`tracing.layer_metrics` input."""
    trace = stats.get("trace") or {"self_s": {}, "inclusive_s": {},
                                   "calls": {}, "tallies": {}}
    return {**trace, "wall_s": stats["compute_s"],
            "import_s": stats["import_s"],
            "events": stats.get("events", 0)}


def _sum_raw(raws: list[dict[str, Any]]) -> dict[str, Any]:
    """Several traced processes of one iteration, summed."""
    out: dict[str, Any] = {"self_s": {}, "inclusive_s": {}, "calls": {},
                           "tallies": {}, "wall_s": 0.0, "import_s": 0.0,
                           "events": 0}
    for raw in raws:
        for table in ("self_s", "inclusive_s", "calls", "tallies"):
            for key, value in raw[table].items():
                out[table][key] = out[table].get(key, 0) + value
        for key in ("wall_s", "import_s", "events"):
            out[key] += raw[key]
    # import_s is a per-process set-up cost: report the mean.
    out["import_s"] /= len(raws)
    return out


WORKLOAD_CLASSES = {cls.name: cls
                    for cls in (ExitPath, MemcachedEtc, Document)}


# -- metrics -----------------------------------------------------------------

def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest percentile with at least ten samples beyond it, and
    its value, or ``None`` with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    index = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return pct, ordered[index]


def end_to_end(workload: Workload, ref: Reference, its: list[Iteration],
               scaled: bool = True) -> dict[str, float]:
    """Every end-to-end metric (JSON and report-only) of a run, from
    its untraced iterations.  Each iteration's times are scaled by
    ``CALIBRATION_REF_S`` over its own calibration wall before the
    median is taken; ``scaled=False`` gives the raw medians."""
    its = [it for it in its if not it.traced] or its
    good = [it for it in its if not it.failure] or its

    def median(times):
        return statistics.median(
            time * (CALIBRATION_REF_S / it.calib_s if scaled else 1.0)
            for it, time in zip(good, times))

    simulating = median(workload.sim_seconds(it) for it in good)
    if not simulating:          # every iteration failed before running
        simulating = math.inf
    return {
        "setup_s": median(it.setup_s for it in good),
        "wall_s": median(it.wall_s for it in good),
        "nested_exits_per_s": ref.exits / simulating,
        "peak_rss_mb": statistics.median(it.rss_mb for it in good),
        "cached_wall_s": median(it.cached_wall_s for it in good),
        "requests_per_s": ref.requests / simulating,
        "failed_frac": sum(1 for it in its if it.failure) / len(its),
        "paper_err_pct": ref.paper_err_pct,
    }


def per_layer(its: list[Iteration]) -> tuple[dict[str, float], str]:
    """Median per-layer metrics over traced iterations, the tracing
    overhead, and a failure message if self times overran the wall."""
    traced = [it for it in its if it.traced and it.layers is not None]
    plain = [it for it in its if not it.traced and it.compute_s > 0]
    if not traced or not plain:
        return {}, "too few traced and untraced iterations"
    names = traced[0].layers.keys()
    out = {name: statistics.median(it.layers[name] for it in traced)
           for name in names}
    out["trace.overhead"] = (
        statistics.median(it.compute_s for it in traced)
        / statistics.median(it.compute_s for it in plain))
    overran = [it.layers["trace.unattributed_s"] for it in traced
               if it.layers["trace.unattributed_s"] < -1e-6]
    problem = (f"layer self times exceed the traced wall by"
               f" {-min(overran):.6f} s" if overran else "")
    return out, problem


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")) or name == "trace.overhead":
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# -- main --------------------------------------------------------------------

def environment_problem() -> str:
    """Why this run cannot measure the configuration users get, or ""."""
    for name in FORBIDDEN_ENV:
        if os.environ.get(name):
            return (f"{name} is set ({os.environ[name]!r}); the benchmark"
                    " measures the default configuration only: unset it")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program source at {ROOT / 'src' / 'repro'}"
    return ""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    started = time.monotonic()
    runner = Runner(workdir, started + HARD_LIMIT_S)
    workload = WORKLOAD_CLASSES[args.workload](runner, args.seed)
    ref = workload.reference()
    print(f"perfbench {args.workload} seed={args.seed} (experiment seed "
          f"{workload.seed}) seconds={args.seconds:g} trace={args.trace}")
    print(f"config: kernel={ref.kernel} python={platform.python_version()}"
          f" nproc={os.cpu_count()} jobs="
          f"{DOCUMENT_JOBS if args.workload == 'document' else 1}")
    print(f"reference digest {ref.digest[:16]} (recorded)"
          + (f"; {ref.mismatch}" if ref.mismatch else ""))

    its: list[Iteration] = []
    loop_start = time.monotonic()
    calib_before = runner.calibrate()
    while (time.monotonic() - loop_start < args.seconds
           or len(its) < MIN_ITERATIONS):
        # The traced run alternates traced and untraced iterations; the
        # ratio of their walls is the tracing overhead.
        mode = TRACED if args.trace and len(its) % 2 == 0 else UNTRACED
        it = workload.iterate(ref, mode)
        # Calibrations bracket every iteration; it is scaled by the mean
        # of the two, which tracks the host's speed during it.
        calib_after = runner.calibrate()
        it.calib_s = (calib_before + calib_after) / 2
        calib_before = calib_after
        its.append(it)
    failed = sum(1 for it in its if it.failure)
    for index, it in enumerate(its):
        if it.failure:
            print(f"iteration {index} FAILED: {it.failure}")

    e2e = end_to_end(workload, ref, its)
    raw = end_to_end(workload, ref, its, scaled=False)
    plain = [it for it in its if not it.traced]
    tail = tail_percentile([it.wall_s * CALIBRATION_REF_S / it.calib_s
                            for it in plain])
    print(f"iterations {len(its)} failed {failed} "
          f"failed_frac {e2e['failed_frac']:.4f}")
    print(f"host speed: calibration median "
          f"{statistics.median(it.calib_s for it in plain):.4f} s against "
          f"{CALIBRATION_REF_S} s on the reference host; times below are "
          "scaled to it, raw medians in brackets")
    print(f"wall_s median {e2e['wall_s']:.4f} s [{raw['wall_s']:.4f}] over "
          f"{len(plain)} iterations; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
             "too few iterations for a tail percentile"))
    print(f"setup_s {e2e['setup_s']:.4f} s [{raw['setup_s']:.4f}]   "
          f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"nested_exits_per_s {e2e['nested_exits_per_s']:.1f} 1/s "
          f"[{raw['nested_exits_per_s']:.1f}] "
          f"(base {ref.exits} L2 exits per iteration)")
    if ref.requests:
        print(f"requests_per_s {e2e['requests_per_s']:.1f} 1/s "
              f"[{raw['requests_per_s']:.1f}] "
              f"(base {ref.requests} memcached requests per iteration)")
    if args.workload == "document":
        print(f"cached_wall_s {e2e['cached_wall_s']:.4f} s "
              f"[{raw['cached_wall_s']:.4f}] (warm rerun)")
    print(f"paper_err_pct {ref.paper_err_pct:.3f} % "
          f"(over {ref.paper_pairs} scalars with a paper value)")

    correct = failed == 0 and not ref.mismatch
    if args.trace:
        layers, problem = per_layer(its)
        if problem:
            print(f"trace: {problem}")
            correct = False
        for name in sorted(layers):
            print(f"  {name} {layers[name]:.6g} {per_layer_unit(name)}")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {"correct": correct, "attempted": len(its), "failed": failed,
            "metrics": metrics}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    problem = environment_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    base = ROOT / ".perfbench_work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        result = run(args, workdir)
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
