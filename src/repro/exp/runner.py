"""Parallel experiment runner with deterministic assembly.

The unit of parallelism is a *cell*: one (experiment, mode, seed,
sweep-point) combination as declared by ``Experiment.cells``.  Cells are
independent by contract — each builds its own ``Machine``; no simulator
state crosses a cell boundary — so they fan out over a
``ProcessPoolExecutor`` with ``--jobs N``.

Determinism: payloads are merged strictly in ``cells()`` order and
experiments are assembled in sorted-name order, so the output document is
byte-identical whether cells ran serially, in any interleaving, or on any
number of workers.  Wall-clock timings are collected alongside but kept
*out* of the result document (they go to ``results/runtime_smoke.json``
via :func:`runtime_smoke`).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.cpu import costmodels
from repro.exp import registry
from repro.exp.cache import ResultCache, code_fingerprint, \
    cost_model_fingerprint
from repro.exp.result import Result, canonical_json
from repro.obs.export import metrics_document
from repro.obs.metrics import merge_snapshots
from repro.obs.observer import capture_metrics
from repro.sim import sanitizer

#: Top-level schema of the ``--json`` document.
DOCUMENT_SCHEMA = "repro-results/1"


@dataclass(frozen=True)
class ExperimentRun:
    """One experiment's outcome inside a batch run."""

    name: str
    result: Result
    cached: bool
    seconds: float          # summed cell compute time (0.0 when cached)
    #: Merged per-cell metrics snapshot (``collect_metrics`` runs only;
    #: ``None`` otherwise).  Deliberately NOT part of the canonical
    #: result document — see :meth:`RunReport.metrics_document`.
    metrics: Optional[dict[str, Any]] = None


@dataclass
class RunReport:
    """Everything a batch run produced."""

    runs: list[ExperimentRun] = field(default_factory=list)
    jobs: int = 1
    cache_dir: str = ""
    cache_enabled: bool = False
    cache_keys: dict[str, str] = field(default_factory=dict)
    wall_seconds: float = 0.0
    #: Rendered runtime-sanitizer reports (``REPRO_SIM_SANITIZE=1``
    #: runs only; empty otherwise).  Deliberately NOT part of the
    #: canonical result document — the flag must not change a byte of
    #: output; the CLI surfaces these on stderr and exits nonzero.
    sanitizer_reports: list[str] = field(default_factory=list)

    @property
    def results(self) -> dict[str, Result]:
        return {run.name: run.result for run in self.runs}

    @property
    def served(self) -> list[str]:
        return sorted(run.name for run in self.runs if run.cached)

    @property
    def computed(self) -> list[str]:
        return sorted(run.name for run in self.runs if not run.cached)

    def to_document(self) -> dict[str, Any]:
        """The ``--json`` document — a pure function of the experiment
        set and code state, never of scheduling or cache temperature.

        ``meta.cache.entries`` maps each experiment to the cache key
        that backs its result; a freshly computed result is stored under
        that key before the document is emitted, so a cold ``--jobs 4``
        run, a warm ``--jobs 1`` run and any rerun in between are
        byte-identical.  The per-invocation hit/miss split stays out of
        the document (the CLI reports it on stderr) precisely to keep
        that property; ``RunReport.served``/``computed`` expose it
        programmatically.
        """
        return {
            "schema": DOCUMENT_SCHEMA,
            "code_fingerprint": code_fingerprint(),
            "cost_model_fingerprint": cost_model_fingerprint(),
            "experiments": {
                run.name: run.result.to_dict() for run in self.runs
            },
            "meta": {
                "cache": {
                    "enabled": self.cache_enabled,
                    "dir": self.cache_dir,
                    "entries": dict(sorted(self.cache_keys.items())),
                },
            },
        }

    def to_json(self) -> str:
        return canonical_json(self.to_document())

    def metrics_document(self) -> dict[str, Any]:
        """Aggregate every run's metrics into one flat JSON document.

        Metrics are simulation-derived (counters of deterministic
        events), so the document is as reproducible as the results —
        but it is a *separate* artifact: keeping it out of
        :meth:`to_document` preserves the result schema and the cache's
        byte-identity guarantee.
        """
        snapshots = [run.metrics for run in self.runs
                     if run.metrics is not None]
        return metrics_document(
            snapshots,
            meta={"experiments": sorted(
                run.name for run in self.runs if run.metrics is not None
            )},
        )


def _execute_cell(name: str, cell: str, params: dict[str, Any],
                  collect_metrics: bool = False) \
        -> tuple[str, str, Any, float, Optional[dict[str, Any]],
                 list[str]]:
    """Run one cell in a fresh simulator — the only way a cell runs.

    Pool workers, the serial loop and ``repro bench``'s timing loop
    all call it; the returned ``took`` is the cell's wall clock.
    Module-level so it pickles; re-resolves the experiment through the
    registry so it also works under the ``spawn`` start method.  With
    ``collect_metrics`` the cell runs under an ambient metrics capture
    (`repro.obs.observer.capture_metrics`): every machine the cell
    builds adopts the capture observer, and its snapshot travels back
    with the payload.  The capture stack is per-process, so pool
    workers never share observer state.

    Under ``REPRO_SIM_SANITIZE=1`` the cell's runtime-sanitizer reports
    travel back rendered (strings pickle across the pool boundary);
    draining per cell keeps attribution cell-accurate and resets the
    process-global log between cells sharing a worker.
    """
    experiment = registry.get(name)
    # Wall-clock here is diagnostic only (ExperimentRun.seconds feeds
    # results/runtime_smoke.json) and never enters a result document.
    started = time.perf_counter()  # svtlint: disable=SVT001
    snapshot: Optional[dict[str, Any]] = None
    with costmodels.use_default(params.get("cost_model")):
        if collect_metrics:
            with capture_metrics() as observer:
                payload = experiment.run_cell(cell, params)
            snapshot = observer.metrics_snapshot()
        else:
            payload = experiment.run_cell(cell, params)
    took = time.perf_counter() - started  # svtlint: disable=SVT001
    violations = ([report.render() for report in sanitizer.drain()]
                  if sanitizer.enabled() else [])
    return name, cell, payload, took, snapshot, violations


def run_experiments(names: Iterable[str],
                    overrides: Optional[Mapping[str, Any]] = None,
                    jobs: int = 1,
                    cache: Optional[ResultCache] = None,
                    smoke: bool = False,
                    collect_metrics: bool = False) -> RunReport:
    """Run a batch of experiments, reusing cached results.

    ``names`` is any iterable of registered names; ``overrides`` is one
    shared parameter namespace (each experiment takes only what it
    declares); ``cache=None`` disables caching; ``smoke`` applies each
    experiment's fast-run parameter overrides first;
    ``collect_metrics`` captures per-cell observability metrics
    (cached results carry no metrics, so the CLI disables the cache
    when asked for them).
    """
    # Diagnostic wall-clock (RunReport.wall_seconds stays out of the
    # canonical result document; see to_document's docstring).
    started = time.perf_counter()  # svtlint: disable=SVT001
    names = sorted(dict.fromkeys(names))
    report = RunReport(
        jobs=max(1, int(jobs)),
        cache_dir=str(cache.root) if cache else "",
        cache_enabled=cache is not None,
    )

    #: (name, experiment, params) triples needing computation.
    plans: list[tuple[str, registry.Experiment, dict[str, Any]]] = []
    finished: dict[str, ExperimentRun] = {}
    for name in names:
        experiment = registry.get(name)
        params = experiment.resolve(overrides, smoke=smoke)
        if cache is not None:
            report.cache_keys[name] = cache.key(name, params)
            hit = cache.load(name, params)
            if hit is not None:
                finished[name] = ExperimentRun(name, hit, True, 0.0)
                continue
        plans.append((name, experiment, params))

    cells = [
        (name, cell, params)
        for name, experiment, params in plans
        for cell in experiment.cells(params)
    ]

    payloads: dict[tuple[str, str], Any] = {}
    seconds: dict[str, float] = {}
    snapshots: dict[str, list[dict[str, Any]]] = {}
    with ExitStack() as stack:
        if report.jobs > 1 and len(cells) > 1:
            pool = stack.enter_context(
                ProcessPoolExecutor(max_workers=report.jobs))
            outcomes = pool.map(_execute_cell, *zip(*cells),
                                [collect_metrics] * len(cells))
        else:
            outcomes = (_execute_cell(name, cell, params, collect_metrics)
                        for name, cell, params in cells)
        for name, cell, payload, took, snapshot, violations in outcomes:
            payloads[(name, cell)] = payload
            seconds[name] = seconds.get(name, 0.0) + took
            if snapshot is not None:
                snapshots.setdefault(name, []).append(snapshot)
            report.sanitizer_reports.extend(
                f"{name}/{cell}: {line}" for line in violations)

    for name, experiment, params in plans:
        ordered = {
            cell: payloads[(name, cell)]
            for cell in experiment.cells(params)
        }
        result = experiment.merge(params, ordered)
        if cache is not None:
            # svtlint: disable=SVT008 — approximation margin: the
            # wall-clock taint rides _execute_cell's return *tuple*
            # (took), never the payload element merged into the
            # Result; cached bytes are proven schedule-independent by
            # tests/exp/test_runner.py's determinism differentials.
            cache.store(name, params, result)
        metrics = None
        if collect_metrics:
            # merge_snapshots is order-independent, so the merged
            # snapshot is identical at any --jobs setting.
            metrics = merge_snapshots(snapshots.get(name, []))
        finished[name] = ExperimentRun(name, result,
                                       False, seconds.get(name, 0.0),
                                       metrics=metrics)

    report.runs = [finished[name] for name in names]
    report.wall_seconds = \
        time.perf_counter() - started  # svtlint: disable=SVT001
    return report


def runtime_smoke(names: Optional[Iterable[str]] = None, jobs: int = 4,
                  overrides: Optional[Mapping[str, Any]] = None) \
        -> dict[str, Any]:
    """Wall-clock baseline: every experiment serial vs parallel.

    Runs the whole registry twice with smoke parameters and no cache —
    once with ``--jobs 1`` and once with ``--jobs N`` — and returns a
    JSON-ready document recording per-experiment compute time and the
    serial/parallel wall-clock, seeding the perf trajectory
    (``results/runtime_smoke.json``).
    """
    names = sorted(names or registry.names())
    serial = run_experiments(names, overrides=overrides, jobs=1,
                             cache=None, smoke=True)
    parallel = run_experiments(names, overrides=overrides, jobs=jobs,
                               cache=None, smoke=True)
    parallel_seconds = {run.name: run.seconds for run in parallel.runs}
    per_experiment: dict[str, Any] = {}
    for run in serial.runs:
        experiment = registry.get(run.name)
        smoke_params = experiment.resolve(overrides, smoke=True)
        per_experiment[run.name] = {
            "serial_s": round(run.seconds, 4),
            "parallel_cell_s": round(parallel_seconds[run.name], 4),
            "cells": len(experiment.cells(smoke_params)),
        }
    return {
        "schema": "repro-runtime-smoke/1",
        "jobs": parallel.jobs,
        "experiments": per_experiment,
        "totals": {
            "serial_wall_s": round(serial.wall_seconds, 4),
            "parallel_wall_s": round(parallel.wall_seconds, 4),
            "speedup": round(
                serial.wall_seconds / parallel.wall_seconds, 2
            ) if parallel.wall_seconds else 0.0,
        },
    }
