"""`repro bench` — the wall-clock perf-regression harness.

Times every registered experiment at smoke and/or full parameters.
Each experiment runs its cells serially ``repeats`` times and reports
the **minimum** wall clock (min-of-N filters scheduler noise without
averaging it in), alongside simulation throughput (events fired and
instructions retired per second, via
:func:`repro.sim.kernel.collect_stats`) and, for experiments with an
ETC queue model, which backend served each queue run
(:func:`repro.workloads.memcached_native.served`: ``native``, or
``reference`` with the reason).

The document is written to ``BENCH_sim.json`` at the repo root — the
perf-trajectory artifact every later perf PR is measured against — and
:func:`compare` checks a fresh run against a committed baseline with a
configurable regression threshold (CI's bench-smoke job gates on it).

Wall-clock numbers are machine-dependent by nature; the artifact is a
trajectory on comparable hardware, not a determinism surface.  Nothing
here feeds a :class:`~repro.exp.result.Result`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Iterable, Mapping, Optional

from repro.exp import registry, runner
from repro.sim import kernel as simkernel

#: Schema tag of the BENCH_sim.json document.  ``repro-bench/3`` has
#: one timing per experiment (one engine); earlier schemas nested one
#: timing per simulation kernel and are not comparable.
SCHEMA = "repro-bench/3"

#: Default regression threshold: fail when a section/experiment wall
#: clock exceeds the baseline by more than this fraction.
DEFAULT_THRESHOLD = 0.25

#: Noise floor for regression comparison: entries where both current
#: and baseline wall clocks sit under this are pure scheduler jitter
#: (a 3 ms experiment "regressing" by 30% is one cache miss) and are
#: never flagged.
MIN_COMPARE_WALL_S = 0.005

#: Absolute slack for regression comparison: a flagged entry must be
#: slower by at least this many seconds on top of the relative
#: threshold.  Smoke cells run in tens of milliseconds, where a 25%
#: relative excursion is routine scheduler jitter; genuine breakage
#: (e.g. fig8's queue model falling back to the reference loop) costs
#: hundreds of milliseconds and clears this easily.
MIN_REGRESSION_DELTA_S = 0.05


def default_bench_path() -> Path:
    """``<repo>/BENCH_sim.json`` next to the installed package."""
    import repro

    return Path(repro.__file__).resolve().parents[2] / "BENCH_sim.json"


def _time_cells(name: str, params: dict[str, Any], repeats: int,
                ) -> dict[str, Any]:
    """Min-of-N wall clock for one experiment.

    Each cell runs through the runner's cell entry
    (``repro.exp.runner._execute_cell``), the path every experiment
    run takes, and is timed by it (min over the repeats per cell);
    ``wall_s`` is the min over repeats of the summed cell walls.  The
    throughput counters come from the last repeat and are
    deterministic (identical every repeat), unlike the wall clock.

    The memcached service-time memo and queue-backend tally are reset
    on entry, so every experiment is timed from the same cold start —
    the first repeat pays any one-off measure cost and min-of-N
    excludes it — and ``queue_backend`` counts the queue runs of the
    timed repeats per serving backend.
    """
    from repro.workloads import memcached, memcached_native

    cells = registry.get(name).cells(params)
    wall = float("inf")
    cell_walls = {cell: float("inf") for cell in cells}
    events = 0
    instructions = 0
    memcached.reset_service_memo()
    memcached_native.reset_served()
    for _ in range(max(1, repeats)):
        total = 0.0
        with simkernel.collect_stats() as stats:
            for cell in cells:
                took = runner._execute_cell(name, cell, params)[3]
                total += took
                cell_walls[cell] = min(cell_walls[cell], took)
        wall = min(wall, total)
        events = stats.events_fired
        instructions = stats.instructions
    entry: dict[str, Any] = {
        "cells": len(cells),
        "wall_s": round(wall, 4),
        "cell_wall_s": {cell: round(took, 4)
                        for cell, took in cell_walls.items()},
        "events": events,
        "events_per_s": round(events / wall) if wall else 0,
        "instructions": instructions,
        "instructions_per_s": (round(instructions / wall)
                               if wall else 0),
    }
    backends = memcached_native.served()
    if backends:
        entry["queue_backend"] = backends
    return entry


def bench_section(names: Iterable[str], smoke: bool,
                  repeats: int = 3) -> dict[str, Any]:
    """One parameter section (smoke or full) of the bench document."""
    experiments: dict[str, Any] = {}
    for name in sorted(dict.fromkeys(names)):
        params = registry.get(name).resolve(smoke=smoke)
        experiments[name] = _time_cells(name, params, repeats)
    total = sum(entry["wall_s"] for entry in experiments.values())
    return {"experiments": experiments,
            "totals": {"wall_s": round(total, 4)}}


def bench_document(names: Optional[Iterable[str]] = None,
                   sections: Iterable[str] = ("smoke", "full"),
                   repeats: int = 3) -> dict[str, Any]:
    """The full ``repro-bench/3`` document."""
    registry.ensure_loaded()
    names = sorted(names or registry.names())
    doc: dict[str, Any] = {
        "schema": SCHEMA,
        "kernel_version": simkernel.KERNEL_VERSION,
        "repeats": repeats,
        "python": ".".join(str(part) for part in sys.version_info[:3]),
        "sections": {},
    }
    for section in sections:
        if section not in ("smoke", "full"):
            raise ValueError(f"unknown bench section {section!r}")
        doc["sections"][section] = bench_section(
            names, smoke=(section == "smoke"), repeats=repeats)
    return doc


def compare(current: Mapping[str, Any], baseline: Mapping[str, Any],
            threshold: float = DEFAULT_THRESHOLD) -> list[dict[str, Any]]:
    """Wall-clock regressions of ``current`` versus ``baseline``.

    Compares every (section, experiment) present in both documents; an
    entry regresses when its wall clock exceeds the baseline's by more
    than ``threshold`` (a fraction) *and* by at least
    :data:`MIN_REGRESSION_DELTA_S` in absolute terms.  Entries where
    both walls are under :data:`MIN_COMPARE_WALL_S` are skipped as
    noise.  Returns the regressions sorted worst-first.
    """
    regressions: list[dict[str, Any]] = []
    base_sections = baseline.get("sections", {})
    for section, payload in current.get("sections", {}).items():
        base_experiments = base_sections.get(section, {}).get(
            "experiments", {})
        for name, entry in payload.get("experiments", {}).items():
            base_entry = base_experiments.get(name)
            if base_entry is None:
                continue
            wall = float(entry.get("wall_s", 0.0))
            base_wall = float(base_entry.get("wall_s", 0.0))
            if base_wall <= 0.0:
                continue
            if (wall < MIN_COMPARE_WALL_S
                    and base_wall < MIN_COMPARE_WALL_S):
                continue
            if wall - base_wall < MIN_REGRESSION_DELTA_S:
                continue
            ratio = wall / base_wall
            if ratio > 1.0 + threshold:
                regressions.append({
                    "section": section,
                    "experiment": name,
                    "wall_s": wall,
                    "baseline_wall_s": base_wall,
                    "ratio": round(ratio, 3),
                })
    return sorted(regressions, key=lambda r: -float(r["ratio"]))


def render(doc: Mapping[str, Any]) -> str:
    """Human-readable summary of a bench document."""
    lines: list[str] = []
    for section, payload in doc.get("sections", {}).items():
        lines.append(f"[{section}]")
        lines.append(f"  {'experiment':<18} {'cells':>5} {'wall_s':>9} "
                     f"{'events/s':>12} {'instr/s':>12}  queue backend")
        for name, entry in sorted(payload["experiments"].items()):
            backends = ", ".join(
                f"{label} x{runs}" for label, runs in
                sorted(entry.get("queue_backend", {}).items()))
            lines.append(
                f"  {name:<18} {entry['cells']:>5} "
                f"{entry['wall_s']:>9.4f} "
                f"{entry.get('events_per_s', 0):>12,} "
                f"{entry.get('instructions_per_s', 0):>12,}"
                + (f"  {backends}" if backends else "")
            )
        lines.append(f"  total: {payload['totals']['wall_s']:.2f}s")
    return "\n".join(lines)
