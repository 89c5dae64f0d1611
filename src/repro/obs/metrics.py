"""Counters and integer-nanosecond histograms with O(1) record.

The registry is label-aware in the Prometheus style::

    metrics.count("exits_total", reason="CPUID", level=2, mode="baseline")
    metrics.observe("switch_ns", 737, category="switch_l2_l0")

Recording is a single dict operation keyed by ``(name, sorted labels)``;
histograms use power-of-two buckets indexed by ``int.bit_length`` so an
observation is O(1) regardless of magnitude.  Snapshots are plain JSON
data with **deterministic ordering** — every mapping is emitted sorted —
so byte-identical runs produce byte-identical metric documents at any
``--jobs`` count.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

#: A metric key: name plus its sorted ``(label, value)`` pairs.
MetricKey = Tuple[str, Tuple[Tuple[str, Any], ...]]


def key_string(name: str, labels: Tuple[Tuple[str, Any], ...]) -> str:
    """Render ``name{a=1,b=x}`` (labels already sorted in the key)."""
    if not labels:
        return name
    body = ",".join(f"{label}={value}" for label, value in labels)
    return f"{name}{{{body}}}"


class Histogram:
    """Power-of-two bucketed integer histogram (nanosecond values)."""

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.vmin: Optional[int] = None
        self.vmax: Optional[int] = None
        self.buckets: Dict[int, int] = {}   # bit_length -> observations

    def add(self, value: int) -> None:
        if value < 0:
            raise ValueError(f"negative histogram observation {value}")
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value
        bucket = int(value).bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready dict; bucket keys are the inclusive upper bound
        (``2**bits - 1``) as strings, sorted numerically."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.vmin is not None else 0,
            "max": self.vmax if self.vmax is not None else 0,
            "buckets": {
                str((1 << bits) - 1): self.buckets[bits]
                for bits in sorted(self.buckets)
            },
        }


class MetricsRegistry:
    """Labelled counters + histograms with deterministic snapshots."""

    __slots__ = ("_counters", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[MetricKey, int] = {}
        self._histograms: Dict[MetricKey, Histogram] = {}

    # -- recording (hot path: one dict op) -------------------------------

    def count(self, name: str, n: int = 1, **labels: Any) -> None:
        key = (name, tuple(sorted(labels.items())))
        self._counters[key] = self._counters.get(key, 0) + n

    def observe(self, name: str, value: int, **labels: Any) -> None:
        key = (name, tuple(sorted(labels.items())))
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = self._histograms[key] = Histogram()
        histogram.add(value)

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str, **labels: Any) -> int:
        return self._counters.get(
            (name, tuple(sorted(labels.items()))), 0
        )

    def histogram(self, name: str, **labels: Any) -> Optional[Histogram]:
        return self._histograms.get(
            (name, tuple(sorted(labels.items())))
        )

    def counter_total(self, name: str) -> int:
        """Sum of a counter across all label combinations."""
        return sum(
            value for (counter, _labels), value in
            sorted(self._counters.items()) if counter == name
        )

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data view, every mapping sorted for determinism."""
        counters = {
            key_string(name, labels): value
            for (name, labels), value in sorted(self._counters.items())
        }
        histograms = {
            key_string(name, labels): histogram.snapshot()
            for (name, labels), histogram
            in sorted(self._histograms.items())
        }
        return {"counters": counters, "histograms": histograms}


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) \
        -> Dict[str, Any]:
    """Aggregate per-cell snapshots into one document.

    Counters and histogram counts/sums add; mins/maxes combine; buckets
    add bucket-wise.  The merge is order-independent, so the aggregate is
    identical whether cells ran serially or fanned out over a pool.
    """
    counters: Dict[str, int] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for key, value in snapshot.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
        for key, data in snapshot.get("histograms", {}).items():
            merged = histograms.get(key)
            if merged is None:
                histograms[key] = {
                    "count": data["count"], "sum": data["sum"],
                    "min": data["min"], "max": data["max"],
                    "buckets": dict(data["buckets"]),
                }
                continue
            merged["count"] += data["count"]
            merged["sum"] += data["sum"]
            merged["min"] = min(merged["min"], data["min"])
            merged["max"] = max(merged["max"], data["max"])
            for bucket, n in data["buckets"].items():
                merged["buckets"][bucket] = \
                    merged["buckets"].get(bucket, 0) + n
    return {
        "counters": dict(sorted(counters.items())),
        "histograms": {
            key: {
                "count": data["count"], "sum": data["sum"],
                "min": data["min"], "max": data["max"],
                "buckets": {
                    bucket: data["buckets"][bucket]
                    for bucket in sorted(data["buckets"], key=int)
                },
            }
            for key, data in sorted(histograms.items())
        },
    }


def flatten_metrics(snapshot: Dict[str, Any]) \
        -> List[Tuple[str, int]]:
    """Flatten a snapshot to sorted ``(key, int)`` pairs.

    Counters keep their key; histograms contribute ``key!count`` and
    ``key!sum`` (the scalar facts result consumers assert on).  The
    output is ready for :func:`repro.exp.result.freeze_mapping`.
    """
    flat: Dict[str, int] = {}
    for key, value in snapshot.get("counters", {}).items():
        flat[key] = value
    for key, data in snapshot.get("histograms", {}).items():
        flat[f"{key}!count"] = data["count"]
        flat[f"{key}!sum"] = data["sum"]
    return sorted(flat.items())
