"""Request model, shed tiers, and deterministic Retry-After arithmetic.

A :class:`ServeRequest` is the validated form of one ``POST
/v1/request`` body::

    {"kind": "experiment", "experiment": "table1",
     "params": {"cost_model": "fast-switch"}}

``kind`` selects the execution path — a registered experiment
(:func:`repro.exp.runner.run_experiments`) or a DSE sweep
(:func:`repro.exp.dse.build_document`).  Both are deterministic, so
one fingerprint always names the same bytes; wall-clock documents
such as ``repro bench``'s are not served.  Validation is strict:
unknown experiment names and parameter typos fail loudly with 400
(``Experiment.resolve(strict=True)``), never silently run defaults.

**Fingerprints.**  Every request has exactly one fingerprint, computed
through :meth:`repro.exp.cache.ResultCache.key` — the same key the CLI
path caches under, folding in the resolved parameters, the cost-model
fingerprint/id, the code fingerprint and the engine generation.  The
coalescer and the quarantine both key on it, so "identical request"
means identical *result bytes*, not identical wire bytes.

**Shed tiers.**  Under degradation the service sheds the expensive
tiers first: DSE before fresh experiment runs; cached
reads (tier 0) are never shed.  :data:`TIER_RANK` is the single
ordering both the service and the tests consult.

**Retry-After.**  Rejections must tell well-behaved clients when to
come back, and the hint must be deterministic (testable, replayable):
a pure function of the tier and the queue shape, never of wall time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.errors import ConfigError
from repro.exp import registry
from repro.exp.cache import ResultCache

#: Execution paths, cheapest-to-shed last.
KINDS = ("experiment", "dse")

#: Shed ordering: a request is shed when its rank >= the current shed
#: level.  Cached reads (rank 0) survive every level >= 1.
TIER_RANK = {"cached": 0, "experiment": 1, "dse": 2}

#: Retry-After base per tier, seconds.  Expensive tiers are told to
#: back off longer — they are also the first to be shed.
RETRY_AFTER_BASE_S = {"experiment": 1, "dse": 2}

#: Parameters accepted by the dse kind (everything else is a 400; the
#: experiment kind validates against the registry schema).
DSE_PARAMS = ("models", "scale_tenths", "mwait_wake", "stall_resume",
              "placements", "iterations")


def retry_after_s(kind: str, depth: int, capacity: int) -> int:
    """Deterministic Retry-After for one rejection.

    A pure function of the tier base and queue pressure: the base is
    scaled by how many full queues deep the backlog is.  At the moment
    of a 429 (``depth == capacity``) this is exactly the tier base,
    which is what the overload tests pin.
    """
    if capacity <= 0:
        raise ConfigError(f"capacity must be > 0: {capacity}")
    base = RETRY_AFTER_BASE_S[kind]
    pressure = max(1, -(-max(depth, 1) // capacity))   # ceil division
    return base * pressure


@dataclass(frozen=True)
class ServeRequest:
    """One validated request: what to run and under which parameters."""

    kind: str
    experiment: str = ""
    params: Tuple[Tuple[str, Any], ...] = field(default_factory=tuple)

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    @property
    def tier(self) -> int:
        return TIER_RANK[self.kind]

    @classmethod
    def parse(cls, doc: Mapping[str, Any]) -> "ServeRequest":
        """Validate one request body; raises ConfigError on any typo."""
        if not isinstance(doc, Mapping):
            raise ConfigError("request body must be a JSON object")
        kind = doc.get("kind", "experiment")
        if kind not in KINDS:
            raise ConfigError(
                f"unknown kind {kind!r}; known: {', '.join(KINDS)}")
        params = doc.get("params") or {}
        if not isinstance(params, Mapping):
            raise ConfigError("params must be a JSON object")
        name = doc.get("experiment", "")
        if kind == "experiment":
            if not name:
                raise ConfigError(
                    "experiment requests need an 'experiment' name")
            # Unknown names raise here; unknown params raise inside
            # resolve(strict=True).  The *resolved* params are stored,
            # so two spellings of the same run share one fingerprint.
            resolved = registry.get(name).resolve(params, strict=True)
            return cls(kind=kind, experiment=name,
                       params=tuple(sorted(resolved.items())))
        for key in params:
            if key not in DSE_PARAMS:
                raise ConfigError(
                    f"{kind} requests accept no parameter {key!r}")
        normalized = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in params.items()
        }
        return cls(kind=kind, experiment="",
                   params=tuple(sorted(normalized.items())))

    def fingerprint(self, cache: ResultCache) -> str:
        """The request's cache/coalesce key (see module docstring).

        The dse kind borrows the same key machinery under a reserved
        pseudo-name, so its coalescing still folds in the code
        fingerprint and engine generation.
        """
        name = self.experiment if self.kind == "experiment" \
            else f"__{self.kind}__"
        return cache.key(name, self.params_dict)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"kind": self.kind,
                               "params": self.params_dict}
        if self.experiment:
            doc["experiment"] = self.experiment
        return doc
