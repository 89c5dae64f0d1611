"""On-disk result cache under ``results/cache/``.

``python -m repro all`` re-runs only what changed: a cached result is
reused when the *key* matches, and the key folds in everything a result
depends on —

* the experiment name,
* the resolved parameters (canonical JSON),
* the cost-model fingerprint (any change to a default timing constant
  invalidates every cached result), plus the ``model_id`` and constants
  digest of the model the run actually prices under (the
  ``cost_model`` parameter resolved through
  :mod:`repro.cpu.costmodels`),
* the code fingerprint (a content hash over every ``repro`` source
  module — edit any simulator file and the cache misses),
* the engine generation (:data:`repro.sim.kernel.KERNEL_VERSION`) —
  results computed by an older engine can never be served after an
  engine change.

Entries are one JSON file per (experiment, key) holding the serialized
:class:`~repro.exp.result.Result` plus the key material for debugging.
Corrupt or stale-schema entries read as misses.

A run computes each experiment's key once (:meth:`ResultCache.key`) and
hands it to :meth:`~ResultCache.load` and :meth:`~ResultCache.store`;
each cache digests a cost model's constants once, however many keys
fold them in.

"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path
from typing import Any, Mapping, Optional, Union

from repro.cpu import costmodels
from repro.cpu.costs import CostModel
from repro.exp.result import Result, canonical_json
from repro.sim.kernel import KERNEL_VERSION

SCHEMA = "repro-cache/1"


def default_cache_dir() -> Path:
    """``<repo>/results/cache`` next to the installed package."""
    import repro

    return Path(repro.__file__).resolve().parents[2] / "results" / "cache"


def cost_model_fingerprint(model: Optional[CostModel] = None) -> str:
    """Digest of every timing constant of ``model`` (the registry's
    default when omitted).  ``model_id`` is a field, so two models with
    identical constants but different names fingerprint apart."""
    return costmodels.fingerprint(costmodels.resolve(model))


def registry_fingerprint() -> str:
    """Digest over *every* registered model — any constant of any
    model, or the registered set itself, changing invalidates keys
    that fold this in."""
    doc = {name: dataclasses.asdict(costmodels.get_model(name))
           for name in costmodels.model_names()}
    payload = json.dumps(doc, sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """Content hash over every ``repro`` source file (path + bytes)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class ResultCache:
    """Content-addressed result store."""

    def __init__(self, root: Union[str, Path, None] = None,
                 cost_fingerprint: Optional[str] = None,
                 code_version: Optional[str] = None) -> None:
        self.root = Path(root) if root else default_cache_dir()
        #: (model, fingerprint) for each model this cache has keyed.
        self._model_fps: list[tuple[CostModel, str]] = []
        self._cost_fp = cost_fingerprint or \
            self._model_fingerprint(costmodels.resolve(None))
        self._code_fp = code_version or code_fingerprint()

    # -- keys ------------------------------------------------------------

    def _model_fingerprint(self, model: CostModel) -> str:
        """:func:`cost_model_fingerprint` of ``model``, computed once
        per model this cache sees (models are frozen)."""
        for seen, fingerprint in self._model_fps:
            if seen is model:
                return fingerprint
        fingerprint = cost_model_fingerprint(model)
        self._model_fps.append((model, fingerprint))
        return fingerprint

    def key(self, name: str, params: Mapping[str, Any]) -> str:
        model = costmodels.resolve(params.get("cost_model"))
        material = json.dumps(
            {
                "experiment": name,
                "params": dict(params),
                "cost_model": self._cost_fp,
                # The model the run actually prices under: its stable
                # id plus a digest of its constants, so renaming a
                # model and perturbing one both miss.
                "cost_model_id": model.model_id,
                "cost_model_fp": self._model_fingerprint(model),
                "code": self._code_fp,
                "kernel": KERNEL_VERSION,
            },
            sort_keys=True,
        ).encode()
        return hashlib.sha256(material).hexdigest()[:24]

    def path_for(self, name: str, key: str) -> Path:
        return self.root / f"{name}-{key}.json"

    # -- access ----------------------------------------------------------

    def load(self, name: str, params: Mapping[str, Any],
             key: Optional[str] = None) -> Optional[Result]:
        """Cached :class:`Result` for this key, or ``None`` on a miss.

        ``key`` is :meth:`key` of ``(name, params)`` when the caller
        already has it."""
        key = key or self.key(name, params)
        try:
            doc = json.loads(self.path_for(name, key).read_text())
        except (OSError, ValueError):
            return None
        if doc.get("schema") != SCHEMA or doc.get("key") != key:
            return None
        try:
            return Result.from_dict(doc["result"])
        except Exception:
            return None

    def store(self, name: str, params: Mapping[str, Any],
              result: Result, key: Optional[str] = None) -> Path:
        """Write one entry; returns its path.  ``key`` as for
        :meth:`load`."""
        key = key or self.key(name, params)
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.path_for(name, key)
        doc = {
            "schema": SCHEMA,
            "experiment": name,
            "key": key,
            "params": dict(params),
            "cost_model_id":
                costmodels.resolve(params.get("cost_model")).model_id,
            "cost_model_fingerprint": self._cost_fp,
            "code_fingerprint": self._code_fp,
            "kernel": KERNEL_VERSION,
            "result": result.to_dict(),
        }
        path.write_text(canonical_json(doc))
        return path

    def clear(self, name: Optional[str] = None) -> int:
        """Drop every entry (or just one experiment's)."""
        if not self.root.is_dir():
            return 0
        pattern = f"{name}-*.json" if name else "*.json"
        removed = 0
        for path in self.root.glob(pattern):
            path.unlink()
            removed += 1
        return removed
