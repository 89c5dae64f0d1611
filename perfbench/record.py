"""Record the result digests that ``run.py`` checks every iteration against.

::

    python3 perfbench/record.py

Run from the root of a source checkout whose simulated results are
known good.  For each experiment seed below ``RECORDED_SEEDS`` it
computes the three workloads' result
documents in this process, the same experiments with the same
parameters as the benchmark's iterations, and writes the digests of
their ``experiments`` sections to ``perfbench/digests.json``.  Rerun it
only when a change is meant to alter simulated results, and say so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (sibling module)


def digests_for(seed: int) -> dict[str, str]:
    from repro.exp import registry, runner

    def experiments(names, overrides):
        report = runner.run_experiments(names, overrides=overrides,
                                        jobs=bench.DOCUMENT_JOBS,
                                        cache=None)
        return json.loads(report.to_json())["experiments"]

    # The CLI passes its whole flag namespace as overrides.
    document = experiments(registry.names(),
                           {"seed": seed, "iterations": None,
                            "depth": None, "cost_model": None})
    memcached = experiments(["fig8"], {"seed": seed,
                                       "requests": bench.MEMCACHED_REQUESTS})
    return {
        "exit-path": bench.digest_of(
            {name: document[name] for name in bench.EXIT_PATH}),
        "memcached-etc": bench.digest_of(memcached),
        "document": bench.digest_of(document),
    }


def main() -> int:
    table: dict[str, dict[str, str]] = {name: {}
                                        for name in bench.WORKLOADS}
    for seed in range(bench.RECORDED_SEEDS):
        for workload, digest in digests_for(seed).items():
            table[workload][str(seed)] = digest
    doc = {
        "about": "sha256 of each workload's result-document experiments "
                 "section, by seed; written by perfbench/record.py",
        "digests": table,
    }
    bench.DIGEST_FILE.write_text(json.dumps(doc, indent=1,
                                            sort_keys=True) + "\n")
    print(f"recorded {bench.RECORDED_SEEDS} seeds -> {bench.DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
