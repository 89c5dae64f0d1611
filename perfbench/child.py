"""One benchmark iteration in a fresh interpreter.

::

    python perfbench/child.py KIND --seed N --stats PATH [--trace] [-- ARGV]

``KIND`` is one of

* ``runner`` — run the experiments named by ``--names`` through
  ``repro.exp.runner.run_experiments`` serially with the result cache
  off, and write the result document to stdout;
* ``capture`` — the same with ``collect_metrics=True``; the metrics
  document goes into the stats file (the source of the L2 exit count);
* ``cli`` — call ``repro.cli.main(ARGV)`` in this process (every
  ``document`` iteration and its capture run; its pool workers are
  forked from here).

Stats go to ``--stats`` as one JSON object: ``ready`` (the
``time.monotonic()`` reading when set-up ended; the parent took its own
reading just before it started this process, and on Linux both read the
same system-wide clock), ``import_s``, ``compute_s`` (the run, including
writing the document), the active simulation kernel, and with
``--trace`` the tracer snapshot.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    # Taken before anything of the program is imported.
    import_started = time.perf_counter()
    import repro.cli  # noqa: F401  (the import a CLI user pays)
    import_s = time.perf_counter() - import_started

    from repro.exp import registry
    from repro.exp.cache import code_fingerprint, cost_model_fingerprint
    from repro.sim import kernel as simkernel

    registry.ensure_loaded()
    code_fingerprint()
    cost_model_fingerprint()
    ready = time.monotonic()

    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("kind",
                        choices=["runner", "capture", "cli"])
    parser.add_argument("--names", default="")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--requests", type=int, default=None)
    parser.add_argument("--stats", required=True)
    parser.add_argument("--trace", action="store_true")
    # Everything after "--" is the CLI's own argv (kind "cli").
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]

    stats = {"ready": ready, "import_s": import_s,
             "kernel": simkernel.active_kernel()}
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        # Forked pool workers run untraced: their spans could not be
        # collected here, and their wrappers would only add overhead.
        os.register_at_fork(after_in_child=tracer.uninstall)

    overrides = {"seed": args.seed}
    if args.requests is not None:
        overrides["requests"] = args.requests
    code = 0
    # The simulator's own event counter, summed over every simulator
    # built in the block; only the traced run pays for holding them.
    collecting = simkernel.collect_stats() if tracer is not None \
        else contextlib.nullcontext()
    with collecting as kstats:
        started = time.perf_counter()
        if args.kind == "cli":
            code = repro.cli.main(args.argv)
        else:
            from repro.exp import runner

            report = runner.run_experiments(
                args.names.split(","), overrides=overrides, jobs=1,
                cache=None, collect_metrics=args.kind == "capture")
            sys.stdout.write(report.to_json())
            sys.stdout.flush()
            if args.kind == "capture":
                stats["metrics"] = report.metrics_document()
        stats["compute_s"] = time.perf_counter() - started
        if kstats is not None:
            stats["events"] = kstats.events_fired
    if tracer is not None:
        tracer.uninstall()
        stats["trace"] = tracer.snapshot()
    _write(args.stats, stats)
    return code


def _write(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
