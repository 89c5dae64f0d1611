"""Command-line interface: reproduce any paper experiment directly.

Every experiment comes from the registry (``repro.exp``), so ``all``,
``list``, the JSON output and the cache cover exactly the registered
set — nothing can be silently dropped.

::

    python -m repro list              # every registered experiment
    python -m repro table1            # Table 1 breakdown
    python -m repro fig6              # cpuid bars
    python -m repro fig8 --seed 11    # memcached sweep
    python -m repro fig7 --json       # structured result on stdout
    python -m repro all --jobs 4      # everything, fanned out over 4 procs
    python -m repro all --json --jobs 4 --no-cache
    python -m repro smoke             # runtime baseline -> results/
    python -m repro lint              # svtlint invariant checker
    python -m repro run cpuid --mode baseline --trace out.json
    python -m repro run cpuid --profile        # cProfile a single cell
    python -m repro table1 --metrics metrics.json
    python -m repro bench --smoke     # perf harness -> BENCH_sim.json

Results are cached under ``results/cache/`` keyed by (experiment,
params, cost-model fingerprint, code version); ``--no-cache`` forces
recomputation, and any edit to the simulator or cost model invalidates
automatically.
"""

import argparse
import sys
from pathlib import Path

from repro.exp import registry, runner
from repro.exp.cache import ResultCache, default_cache_dir
from repro.exp.result import canonical_json


def jobs_count(text):
    """``--jobs`` value: a worker count of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be at least 1, got {value}")
    return value


def build_parser():
    registry.ensure_loaded()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce experiments from 'Using SMT to Accelerate "
                    "Nested Virtualization' (ISCA'19)",
    )
    parser.add_argument("experiment",
                        choices=registry.names() + ["all", "list",
                                                    "smoke", "lint"],
                        help="which table/figure to regenerate, 'all' "
                             "for every registered experiment, 'list' "
                             "to enumerate them, 'smoke' for a fast "
                             "runtime baseline, 'lint' for the svtlint "
                             "invariant checker")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload RNG seed (default 7)")
    parser.add_argument("--iterations", type=int, default=None,
                        help="microbenchmark iterations (default: "
                             "per-experiment)")
    parser.add_argument("--depth", type=int, default=None,
                        help="max nesting depth for 'deep' (default 5)")
    parser.add_argument("--json", action="store_true",
                        help="emit structured results as canonical JSON")
    parser.add_argument("--jobs", type=jobs_count, default=1,
                        metavar="N",
                        help="fan independent cells out over N worker "
                             "processes (default 1; output is "
                             "byte-identical at any N)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and don't write the result cache")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="result cache location (default "
                             "results/cache/)")
    parser.add_argument("--out", type=Path, default=None,
                        help="for 'smoke': output path (default "
                             "results/runtime_smoke.json)")
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="PATH",
                        help="capture per-cell observability metrics and "
                             "write the merged repro-metrics/1 document "
                             "to PATH (disables the result cache for "
                             "this invocation)")
    return parser


def _cmd_list():
    from repro.analysis.report import format_table

    rows = [
        (experiment.name, experiment.title, experiment.description)
        for experiment in registry.experiments()
    ]
    print(format_table(["Name", "Title", "Description"], rows,
                       title="Registered experiments"))
    return 0


def _cmd_smoke(args):
    doc = runner.runtime_smoke(jobs=args.jobs if args.jobs > 1 else 4)
    out = args.out or default_cache_dir().parent / "runtime_smoke.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(doc))
    totals = doc["totals"]
    print(f"runtime smoke: serial {totals['serial_wall_s']:.2f}s, "
          f"--jobs {doc['jobs']} {totals['parallel_wall_s']:.2f}s "
          f"({totals['speedup']:.2f}x) -> {out}")
    return 0


def build_run_parser():
    parser = argparse.ArgumentParser(
        prog="repro run",
        description="Run one workload with observability on and export "
                    "trace/metrics artifacts",
    )
    parser.add_argument("workload", choices=["cpuid"],
                        help="workload to run (cpuid: the Table 1 / "
                             "Fig. 6 microbenchmark)")
    parser.add_argument("--mode", default="baseline",
                        choices=["baseline", "sw_svt", "hw_svt"],
                        help="execution mode (default baseline)")
    parser.add_argument("--level", type=int, default=2,
                        choices=[0, 1, 2],
                        help="virtualization level to run at (default 2)")
    parser.add_argument("--iterations", type=int, default=50,
                        help="measured iterations (default 50; one "
                             "warm-up iteration is added)")
    parser.add_argument("--trace", type=Path, default=None,
                        metavar="PATH",
                        help="write a Chrome trace_event JSON to PATH")
    parser.add_argument("--metrics", type=Path, default=None,
                        metavar="PATH",
                        help="write a repro-metrics/1 JSON dump to PATH")
    parser.add_argument("--no-breakdown", action="store_true",
                        help="skip the per-part breakdown table")
    parser.add_argument("--profile", action="store_true",
                        help="run the cell under cProfile and print the "
                             "top cumulative-time functions (perf PRs "
                             "start from this data)")
    parser.add_argument("--profile-top", type=int, default=20,
                        metavar="N",
                        help="rows of the cProfile report (default 20)")
    parser.add_argument("--profile-out", type=Path, default=None,
                        metavar="PATH",
                        help="also dump raw pstats data to PATH "
                             "(inspect with `python -m pstats`)")
    return parser


def _cmd_run(argv):
    """``repro run``: one traced workload on one machine.

    Unlike the experiment path (statistics over many cells), this drives
    a single :class:`~repro.core.system.Machine` with a live observer
    and exports the raw telemetry: a Chrome ``trace_event`` file
    (``--trace``, loadable in Perfetto), a flat metrics dump
    (``--metrics``), and the Table-1 part breakdown recovered *from the
    trace itself* — the cross-check that charge spans partition the
    simulated time exactly as the tracer accounts it.
    """
    args = build_run_parser().parse_args(argv)

    from repro.core.mode import ExecutionMode
    from repro.core.system import Machine
    from repro.cpu import isa
    from repro.obs import (
        Observer,
        render_breakdown,
        trace_breakdown,
        write_chrome_trace,
        write_metrics,
    )

    mode = ExecutionMode.validate(args.mode)
    observer = Observer()
    machine = Machine(mode=mode, observer=observer)
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    # One warm-up iteration, same protocol as repro.workloads.cpuid
    # (the first HW SVt resume differs slightly); it is traced too, and
    # the per-op breakdown divides by iterations + 1.
    machine.run_program(isa.Program([isa.cpuid()], repeat=1),
                        level=args.level)
    result = machine.run_program(
        isa.Program([isa.cpuid()], repeat=args.iterations),
        level=args.level,
    )
    if profiler is not None:
        import pstats

        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(args.profile_top)
        if args.profile_out is not None:
            args.profile_out.parent.mkdir(parents=True, exist_ok=True)
            profiler.dump_stats(args.profile_out)
            print(f"pstats dump -> {args.profile_out}")
    operations = args.iterations + 1
    print(f"cpuid mode={mode} L{args.level}: "
          f"{result.ns_per_instruction:.1f} ns/op "
          f"({args.iterations} iterations + 1 warm-up)")

    if args.trace is not None:
        doc = write_chrome_trace(args.trace, observer,
                                 process_name=f"repro-cpuid-{mode}")
        print(f"trace: {len(doc['traceEvents'])} events -> {args.trace}")
    if args.metrics is not None:
        write_metrics(
            args.metrics, [observer.metrics_snapshot()],
            meta={"workload": "cpuid", "mode": str(mode),
                  "level": args.level, "iterations": args.iterations},
        )
        print(f"metrics -> {args.metrics}")
    if not args.no_breakdown:
        rows = trace_breakdown(observer, operations=operations)
        print(render_breakdown(
            rows, title=f"Per-op breakdown from trace ({mode}, "
                        f"L{args.level})"))
    return 0


def _cmd_chaos(argv):
    """``repro chaos``: the fault-injection resilience matrix.

    A thin front-end over the registered ``chaos`` experiment with the
    chaos-specific flag namespace (``--rates``) and an artifact path:
    ``--out`` writes the canonical-JSON result document (the CI
    chaos-smoke job uploads it).  Output is byte-identical at any
    ``--jobs`` — every fault decision derives from ``--seed`` through
    per-site rng streams, never from scheduling.
    """
    parser = argparse.ArgumentParser(
        prog="repro chaos",
        description="Sweep fault rates across execution modes and "
                    "report the resilience matrix "
                    "(injected/recovered/degraded/deadlocked)",
    )
    parser.add_argument("--seed", type=int, default=2019,
                        help="fault-plan seed (default 2019)")
    parser.add_argument("--rates", default=None,
                        help="comma-separated per-event fault rates "
                             "(default '0.0,0.02,0.1,0.3')")
    parser.add_argument("--iterations", type=int, default=None,
                        help="nested cpuid iterations per cell "
                             "(default 30)")
    parser.add_argument("--jobs", type=jobs_count, default=1,
                        metavar="N",
                        help="worker processes (default 1; output is "
                             "byte-identical at any N)")
    parser.add_argument("--smoke", action="store_true",
                        help="fast parameters (CI chaos-smoke job)")
    parser.add_argument("--json", action="store_true",
                        help="emit the result document on stdout")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write the canonical-JSON resilience "
                             "matrix to PATH")
    args = parser.parse_args(argv)

    registry.ensure_loaded()
    overrides = {"seed": args.seed, "rates": args.rates,
                 "iterations": args.iterations}
    report = runner.run_experiments(["chaos"], overrides=overrides,
                                    jobs=args.jobs, cache=None,
                                    smoke=args.smoke)
    run = report.runs[0]
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(run.result.to_json())
        print(f"resilience matrix -> {args.out}", file=sys.stderr)
    if args.json:
        sys.stdout.write(report.to_json())
        return 0

    from repro.analysis.report import render_result

    print(render_result(run.result))
    unresolved = run.result.scalars_dict.get("unresolved_total", 0)
    if unresolved:
        print(f"chaos: {unresolved} injected fault(s) neither recovered "
              "nor accounted as degraded/deadlocked", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(argv):
    """``repro bench``: the wall-clock perf-regression harness.

    Times registered experiments (min-of-N wall clock, events/sec,
    instructions/sec, and the backend that served each ETC queue run),
    writes the ``repro-bench/3`` document to ``BENCH_sim.json`` at the
    repo root, and compares against a committed baseline; ``--check``
    turns a regression beyond ``--threshold``, or a baseline of another
    schema, into a nonzero exit (the CI bench-smoke gate).
    """
    import json

    from repro.exp import bench

    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time registered experiments and track the perf "
                    "trajectory in BENCH_sim.json",
    )
    parser.add_argument("--smoke", action="store_true",
                        help="smoke parameters only (CI bench-smoke "
                             "job; default: smoke and full sections)")
    parser.add_argument("--full", action="store_true",
                        help="full parameters only")
    parser.add_argument("--experiments", default=None, metavar="A,B,C",
                        help="comma-separated subset (default: all "
                             "registered experiments)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timed repetitions per experiment; the "
                             "minimum is reported (default 3)")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="output document (default BENCH_sim.json "
                             "at the repo root)")
    parser.add_argument("--baseline", type=Path, default=None,
                        metavar="PATH",
                        help="baseline to compare against (default: "
                             "the committed BENCH_sim.json)")
    parser.add_argument("--threshold", type=float,
                        default=bench.DEFAULT_THRESHOLD,
                        help="regression threshold as a fraction "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 when any experiment regresses "
                             "beyond the threshold")
    parser.add_argument("--json", action="store_true",
                        help="emit the document on stdout")
    args = parser.parse_args(argv)

    if args.smoke and args.full:
        sections = ("smoke", "full")
    elif args.smoke:
        sections = ("smoke",)
    elif args.full:
        sections = ("full",)
    else:
        sections = ("smoke", "full")
    names = (args.experiments.split(",") if args.experiments else None)

    baseline_path = args.baseline or bench.default_bench_path()
    baseline = None
    try:
        baseline = json.loads(baseline_path.read_text())
    except (OSError, ValueError):
        pass

    doc = bench.bench_document(names=names, sections=sections,
                               repeats=args.repeats)

    out = args.out or bench.default_bench_path()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(canonical_json(doc))

    if args.json:
        sys.stdout.write(canonical_json(doc))
    else:
        print(bench.render(doc))
        print(f"bench -> {out}")

    failed = False
    if baseline is not None and baseline.get("schema") != bench.SCHEMA:
        print(f"bench: baseline {baseline_path} has schema "
              f"{baseline.get('schema')!r}, not {bench.SCHEMA!r}; "
              "nothing comparable", file=sys.stderr)
        baseline = None
        failed = True
    if baseline is not None:
        regressions = bench.compare(doc, baseline,
                                    threshold=args.threshold)
        for reg in regressions:
            print(f"REGRESSION [{reg['section']}] {reg['experiment']}: "
                  f"{reg['wall_s']:.4f}s vs baseline "
                  f"{reg['baseline_wall_s']:.4f}s "
                  f"({reg['ratio']:.2f}x, threshold "
                  f"{1 + args.threshold:.2f}x)", file=sys.stderr)
        if regressions:
            failed = True
        else:
            print(f"no regressions vs {baseline_path} "
                  f"(threshold {args.threshold:.0%})", file=sys.stderr)
    elif args.check and not failed:
        print(f"bench --check: no baseline at {baseline_path}; "
              "nothing to compare", file=sys.stderr)
    if failed and args.check:
        return 1
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        # Dispatch before parsing: lint has its own flag namespace
        # (--format, --rules, paths) that the experiment parser must
        # not see.
        from repro.lint.cli import main as lint_main

        return lint_main(argv[1:])
    if argv[:1] == ["run"]:
        # Same pre-parse dispatch: 'run' drives one machine directly
        # and has its own flags (--mode, --trace, ...).
        return _cmd_run(argv[1:])
    if argv[:1] == ["chaos"]:
        # Same pattern: chaos adds --rates/--out on top of the
        # registered experiment.
        return _cmd_chaos(argv[1:])
    if argv[:1] == ["bench"]:
        # Same pattern: the perf harness has its own flag namespace.
        return _cmd_bench(argv[1:])
    if argv[:1] == ["fuzz"]:
        # Same pattern: the differential fuzz campaign has its own
        # flag namespace (--seed/--runs/--no-shrink/--corpus/...).
        from repro.fuzz.cli import main as fuzz_main

        return fuzz_main(argv[1:])
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        return _cmd_list()
    if args.experiment == "smoke":
        return _cmd_smoke(args)

    names = (registry.names() if args.experiment == "all"
             else [args.experiment])
    overrides = {"seed": args.seed, "iterations": args.iterations,
                 "depth": args.depth}
    collect_metrics = args.metrics is not None
    # Cached results carry no metrics; force recomputation when asked
    # for a metrics dump so every cell actually runs under capture.
    cache = (None if args.no_cache or collect_metrics
             else ResultCache(args.cache_dir))
    report = runner.run_experiments(names, overrides=overrides,
                                    jobs=args.jobs, cache=cache,
                                    collect_metrics=collect_metrics)

    if collect_metrics:
        args.metrics.parent.mkdir(parents=True, exist_ok=True)
        args.metrics.write_text(canonical_json(report.metrics_document()))
        print(f"metrics -> {args.metrics}", file=sys.stderr)
    if cache is not None:
        print(f"cache: served {len(report.served)}, "
              f"computed {len(report.computed)} "
              f"({cache.root})", file=sys.stderr)
    # Runtime-sanitizer verdict (REPRO_SIM_SANITIZE=1 runs only): the
    # reports ride on stderr and flip the exit code, never the result
    # document — byte-identity with the flag off is the contract.
    exit_code = 0
    from repro.sim import sanitizer as sim_sanitizer

    if sim_sanitizer.enabled():
        for line in report.sanitizer_reports:
            print(line, file=sys.stderr)
        if report.sanitizer_reports:
            print(f"sanitizer: {len(report.sanitizer_reports)} "
                  "conflicting unordered access(es)", file=sys.stderr)
            exit_code = 1
        else:
            print("sanitizer: no conflicting unordered accesses",
                  file=sys.stderr)
    if args.json:
        sys.stdout.write(report.to_json())
        return exit_code

    from repro.analysis.report import render_result

    for run in report.runs:
        if args.experiment == "all":
            cached = " (cached)" if run.cached else ""
            print(f"\n=== {run.name}{cached} "
                  + "=" * max(1, 68 - len(run.name) - len(cached)))
        print(render_result(run.result))
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
