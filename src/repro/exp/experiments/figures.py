"""The paper's figures as registered experiments (Figs. 6-10).

Each experiment splits into independent cells — one per (mode, bar,
sweep-point) — so the runner can fan them out across processes; merges
are pure functions of the payloads, presented in declared cell order.
"""

from __future__ import annotations

from typing import Any

from repro.core.mode import ExecutionMode
from repro.exp.registry import Experiment, register
from repro.exp.result import Result, Row, Series, Table

_SVT_MODES = (ExecutionMode.BASELINE, ExecutionMode.SW_SVT)


@register
class Fig6Cpuid(Experiment):
    """Figure 6: cpuid execution time across the five systems."""

    name = "fig6"
    title = "Figure 6: cpuid execution time"
    description = "nested cpuid latency: L0/L1/L2 vs SW/HW SVt"
    defaults = {"iterations": 50}
    smoke = {"iterations": 10}
    lazy_imports = ("repro.workloads.cpuid",)

    #: Bar label -> how to run it (level for single-level, else mode).
    BARS = (
        ("L0", {"level": 0}),
        ("L1", {"level": 1}),
        ("L2", {"mode": ExecutionMode.BASELINE}),
        ("SW SVt", {"mode": ExecutionMode.SW_SVT}),
        ("HW SVt", {"mode": ExecutionMode.HW_SVT}),
    )

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(label for label, _ in self.BARS)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import cpuid

        spec = dict(self.BARS)[cell]
        if "level" in spec:
            result = cpuid.run(level=spec["level"],
                               iterations=params["iterations"])
        else:
            result = cpuid.run(spec["mode"],
                               iterations=params["iterations"])
        return result.us_per_op

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        l2 = payloads["L2"]
        scalars = {
            "l0_us": payloads["L0"],
            "l1_us": payloads["L1"],
            "l2_us": payloads["L2"],
            "sw_svt_us": payloads["SW SVt"],
            "hw_svt_us": payloads["HW SVt"],
            "sw_speedup": l2 / payloads["SW SVt"],
            "hw_speedup": l2 / payloads["HW SVt"],
            "nested_overhead_vs_l0": l2 / payloads["L0"],
        }
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 6: cpuid execution time "
                      "(paper: SW 1.23x, HW 1.94x)",
                columns=("System", "Time (us)"),
                rows=[Row(label, (round(payloads[label], 2),))
                      for label, _ in self.BARS],
                kind="bars",
                unit=" us",
            )],
            scalars=scalars,
            paper={"l2_us": 10.40, "sw_speedup": 1.23,
                   "hw_speedup": 1.94, "l0_us": 0.05},
        )


#: Figure 7 metric table: key -> (label, runner kwargs, higher-is-better,
#: paper (base, sw, hw)).
FIG7_METRICS = {
    "net_latency": (
        "Network latency (us)", "net_latency", False,
        (163.0, 1.10, 2.38),
    ),
    "net_bandwidth": (
        "Network bandwidth (Mbps)", "net_bandwidth", True,
        (9387.0, 1.00, 1.12),
    ),
    "disk_randrd_latency": (
        "Disk randrd latency (us)", "disk_rd_latency", False,
        (126.0, 1.30, 2.18),
    ),
    "disk_randwr_latency": (
        "Disk randwr latency (us)", "disk_wr_latency", False,
        (179.0, 1.05, 2.26),
    ),
    "disk_randrd_bandwidth": (
        "Disk randrd bandwidth (KB/s)", "disk_rd_bandwidth", True,
        (87_136.0, 1.55, 2.31),
    ),
    "disk_randwr_bandwidth": (
        "Disk randwr bandwidth (KB/s)", "disk_wr_bandwidth", True,
        (55_769.0, 1.18, 2.60),
    ),
}


@register
class Fig7Subsystems(Experiment):
    """Figure 7: I/O subsystem latency/bandwidth, 18 independent cells."""

    name = "fig7"
    title = "Figure 7: I/O subsystems"
    description = "netperf + ioping/fio latency and bandwidth speedups"
    defaults = {"net_operations": 12, "disk_operations": 10}
    smoke = {"net_operations": 6, "disk_operations": 5}
    lazy_imports = ("repro.workloads.disk", "repro.workloads.netperf")

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(
            f"{metric}:{mode}"
            for metric in FIG7_METRICS
            for mode in ExecutionMode.ALL
        )

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import disk, netperf

        metric, mode = cell.split(":")
        kind = FIG7_METRICS[metric][1]
        if kind == "net_latency":
            return netperf.run_latency(
                mode, operations=params["net_operations"])
        if kind == "net_bandwidth":
            return netperf.run_bandwidth(mode)
        if kind == "disk_rd_latency":
            return disk.run_latency(
                mode, write=False, operations=params["disk_operations"])
        if kind == "disk_wr_latency":
            return disk.run_latency(
                mode, write=True, operations=params["disk_operations"])
        if kind == "disk_rd_bandwidth":
            return disk.run_bandwidth(mode, write=False)
        return disk.run_bandwidth(mode, write=True)

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        rows: list[Row] = []
        scalars: dict[str, Any] = {}
        paper: dict[str, Any] = {}
        for metric, (label, _kind, higher,
                     paper_vals) in FIG7_METRICS.items():
            base = payloads[f"{metric}:{ExecutionMode.BASELINE}"]
            sw_value = payloads[f"{metric}:{ExecutionMode.SW_SVT}"]
            hw_value = payloads[f"{metric}:{ExecutionMode.HW_SVT}"]
            if higher:
                sw, hw = sw_value / base, hw_value / base
            else:
                sw, hw = base / sw_value, base / hw_value
            paper_base, paper_sw, paper_hw = paper_vals
            rows.append(Row(
                label,
                (f"{base:.0f}", f"{sw:.2f}x", f"{hw:.2f}x"),
                paper=f"{paper_base:g} / {paper_sw:.2f} / {paper_hw:.2f}",
            ))
            scalars[f"{metric}_base"] = base
            scalars[f"{metric}_sw_speedup"] = sw
            scalars[f"{metric}_hw_speedup"] = hw
            paper[f"{metric}_base"] = paper_base
            paper[f"{metric}_sw_speedup"] = paper_sw
            paper[f"{metric}_hw_speedup"] = paper_hw
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 7: I/O subsystems",
                columns=("Metric", "Baseline", "SW SVt", "HW SVt"),
                rows=rows,
            )],
            scalars=scalars,
            paper=paper,
        )


@register
class Fig8Memcached(Experiment):
    """Figure 8: memcached latency vs offered load, baseline vs SVt."""

    name = "fig8"
    title = "Figure 8: memcached latency vs load"
    description = "ETC workload sweep: avg/p99 latency against the SLA"
    defaults = {"seed": 7, "requests": 30_000}
    smoke = {"requests": 5_000}
    lazy_imports = ("repro.workloads.memcached",)

    SLA_US = 500.0

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return _SVT_MODES

    def warm(self) -> None:
        """Also probe the native queue loop (build check, load and
        self-check) once, so forked workers inherit the checked library,
        or the reason it is unavailable."""
        super().warm()
        from repro.workloads import memcached_native

        memcached_native.library()

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import memcached

        result = memcached.run(cell, seed=params["seed"],
                               requests=params["requests"])
        return {
            "service_get_us": result.service_get_us,
            "service_set_us": result.service_set_us,
            "points": [[p.offered_kqps, p.avg_us, p.p99_us]
                       for p in result.points],
        }

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        base = payloads[ExecutionMode.BASELINE]
        svt = payloads[ExecutionMode.SW_SVT]
        p99_ratios = [
            bp[2] / sp[2]
            for bp, sp in zip(base["points"], svt["points"])
            if bp[2] <= self.SLA_US
        ]
        p99 = max(p99_ratios) if p99_ratios else 0.0
        avg = (base["points"][0][1] / svt["points"][0][1]
               if base["points"] and svt["points"] else 0.0)

        def max_in_sla(points: list[Any]) -> float:
            ok = [kqps for kqps, _avg, p99_us in points
                  if p99_us <= self.SLA_US]
            return max(ok) if ok else 0.0

        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 8: memcached latency (us) vs load, "
                      "SLA 500 us",
                columns=("kQPS", "base avg", "base p99", "SVt avg",
                         "SVt p99"),
                rows=[
                    Row(f"{bp[0]:.1f}",
                        (f"{bp[1]:.0f}", f"{bp[2]:.0f}",
                         f"{sp[1]:.0f}", f"{sp[2]:.0f}"))
                    for bp, sp in zip(base["points"], svt["points"])
                ],
            )],
            series=[
                Series("baseline p99",
                       [(p[0], p[2]) for p in base["points"]]),
                Series("SVt p99",
                       [(p[0], p[2]) for p in svt["points"]]),
            ],
            scalars={
                "p99_improvement": p99,
                "avg_improvement": avg,
                "base_max_kqps_in_sla": max_in_sla(base["points"]),
                "svt_max_kqps_in_sla": max_in_sla(svt["points"]),
                "base_service_get_us": base["service_get_us"],
                "svt_service_get_us": svt["service_get_us"],
            },
            paper={"p99_improvement": 2.20, "avg_improvement": 1.43,
                   "sla_us": self.SLA_US},
            notes=(
                f"p99 within SLA: {p99:.2f}x (paper 2.20x); "
                f"avg: {avg:.2f}x (paper 1.43x)",
            ),
            meta={
                "plot_title": "p99 latency vs offered load "
                              "(clamped at 1000 us)",
                "y_ceiling": 1000,
                "x_label": "kQPS",
                "y_label": " us",
            },
        )


@register
class Fig9Tpcc(Experiment):
    """Figure 9: TPC-C throughput, baseline vs SVt."""

    name = "fig9"
    title = "Figure 9: TPC-C"
    description = "TPC-C/PostgreSQL transactions per minute"
    defaults = {"transactions": 3}
    smoke = {"transactions": 2}
    lazy_imports = ("repro.workloads.tpcc",)

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return _SVT_MODES

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import tpcc

        result = tpcc.run(cell, transactions=params["transactions"])
        return {"ktpm": result.ktpm, "txn_ms": result.txn_ms}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        base = payloads[ExecutionMode.BASELINE]["ktpm"]
        svt = payloads[ExecutionMode.SW_SVT]["ktpm"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 9: TPC-C (paper: 6.37 ktpm, 1.18x)",
                columns=("System", "ktpm", "Speedup"),
                rows=[
                    Row("Baseline", (f"{base:.2f}", "1.00x")),
                    Row("SVt", (f"{svt:.2f}", f"{svt / base:.2f}x")),
                ],
            )],
            scalars={"baseline_ktpm": base, "svt_ktpm": svt,
                     "speedup": svt / base},
            paper={"baseline_ktpm": 6.37, "speedup": 1.18},
        )


@register
class Fig10Video(Experiment):
    """Figure 10: dropped frames over five minutes of playback."""

    name = "fig10"
    title = "Figure 10: dropped frames"
    description = "soft-realtime video playback drop counts"
    defaults = {"seed": 7}
    lazy_imports = ("repro.workloads.video",)

    FPS = (24, 60, 120)

    def cells(self, params: dict[str, Any]) -> tuple[str, ...]:
        return tuple(f"{fps}:{mode}"
                     for fps in self.FPS for mode in _SVT_MODES)

    def run_cell(self, cell: str, params: dict[str, Any]) -> Any:
        from repro.workloads import video

        fps, mode = cell.split(":")
        result = video.run(mode, fps=int(fps), seed=params["seed"])
        return {"dropped": result.dropped, "frames": result.frames,
                "burst_us": result.burst_us}

    def merge(self, params: dict[str, Any],
              payloads: dict[str, Any]) -> Result:
        from repro.workloads import video

        rows: list[Row] = []
        scalars: dict[str, Any] = {}
        for fps in self.FPS:
            base = payloads[f"{fps}:{ExecutionMode.BASELINE}"]
            svt = payloads[f"{fps}:{ExecutionMode.SW_SVT}"]
            rows.append(Row(
                f"{fps} FPS",
                (str(base["dropped"]), str(svt["dropped"])),
                paper=f"{video.PAPER[fps]['baseline']}"
                      f"/{video.PAPER[fps]['svt']}",
            ))
            scalars[f"dropped_{fps}_baseline"] = base["dropped"]
            scalars[f"dropped_{fps}_svt"] = svt["dropped"]
        return Result.create(
            experiment=self.name,
            params=params,
            tables=[Table(
                title="Figure 10: dropped frames over 5 min",
                columns=("Rate", "Baseline drops", "SVt drops"),
                rows=rows,
            )],
            scalars=scalars,
            paper={
                f"dropped_{fps}_{system}": video.PAPER[fps][system]
                for fps in self.FPS
                for system in ("baseline", "svt")
            },
        )
