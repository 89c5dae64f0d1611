"""The bench harness: document shape, regression compare, CLI."""

import json

from repro.exp import bench
from repro.exp.result import canonical_json


def _doc(wall_by_name, section="smoke"):
    return {
        "schema": bench.SCHEMA,
        "sections": {
            section: {
                "experiments": {
                    name: {"wall_s": wall}
                    for name, wall in wall_by_name.items()
                },
                "totals": {"wall_s": sum(wall_by_name.values())},
            },
        },
    }


# -- bench_section ---------------------------------------------------------


def test_bench_section_shape():
    section = bench.bench_section(["table1"], smoke=True, repeats=1)
    entry = section["experiments"]["table1"]
    assert entry["cells"] >= 1
    assert entry["wall_s"] > 0
    assert set(entry["cell_wall_s"]) and all(
        wall >= 0 for wall in entry["cell_wall_s"].values())
    assert entry["instructions"] > 0
    # table1 runs no ETC queue: no backend entry, never a zero count.
    assert "queue_backend" not in entry
    assert section["totals"]["wall_s"] > 0


def test_bench_section_records_queue_backend():
    from repro.workloads import memcached_native

    section = bench.bench_section(["fig8"], smoke=True, repeats=1)
    entry = section["experiments"]["fig8"]
    backend = memcached_native.label(*memcached_native.status())
    assert entry["queue_backend"] == {backend: 16}


def test_bench_document_is_json_serializable():
    doc = bench.bench_document(["table1"], sections=("smoke",),
                               repeats=1)
    assert doc["schema"] == bench.SCHEMA
    assert doc["kernel_version"]
    json.loads(canonical_json(doc))


# -- compare ---------------------------------------------------------------


def test_compare_flags_regressions_worst_first():
    baseline = _doc({"a": 1.0, "b": 1.0, "c": 1.0})
    current = _doc({"a": 1.5, "b": 1.1, "c": 2.0})
    regressions = bench.compare(current, baseline, threshold=0.25)
    assert [r["experiment"] for r in regressions] == ["c", "a"]
    assert regressions[0]["ratio"] == 2.0


def test_compare_respects_threshold():
    baseline = _doc({"a": 1.0})
    current = _doc({"a": 1.2})
    assert bench.compare(current, baseline, threshold=0.25) == []
    assert bench.compare(current, baseline, threshold=0.1)


def test_compare_ignores_new_and_missing_experiments():
    baseline = _doc({"a": 1.0, "gone": 1.0})
    current = _doc({"a": 1.0, "new": 50.0})
    assert bench.compare(current, baseline) == []


def test_compare_ignores_unknown_sections():
    baseline = _doc({"a": 1.0}, section="full")
    current = _doc({"a": 9.0}, section="smoke")
    assert bench.compare(current, baseline) == []


def test_render_mentions_walls_and_backends():
    section = {
        "experiments": {
            "fig8": {"cells": 2, "wall_s": 0.5, "events_per_s": 10,
                     "instructions_per_s": 1000,
                     "queue_backend": {"native": 16}},
            "table1": {"cells": 3, "wall_s": 0.25},
        },
        "totals": {"wall_s": 0.75},
    }
    text = bench.render({"sections": {"smoke": section}})
    assert "fig8" in text and "table1" in text
    assert "0.5000" in text
    assert "native x16" in text
    assert "total: 0.75s" in text


# -- CLI -------------------------------------------------------------------


def test_cli_bench_writes_document_and_checks_baseline(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "bench.json"
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == bench.SCHEMA
    assert "table1" in doc["sections"]["smoke"]["experiments"]

    # A fresh run against its own artifact as the baseline passes.
    # (Huge threshold: a repeats=1 milli-second cell under full-suite
    # load can jitter far past the default 25%; the flag is what is
    # under test here, not the machine's scheduler.)
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1",
                 "--baseline", str(out), "--out", str(out),
                 "--threshold", "100", "--check"])
    assert code == 0

    # An absurdly slow baseline-relative run fails --check.  fig7's
    # 18 smoke cells take a couple hundred milliseconds — comfortably
    # above compare()'s noise floor and absolute regression slack,
    # unlike table1's single cell.
    code = main(["bench", "--smoke", "--experiments", "fig7",
                 "--repeats", "1", "--out", str(out)])
    assert code == 0
    slow = json.loads(out.read_text())
    entry = slow["sections"]["smoke"]["experiments"]["fig7"]
    entry["wall_s"] = entry["wall_s"] / 1000.0
    baseline_path = tmp_path / "tiny.json"
    baseline_path.write_text(json.dumps(slow))
    code = main(["bench", "--smoke", "--experiments", "fig7",
                 "--repeats", "1",
                 "--baseline", str(baseline_path),
                 "--out", str(out), "--check"])
    assert code == 1
    captured = capsys.readouterr()
    assert "regression" in (captured.err + captured.out).lower()


def test_compare_skips_sub_noise_floor_entries():
    baseline = _doc({"tiny": 0.0004, "big": 1.0})
    current = _doc({"tiny": 0.004, "big": 2.0})   # tiny "10x slower"
    regressions = bench.compare(current, baseline)
    assert [r["experiment"] for r in regressions] == ["big"]


def test_compare_requires_absolute_regression_delta():
    # 75% relative excursion on a tens-of-milliseconds cell is
    # scheduler jitter, not a regression: the absolute delta (30 ms)
    # sits under MIN_REGRESSION_DELTA_S.
    baseline = _doc({"jittery": 0.040, "big": 1.0})
    current = _doc({"jittery": 0.070, "big": 1.3})
    regressions = bench.compare(current, baseline)
    assert [r["experiment"] for r in regressions] == ["big"]


def test_cli_bench_check_rejects_a_baseline_of_another_schema(
        tmp_path, capsys):
    from repro.cli import main

    old = tmp_path / "old.json"
    old.write_text(json.dumps({"schema": "repro-bench/2",
                               "sections": {}}))
    code = main(["bench", "--smoke", "--experiments", "table1",
                 "--repeats", "1", "--baseline", str(old),
                 "--out", str(tmp_path / "bench.json"), "--check"])
    assert code == 1
    assert "repro-bench/2" in capsys.readouterr().err
