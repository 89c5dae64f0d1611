"""fig8's native ETC queue loop: self-check, fallback and build cache.

The native loop serves only after it matches the reference loop bit
for bit; every way it can fail leaves the reference serving with the
reason recorded, and the build-cache name changes whenever anything the
shared object depends on changes.
"""

import math
import os

import pytest

from repro.obs.observer import capture_metrics
from repro.sim.rng import DeterministicRng
from repro.workloads import memcached, memcached_native


@pytest.fixture
def fresh_probe():
    """Re-probe around the test, so a monkeypatched probe never leaks."""
    memcached_native.reset_probe()
    memcached_native.reset_served()
    yield
    memcached_native.reset_probe()
    memcached_native.reset_served()


def _require_native():
    lib = memcached_native.library()
    if lib is None:
        pytest.skip(f"native backend unavailable: "
                    f"{memcached_native.status()[1]}")
    return lib


def test_native_backend_builds_and_passes_self_check(fresh_probe):
    """The container and CI images have a C compiler, so native must
    come up; a silent fallback would cost fig8 about 15x."""
    assert memcached_native.library() is not None
    assert memcached_native.status() == (memcached_native.NATIVE, None)


@pytest.mark.parametrize("requests", [1, 2, 100, 3000])
def test_native_matches_reference_bitwise(requests):
    lib = _require_native()
    cfg = memcached.EtcConfig()
    ref_rng = DeterministicRng(20190613)
    nat_rng = DeterministicRng(20190613)
    reference = memcached._queueing_run_reference(
        30_000.0, 52_000.0, 12.5, cfg, ref_rng, requests)
    native = memcached._queueing_run_native(
        lib, 30_000.0, 52_000.0, 12.5, cfg, nat_rng, requests)
    assert native == reference
    assert nat_rng.getstate() == ref_rng.getstate()


def test_native_run_resumes_reference_stream():
    """Draws after a native run continue the stream bit-for-bit."""
    lib = _require_native()
    cfg = memcached.EtcConfig()
    native = DeterministicRng(99)
    pure = DeterministicRng(99)
    memcached._queueing_run_native(lib, 30_000.0, 52_000.0, 17.5, cfg,
                                   native, 500)
    memcached._queueing_run_reference(30_000.0, 52_000.0, 17.5, cfg,
                                      pure, 500)
    assert [native.random() for _ in range(16)] \
        == [pure.random() for _ in range(16)]


def test_self_check_mismatch_serves_reference(fresh_probe, monkeypatch):
    """A library whose result differs from the reference by one ulp
    never serves: the reference does, and the reason is recorded."""
    replay = memcached_native.replay

    def off_by_one_ulp(*args, **kwargs):
        sojourns, lo, hi = replay(*args, **kwargs)
        sojourns[0] = math.nextafter(sojourns[0], math.inf)
        return sojourns, lo, hi

    monkeypatch.setattr(memcached_native, "replay", off_by_one_ulp)
    if memcached_native._compiler() is None:
        pytest.skip("no C compiler: the self-check never runs")
    cfg = memcached.EtcConfig()
    served = memcached._queueing_run(30_000.0, 52_000.0, 12.5, cfg,
                                     DeterministicRng(5), 2_000)
    reference = memcached._queueing_run_reference(
        30_000.0, 52_000.0, 12.5, cfg, DeterministicRng(5), 2_000)
    assert served == reference
    assert memcached_native.status() == (
        memcached_native.REFERENCE, memcached_native.SELF_CHECK_MISMATCH)
    assert memcached_native.served() == {
        "reference (self-check mismatch)": 1}


def test_no_compiler_leaves_library_unavailable(fresh_probe, monkeypatch,
                                                tmp_path):
    """Without a C compiler the probe builds nothing and reports why."""
    monkeypatch.setattr(memcached_native, "_compiler", lambda: None)
    monkeypatch.setenv(memcached_native.CACHE_ENV_VAR,
                       str(tmp_path / "cache"))
    assert memcached_native.library() is None
    assert memcached_native.status() == (
        memcached_native.REFERENCE, memcached_native.NO_COMPILER)
    assert memcached_native.served() == {}
    assert not (tmp_path / "cache").exists()


def test_failed_build_serves_reference(fresh_probe, monkeypatch,
                                       tmp_path):
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\nexit 1\n")
    broken.chmod(0o755)
    monkeypatch.setattr(memcached_native, "_compiler", lambda: str(broken))
    monkeypatch.setenv(memcached_native.CACHE_ENV_VAR,
                       str(tmp_path / "cache"))
    assert memcached_native.library() is None
    assert memcached_native.status() == (
        memcached_native.REFERENCE, memcached_native.BUILD_FAILED)
    assert not list((tmp_path / "cache").iterdir())


def test_backend_is_recorded_in_metrics_not_result(fresh_probe):
    """Each queue run counts against its serving backend in the obs
    metrics (tests/exp/test_backend_differential.py shows the Result
    bytes do not depend on it)."""
    with capture_metrics() as observer:
        memcached.run(loads_kqps=[5.0, 10.0], requests=500)
    snapshot = observer.metrics_snapshot()
    backend = memcached_native.label(*memcached_native.status())
    key = f"memcached_queue_runs_total{{backend={backend}}}"
    assert snapshot["counters"][key] == 2


def test_artifact_name_hashes_every_input(tmp_path):
    """Source, compiler identity (path, size, mtime), flags and
    architecture each change the shared object's cache name."""
    cc = tmp_path / "cc"
    cc.write_bytes(b"#!/bin/sh\n")
    other = tmp_path / "cc2"
    other.write_bytes(b"#!/bin/sh\n")
    base = memcached_native.artifact_name(str(cc), machine="x86_64")
    variants = [
        memcached_native.artifact_name(
            str(cc), source=memcached_native._C_SOURCE + "\n",
            machine="x86_64"),
        memcached_native.artifact_name(str(other), machine="x86_64"),
        memcached_native.artifact_name(
            str(cc), flags=memcached_native.CFLAGS + ("-g",),
            machine="x86_64"),
        memcached_native.artifact_name(str(cc), machine="aarch64"),
    ]
    cc.write_bytes(b"#!/bin/sh\n# upgraded\n")            # size
    variants.append(
        memcached_native.artifact_name(str(cc), machine="x86_64"))
    stat = cc.stat()
    os.utime(cc, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
    variants.append(                                     # mtime only
        memcached_native.artifact_name(str(cc), machine="x86_64"))
    names = [base] + variants
    assert len(set(names)) == len(names)
