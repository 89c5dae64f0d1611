"""Native backend for fig8's ETC queue loop.

The memcached ETC queue model (:func:`repro.workloads.memcached.
_queueing_run`) is the one hot loop of the registered experiments that
is not the nested exit path.  It has two implementations:

* ``reference`` — :func:`repro.workloads.memcached._queueing_run_reference`,
  the semantic definition: one rng helper call per draw;
* ``native`` — this module: the same per-request loop as a C function
  compiled at first use with the system C compiler.  It embeds CPython's
  MT19937 (``genrand_uint32`` and the 53-bit double conversion exactly as
  ``_randommodule.c``), inlines the stdlib samplers the reference calls
  (``expovariate``; ``lognormvariate`` through Kinderman-Monahan
  ``normalvariate``), links the same libm as :mod:`math`, and is built
  with ``-ffp-contract=off`` so no fused multiply-add changes a rounding.
  It hands back every sojourn in generation order — the caller sums them
  with the interpreter's own :func:`sum`, so the total is the reference's
  on every Python version — plus the two order statistics the p99
  interpolation needs, selected in O(n).

The native backend serves only after it builds, loads and passes
:func:`_self_check`: a seeded battery compared with the reference loop
bit for bit.  Anything else — no compiler, a failed build or load, a
mismatch, or a queue shape the C loop does not compile — leaves the
reference serving, with the reason recorded (:func:`status`,
:func:`served`) and never written into a Result.

The probe is lazy: it runs at the first queue run of a process, so
experiments without one never build or load anything.
"""

import ctypes
import os
import platform
import subprocess
import tempfile
from array import array
from hashlib import sha256
from pathlib import Path
from shutil import which

#: Env var: overrides the build-cache directory for the compiled loop.
CACHE_ENV_VAR = "REPRO_BATCH_CACHE"

#: Compiler flags; part of the build-cache name.
CFLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-fPIC", "-shared")

NATIVE = "native"
REFERENCE = "reference"

#: Why the reference loop serves instead of the native one.
NO_COMPILER = "no compiler"
BUILD_FAILED = "build failed"
SELF_CHECK_MISMATCH = "self-check mismatch"
UNSUPPORTED_SHAPE = "unsupported shape"

#: MT19937 state width: 624 key words plus the cursor.
_MT_WORDS = 625


# ---------------------------------------------------------------------------
# C source
# ---------------------------------------------------------------------------

#: The reference's per-request loop with CPython's MT19937 inlined.  The
#: two order statistics a linear-interpolation percentile needs come
#: from an O(n) quickselect over a scratch copy (order statistics are
#: value-exact regardless of the selection algorithm; sojourn times hold
#: no NaNs).
_C_SOURCE = r"""
#include <math.h>
#include <stdint.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A 0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

static uint32_t genrand(uint32_t *mt, uint32_t *mti_io)
{
    static const uint32_t mag01[2] = {0U, MATRIX_A};
    uint32_t y;
    uint32_t mti = *mti_io;
    if (mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        mti = 0;
    }
    y = mt[mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    *mti_io = mti;
    return y;
}

static double mt_random(uint32_t *mt, uint32_t *mti)
{
    uint32_t a = genrand(mt, mti) >> 5;
    uint32_t b = genrand(mt, mti) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Exact kth and (k+1)th smallest of a[0..n-1] (a is clobbered).
   Median-of-3 quickselect; on termination every element left of k is
   <= a[k] and every element right is >= a[k], so the (k+1)th order
   statistic is the minimum of the right part. */
static void select_two(double *a, long n, long k,
                       double *out_lo, double *out_hi)
{
    long lo = 0, hi = n - 1;
    while (lo < hi) {
        long mid = lo + (hi - lo) / 2;
        double p, t;
        long i = lo, j = hi;
        if (a[mid] < a[lo]) { t = a[mid]; a[mid] = a[lo]; a[lo] = t; }
        if (a[hi] < a[lo])  { t = a[hi];  a[hi] = a[lo];  a[lo] = t; }
        if (a[hi] < a[mid]) { t = a[hi];  a[hi] = a[mid]; a[mid] = t; }
        p = a[mid];
        while (i <= j) {
            while (a[i] < p) i++;
            while (a[j] > p) j--;
            if (i <= j) {
                t = a[i]; a[i] = a[j]; a[j] = t;
                i++; j--;
            }
        }
        if (k <= j) hi = j;
        else if (k >= i) lo = i;
        else break;  /* j < k < i: a[k] == p, in final position */
    }
    *out_lo = a[k];
    if (k + 1 < n) {
        double m = a[k + 1];
        long t;
        for (t = k + 2; t < n; t++)
            if (a[t] < m) m = a[t];
        *out_hi = m;
    } else {
        *out_hi = a[k];
    }
}

/* Replay n requests from the MT19937 state (625 words, updated in
   place).  sojourns[0..n-1] receives every sojourn in generation order
   (the caller sums them with the interpreter's own sum(), so the total
   is the reference's on every Python version); out2[0]/out2[1] receive
   the kth/(k+1)th smallest sojourns for the caller's percentile
   interpolation.  scratch is n doubles of caller-owned workspace. */
void qk_etc_run(uint32_t *state, long n, long k,
                double lambd, double p_get, double sigma,
                double mu_get, double mu_set, double nv_magic,
                double *sojourns, double *scratch, double *out2)
{
    uint32_t *mt = state;
    uint32_t mti = state[MT_N];
    double server0 = 0.0, server1 = 0.0, clock = 0.0;
    long i;
    for (i = 0; i < n; i++) {
        double u1, u2, z, mu, service, start, fin;
        int is_get;
        clock += -log(1.0 - mt_random(mt, &mti)) / lambd;
        is_get = mt_random(mt, &mti) < p_get;
        mt_random(mt, &mti);  /* zipf popularity draw, index unused */
        for (;;) {
            u1 = mt_random(mt, &mti);
            u2 = 1.0 - mt_random(mt, &mti);
            z = nv_magic * (u1 - 0.5) / u2;
            if (z * z / 4.0 <= -log(u2)) break;
        }
        mu = is_get ? mu_get : mu_set;
        service = exp(mu + z * sigma);
        if (server0 <= server1) {
            start = clock > server0 ? clock : server0;
            fin = start + service;
            server0 = fin;
        } else {
            start = clock > server1 ? clock : server1;
            fin = start + service;
            server1 = fin;
        }
        sojourns[i] = fin - clock;
        scratch[i] = sojourns[i];
    }
    state[MT_N] = mti;
    select_two(scratch, n, k, &out2[0], &out2[1]);
}
"""


# ---------------------------------------------------------------------------
# Build and load
# ---------------------------------------------------------------------------


def _cache_dir():
    """Build-cache directory: env override, else ``.batch_cache`` at
    the repo root (gitignored), else the system temp directory."""
    # svtlint: disable=SVT001 — build-cache placement is deployment
    # config; the compiled loop is self-checked bit-exact against the
    # reference wherever it lives.
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    import repro

    root = Path(repro.__file__).resolve().parents[2] / ".batch_cache"
    try:
        root.mkdir(parents=True, exist_ok=True)
        probe = root / ".writable"
        probe.write_text("")
        probe.unlink()
        return root
    except OSError:
        return Path(tempfile.gettempdir()) / "repro-batch-cache"


def _compiler():
    """Resolved path of the system C compiler, or ``None``."""
    cc = which("cc") or which("gcc") or which("clang")
    return os.path.realpath(cc) if cc else None


def artifact_name(cc, source=_C_SOURCE, flags=CFLAGS, machine=None):
    """Build-cache stem: a digest of everything the shared object
    depends on — the C source, the compiler (resolved path plus its
    ``stat`` size and mtime, so an upgraded compiler rebuilds without a
    subprocess per interpreter), the flags and the host architecture."""
    st = os.stat(cc)
    digest = sha256()
    for part in (source, cc, str(st.st_size), str(st.st_mtime_ns),
                 " ".join(flags), machine or platform.machine()):
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return f"qk_{digest.hexdigest()[:16]}"


def _build():
    """``(shared-object path, None)``, or ``(None, reason)``.

    Builds into the cache under :func:`artifact_name`, atomically
    (private temporary names, then :func:`os.replace`), so concurrent
    pool workers never compile or load a half-written file."""
    cc = _compiler()
    if cc is None:
        return None, NO_COMPILER
    try:
        stem = artifact_name(cc)
        cache = _cache_dir()
        so_path = cache / f"{stem}.so"
        if so_path.exists():
            return so_path, None
        cache.mkdir(parents=True, exist_ok=True)
        tmp_c = cache / f".{stem}.{os.getpid()}.c"
        tmp_so = cache / f".{stem}.{os.getpid()}.so"
        tmp_c.write_text(_C_SOURCE)
        proc = subprocess.run(
            [cc, *CFLAGS, "-o", str(tmp_so), str(tmp_c), "-lm"],
            capture_output=True,
        )
        if proc.returncode != 0:
            tmp_c.unlink()
            tmp_so.unlink(missing_ok=True)
            return None, BUILD_FAILED
        os.replace(tmp_c, cache / f"{stem}.c")
        os.replace(tmp_so, so_path)
        return so_path, None
    except OSError:
        return None, BUILD_FAILED


def _load():
    """``(checked library, None)``, or ``(None, reason)``."""
    so_path, reason = _build()
    if so_path is None:
        return None, reason
    try:
        lib = ctypes.CDLL(str(so_path))
    except OSError:
        return None, BUILD_FAILED
    lib.qk_etc_run.restype = None
    lib.qk_etc_run.argtypes = [
        ctypes.POINTER(ctypes.c_uint32), ctypes.c_long, ctypes.c_long,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.POINTER(ctypes.c_double), ctypes.POINTER(ctypes.c_double),
        ctypes.POINTER(ctypes.c_double),
    ]
    if not _self_check(lib):
        return None, SELF_CHECK_MISMATCH
    return lib, None


#: ``None`` until probed, then ``(library or None, reason or None)``.
_probe = None

#: Queue runs served since process start, by backend label.
_served = {}


def library():
    """The checked native library, or ``None`` (probed once)."""
    global _probe
    if _probe is None:
        _probe = _load()
    return _probe[0]


def status():
    """``(NATIVE, None)`` or ``(REFERENCE, reason)`` for this process."""
    if library() is not None:
        return NATIVE, None
    return REFERENCE, _probe[1]


def reset_probe():
    """Forget the probe result (tests re-probe around monkeypatches)."""
    global _probe
    _probe = None


def label(backend, reason=None):
    """One backend label: ``native`` or ``reference (<reason>)``."""
    return backend if reason is None else f"{backend} ({reason})"


def record(backend, reason=None):
    """Count one queue run against the backend that served it, mirrored
    into the obs metrics registry when an observer is ambient."""
    from repro.obs.observer import ambient as obs_ambient

    key = label(backend, reason)
    _served[key] = _served.get(key, 0) + 1
    observer = obs_ambient()
    if observer is not None:
        observer.count("memcached_queue_runs_total", backend=key)


def served():
    """Queue runs per backend label since the last :func:`reset_served`
    (only backends that served at least one run appear)."""
    return dict(_served)


def reset_served():
    _served.clear()


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def replay(lib, rng, requests, k, lambd, p_get, sigma, mu_get, mu_set,
           nv_magic):
    """Run ``requests`` requests of the loop natively.

    Transfers ``rng``'s MT19937 state into a flat ``array('I')``, runs
    the compiled loop, and pushes the advanced state back, so the rng
    sits exactly where the reference's draws would have left it.
    Returns ``(sojourns, kth, k_plus_1th)``: the sojourns as an
    ``array('d')`` in generation order, then the kth and (k+1)th
    smallest sojourn."""
    if not 0 <= k < requests:
        raise ValueError(f"order statistic {k} outside {requests} "
                         "requests")
    version, internal, gauss = rng.getstate()
    state = array("I", internal)
    sojourns = array("d", bytes(8 * requests))
    scratch = array("d", bytes(8 * requests))
    out2 = array("d", bytes(16))
    doubles = ctypes.c_double * requests
    lib.qk_etc_run(
        (ctypes.c_uint32 * _MT_WORDS).from_buffer(state),
        requests, k, lambd, p_get, sigma, mu_get, mu_set, nv_magic,
        doubles.from_buffer(sojourns), doubles.from_buffer(scratch),
        (ctypes.c_double * 2).from_buffer(out2),
    )
    rng.setstate((version, tuple(state), gauss))
    return sojourns, out2[0], out2[1]


#: Self-check battery: fig8's lowest and highest offered load (kqps),
#: and request counts at the percentile edges (1 and 2 requests put the
#: p99 order statistics at the ends) plus one odd count that queues.
#: The GET/SET service times are of the order fig8 measures (ns).
_CHECK_SERVICE_NS = (31_000.0, 54_000.0)
_CHECK_LOADS = (5.0, 22.5)
_CHECK_REQUESTS = (1, 2, 101, 500)
_CHECK_SEEDS = (2019, 11)


def _self_check(lib):
    """The native loop must reproduce the reference loop bit for bit —
    ``(avg_us, p99_us)`` and the final rng state — over the seeded
    battery, or it never serves on this host (e.g. a libm whose
    ``log``/``exp`` round differently from CPython's)."""
    from repro.sim.rng import DeterministicRng
    from repro.workloads import memcached

    cfg = memcached.EtcConfig()
    for seed in _CHECK_SEEDS:
        for load in _CHECK_LOADS:
            for requests in _CHECK_REQUESTS:
                fork_label = f"check:{load}:{requests}"
                ref_rng = DeterministicRng(seed).fork(fork_label)
                nat_rng = DeterministicRng(seed).fork(fork_label)
                expected = memcached._queueing_run_reference(
                    *_CHECK_SERVICE_NS, load, cfg, ref_rng, requests)
                got = memcached._queueing_run_native(
                    lib, *_CHECK_SERVICE_NS, load, cfg, nat_rng, requests)
                if got != expected \
                        or nat_rng.getstate() != ref_rng.getstate():
                    return False
    return True
