"""Native execution backend: compile lowered C kernels and bind them.

This is the execution half of the C backend
(:mod:`repro.codegen.native` is the lowering half): find a system C
compiler, compile the translation unit into a shared object, and bind the
exported ``kernel`` symbol through :mod:`ctypes` with numpy-array
arguments.  ``compile_kernel(..., backend="c")`` routes every
``__call__``/``run`` through the result.

**Toolchain** — ``REPRO_CC`` names the compiler (``none`` disables the
backend outright, for testing the fallback path); otherwise ``cc``,
``gcc``, ``clang`` are probed on PATH.  OpenMP support is detected with a
one-time test compile; when absent, parallel-flavour kernels compile
single-threaded (pragmas are simply not activated).

**Artifact cache** — compiled ``.so`` files are cached in-process by
digest of (C source, flags, compiler identity), and, when the compilation
cache runs in ``disk`` mode, persisted under the same cache directory
with atomic writes (compile to a temp name, ``os.replace``).  On-disk
artifacts are sharded by digest prefix (``cache_dir/ab/abcd....so``) so a
fleet-shared ``REPRO_CACHE_DIR`` never degrades into one huge flat
directory.  A missing or unloadable artifact is a miss: the kernel is
recompiled.  The digest subsumes the structural signature — the
structural key determines the generated Python source, which determines
the C source.

**Single-flight** — when N threads request the same digest concurrently,
exactly one (the *leader*) invokes the C toolchain; the rest wait on a
per-digest event and pick the result out of the in-process cache
(``native.so_cache.hits.coalesced``).  A follower whose wait times out
(``REPRO_SINGLEFLIGHT_TIMEOUT``, default 300 s — a wedged leader) compiles
independently rather than hang; a follower whose leader *failed* retries
the compile once itself before giving up, so one transient toolchain
hiccup doesn't fail a whole batch.  Across processes the same guarantee
comes from an ``flock`` on ``<digest>.so.lock``: the winner compiles,
losers block on the lock and then find the finished artifact.  Lock
files are unlinked by their holder on release (with an inode liveness
re-check on acquire), so a long-lived shared cache directory doesn't
accumulate them.

**Fallback** — any failure (no toolchain, lowering limitation, compile
error, load error) emits a :class:`NativeBackendWarning`, bumps an
``INSTR`` counter, and falls back to the Python kernel; it never raises.

Phase timers: ``c_lower`` (AST-to-C), ``cc_compile`` (the cc
invocation), ``native_dispatch`` (argument marshalling + the native
call).  ``REPRO_TRACE=1`` renders them on exit.
"""

from __future__ import annotations

import atexit
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from contextlib import contextmanager
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.instrument import INSTR
from repro.util.env import env_flags, env_float

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

_CFLAGS = ["-O3", "-fPIC", "-shared", "-std=c11", "-ffp-contract=off"]


def tier_cflags(opt: str) -> List[str]:
    """Built-in compile flags for one optimization tier.

    ``tiled`` adds ``-fopenmp-simd`` (activates ``#pragma omp simd``
    without the OpenMP runtime); ``fast`` additionally swaps
    ``-ffp-contract=off`` for ``-ffp-contract=fast``, permitting FMA
    contraction — which is why the fast tier is validated by tolerance
    rather than byte-identity."""
    flags = list(_CFLAGS)
    if opt in ("tiled", "fast"):
        flags.append("-fopenmp-simd")
    if opt == "fast":
        flags = [f for f in flags if f != "-ffp-contract=off"]
        flags.append("-ffp-contract=fast")
    return flags


class NativeBackendWarning(UserWarning):
    """The C backend fell back to the Python kernel."""


# ---------------------------------------------------------------------------
# Toolchain discovery (memoized per process)
# ---------------------------------------------------------------------------

_toolchain: Dict[str, object] = {}

#: serializes toolchain probes (discovery, --version, the OpenMP test
#: compile) so concurrent first-compiles run each probe exactly once
_TOOLCHAIN_LOCK = threading.RLock()


def reset_toolchain_cache(scratch: bool = False) -> None:
    """Forget the memoized compiler/OpenMP probe results and the loaded
    ``.so`` cache (test hook).  ``scratch=True`` additionally abandons the
    process scratch directory so subsequent compiles re-invoke the
    toolchain instead of reusing on-disk scratch artifacts."""
    with _TOOLCHAIN_LOCK:
        _toolchain.clear()
    with _SO_LOCK:
        _SO_CACHE.clear()
        if scratch:
            _work_dir.clear()


def find_compiler() -> Optional[str]:
    """Path of the system C compiler, or None.  ``REPRO_CC`` overrides
    discovery; ``REPRO_CC=none`` disables the backend."""
    with _TOOLCHAIN_LOCK:
        if "cc" in _toolchain:
            return _toolchain["cc"]
        cc: Optional[str] = None
        env = os.environ.get("REPRO_CC", "").strip()
        if env:
            cc = None if env.lower() == "none" else shutil.which(env)
        else:
            for cand in ("cc", "gcc", "clang"):
                cc = shutil.which(cand)
                if cc:
                    break
        _toolchain["cc"] = cc
        return cc


def compiler_identity(cc: str) -> str:
    """First line of ``cc --version`` (part of the artifact-cache key)."""
    key = ("ident", cc)
    with _TOOLCHAIN_LOCK:
        if key not in _toolchain:
            try:
                out = subprocess.run([cc, "--version"], capture_output=True,
                                     text=True, timeout=30)
                _toolchain[key] = (out.stdout or out.stderr).splitlines()[0]
            except (OSError, subprocess.SubprocessError, IndexError):
                _toolchain[key] = cc
        return _toolchain[key]


def openmp_supported(cc: str) -> bool:
    """Does ``cc -fopenmp`` link a trivial parallel program?"""
    key = ("omp", cc)
    with _TOOLCHAIN_LOCK:
        if key not in _toolchain:
            probe = ("#include <omp.h>\n"
                     "int main(void) { return omp_get_max_threads() > 0 ? 0 : 1; }\n")
            with tempfile.TemporaryDirectory(prefix="repro-omp-") as d:
                src = os.path.join(d, "probe.c")
                with open(src, "w") as f:
                    f.write(probe)
                try:
                    r = subprocess.run(
                        [cc, "-fopenmp", src, "-o", os.path.join(d, "probe")],
                        capture_output=True, timeout=60)
                    _toolchain[key] = r.returncode == 0
                except (OSError, subprocess.SubprocessError):
                    _toolchain[key] = False
        return _toolchain[key]


def simd_supported(cc: str) -> bool:
    """Does ``cc -fopenmp-simd`` compile a ``#pragma omp simd`` loop?
    Gates the ``tiled``/``fast`` tiers: a compiler that rejects the flag
    or the pragma demotes the request to ``opt='none'``."""
    key = ("simd", cc)
    with _TOOLCHAIN_LOCK:
        if key not in _toolchain:
            probe = (
                "int main(void) {\n"
                "    double s[8];\n"
                "    #pragma omp simd\n"
                "    for (int i = 0; i < 8; i++) s[i] = (double)i;\n"
                "    return s[3] == 3.0 ? 0 : 1;\n"
                "}\n")
            with tempfile.TemporaryDirectory(prefix="repro-simd-") as d:
                src = os.path.join(d, "probe.c")
                with open(src, "w") as f:
                    f.write(probe)
                try:
                    r = subprocess.run(
                        [cc, "-fopenmp-simd", src,
                         "-o", os.path.join(d, "probe")],
                        capture_output=True, timeout=60)
                    _toolchain[key] = r.returncode == 0
                except (OSError, subprocess.SubprocessError):
                    _toolchain[key] = False
        return _toolchain[key]


def resolve_opt(opt: str, cc: Optional[str]) -> str:
    """Demote an optimization tier the toolchain cannot honor.

    A missing compiler or a failed SIMD probe turns ``tiled``/``fast``
    into ``"none"`` observably: ``native.tier.demotions`` plus a
    per-reason counter, and a :class:`NativeBackendWarning` naming the
    tier.  (With no compiler at all, the subsequent compile then falls
    back to the Python kernel through the usual contract.)"""
    if opt == "none":
        return opt
    if cc is None:
        reason = "no_toolchain"
    elif not simd_supported(cc):
        reason = "simd_probe"
    else:
        return opt
    INSTR.count("native.tier.demotions")
    INSTR.count(f"native.tier.demotion.{reason}")
    warnings.warn(
        f"optimization tier {opt!r} unavailable ({reason}); "
        "demoting to opt='none'",
        NativeBackendWarning,
        stacklevel=3,
    )
    return "none"


# ---------------------------------------------------------------------------
# Shared-object compilation + artifact cache
# ---------------------------------------------------------------------------

#: digest -> loaded ctypes function (process-wide); guarded by _SO_LOCK
_SO_CACHE: Dict[str, ctypes._CFuncPtr] = {}
_SO_LOCK = threading.RLock()

_work_dir: List[str] = []
# a forked child makes its own scratch directory: the parent removes
# its one when it exits
os.register_at_fork(after_in_child=_work_dir.clear)


def _scratch_dir() -> str:
    with _SO_LOCK:
        if not _work_dir:
            path = tempfile.mkdtemp(prefix="repro-native-")
            atexit.register(_remove_scratch_dir, os.getpid(), path)
            _work_dir.append(path)
        return _work_dir[0]


def _remove_scratch_dir(owner_pid: int, path: str) -> None:
    # forked children inherit the exit hook; only the creator removes
    if os.getpid() == owner_pid:
        shutil.rmtree(path, ignore_errors=True)


# -- in-process single-flight ------------------------------------------------

class _Flight:
    """One in-progress compilation of a digest: followers wait on the
    event; the leader parks its failure (if any) in ``error``."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error: Optional[BaseException] = None


_INFLIGHT: Dict[str, _Flight] = {}
_INFLIGHT_LOCK = threading.Lock()


def singleflight_timeout() -> float:
    """Seconds a follower waits for the leader before compiling itself
    (``REPRO_SINGLEFLIGHT_TIMEOUT``, default 300; malformed values warn
    and fall back to the default)."""
    return env_float("REPRO_SINGLEFLIGHT_TIMEOUT", 300.0, minimum=0.0)


@contextmanager
def _artifact_lock(out_path: str):
    """Cross-process guard for one on-disk artifact: an exclusive flock on
    ``out_path + '.lock'``.  Processes that cannot take the lock (no fcntl,
    unwritable directory) fall through unguarded — the temp-file +
    ``os.replace`` write is still atomic, the guard only prevents the
    duplicated toolchain work.

    The lock file is unlinked by its holder *before* releasing the flock,
    so a shared cache directory never accumulates stale ``.lock`` files.
    Unlink-then-release is only safe with a liveness re-check on acquire:
    a process may flock an inode that the previous holder has since
    unlinked (a fresh file — and a fresh lock — could already exist under
    the same name), so after taking the flock we verify the fd still
    names the on-disk path and retry on a fresh open if not."""
    if fcntl is None:
        yield
        return
    lock_path = out_path + ".lock"
    f = None
    try:
        while True:
            try:
                f = open(lock_path, "a+b")
                fcntl.flock(f.fileno(), fcntl.LOCK_EX)
            except OSError:
                if f is not None:
                    f.close()
                    f = None
                yield
                return
            try:
                live = os.fstat(f.fileno()).st_ino == os.stat(lock_path).st_ino
            except OSError:
                live = False            # path unlinked: stale inode
            if live:
                break
            f.close()
            f = None
        try:
            yield
        finally:
            # still holding the exclusive lock on the live inode: no other
            # process can be inside the critical section, and any process
            # that already opened this inode will fail its liveness check
            try:
                os.unlink(lock_path)
            except OSError:
                pass
            try:
                fcntl.flock(f.fileno(), fcntl.LOCK_UN)
            except OSError:
                pass
    finally:
        if f is not None:
            f.close()


def artifact_key(c_source: str, flags: Tuple[str, ...], cc: str) -> str:
    blob = "\x1e".join([c_source, repr(flags), compiler_identity(cc)])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _disk_so_path(digest: str) -> str:
    """Sharded on-disk artifact path: ``cache_dir/ab/abcd....so``.

    Fleet-shared cache directories hold one file per unique digest across
    every program/format/param combination ever compiled; a two-hex-char
    digest-prefix shard (256 buckets) keeps individual directories small
    on filesystems where huge flat directories degrade."""
    from repro.core.cache import COMPILE_CACHE

    return os.path.join(COMPILE_CACHE.disk_dir(), digest[:2], digest + ".so")


def _compile_so(cc: str, c_source: str, flags: Tuple[str, ...],
                out_path: str) -> bool:
    """Compile into ``out_path`` atomically (temp file + rename), under the
    cross-process artifact flock.  Returns True if this call invoked the
    toolchain, False if the artifact already existed once the lock was
    held (another process built it first).  ``native.compiles`` counts
    actual cc invocations, one-to-one."""
    d = os.path.dirname(out_path)
    os.makedirs(d, exist_ok=True)
    with _artifact_lock(out_path):
        if os.path.exists(out_path):
            return False
        fd, src = tempfile.mkstemp(dir=d, suffix=".c")
        tmp_so = src[:-2] + ".tmp.so"
        try:
            with os.fdopen(fd, "w") as f:
                f.write(c_source)
            with INSTR.phase("cc_compile"):
                r = subprocess.run([cc, *flags, src, "-o", tmp_so],
                                   capture_output=True, text=True, timeout=300)
            if r.returncode != 0:
                raise RuntimeError(f"cc failed: {r.stderr.strip()[:500]}")
            INSTR.count("native.compiles")
            os.replace(tmp_so, out_path)
        finally:
            for p in (src, tmp_so):
                if os.path.exists(p):
                    try:
                        os.unlink(p)
                    except OSError:
                        pass
        return True


def _load_symbol(path: str):
    lib = ctypes.CDLL(path)
    return lib.kernel


def _build_and_load(cc: str, c_source: str, flags: Tuple[str, ...],
                    digest: str, cache_mode: str):
    """Materialize the artifact for ``digest`` (disk layer first in disk
    mode, scratch dir otherwise) and load its ``kernel`` symbol.  Raises
    on compile/load failure."""
    if cache_mode == "disk":
        path = _disk_so_path(digest)
        if os.path.exists(path):
            try:
                fn = _load_symbol(path)
                INSTR.count("native.so_cache.hits.disk")
                return fn
            except (OSError, AttributeError):
                # corrupt artifact: treat as a miss and rebuild it
                INSTR.count("native.so_cache.corrupt")
                try:
                    os.unlink(path)
                except OSError:
                    pass
        try:
            built = _compile_so(cc, c_source, flags, path)
            fn = _load_symbol(path)
            if not built:
                # another process won the artifact flock and built it
                INSTR.count("native.so_cache.hits.disk")
            return fn
        except OSError:
            pass  # cache dir unwritable: fall through to the scratch dir
    out = os.path.join(_scratch_dir(), digest + ".so")
    if not os.path.exists(out):
        _compile_so(cc, c_source, flags, out)
    return _load_symbol(out)


def compile_native_function(c_source: str, want_openmp: bool,
                            cache_mode: str, opt: str = "none"):
    """Compile ``c_source`` and return (ctypes function, used_openmp).

    Flags are the tier's built-ins (:func:`tier_cflags`), ``-fopenmp``
    when requested and supported, then any user ``REPRO_CFLAGS`` —
    appended last so they win, and part of the artifact digest so flag
    changes never serve a stale ``.so``.

    Single-flight: concurrent requests for the same digest coalesce onto
    one toolchain invocation (see module docstring).  Raises on toolchain
    absence or compile failure — callers translate that into the Python
    fallback."""
    cc = find_compiler()
    if cc is None:
        raise RuntimeError("no C compiler on PATH (set REPRO_CC to override)")
    use_omp = want_openmp and openmp_supported(cc)
    flags = tier_cflags(opt)
    if use_omp:
        flags.append("-fopenmp")
    flags = tuple(flags + env_flags("REPRO_CFLAGS"))
    digest = artifact_key(c_source, flags, cc)

    with _SO_LOCK:
        fn = _SO_CACHE.get(digest)
    if fn is not None:
        INSTR.count("native.so_cache.hits.memory")
        return fn, use_omp

    retried = False
    while True:
        with _INFLIGHT_LOCK:
            with _SO_LOCK:
                fn = _SO_CACHE.get(digest)
            if fn is not None:
                INSTR.count("native.so_cache.hits.memory")
                return fn, use_omp
            flight = _INFLIGHT.get(digest)
            leader = flight is None
            if leader:
                flight = _Flight()
                _INFLIGHT[digest] = flight

        if leader:
            try:
                fn = _build_and_load(cc, c_source, flags, digest, cache_mode)
                with _SO_LOCK:
                    _SO_CACHE[digest] = fn
                return fn, use_omp
            except BaseException as e:
                flight.error = e
                raise
            finally:
                with _INFLIGHT_LOCK:
                    _INFLIGHT.pop(digest, None)
                flight.event.set()

        # follower: wait for the leader, then read its result
        INSTR.count("native.singleflight.waits")
        if not flight.event.wait(singleflight_timeout()):
            # leader wedged (toolchain hang): compile independently
            # rather than propagate the stall
            INSTR.count("native.singleflight.wait_timeouts")
            fn = _build_and_load(cc, c_source, flags, digest, cache_mode)
            with _SO_LOCK:
                _SO_CACHE[digest] = fn
            return fn, use_omp
        with _SO_LOCK:
            fn = _SO_CACHE.get(digest)
        if fn is not None:
            INSTR.count("native.so_cache.hits.coalesced")
            return fn, use_omp
        # the leader failed; retry the compile once ourselves before
        # giving up (observable via the counters either way)
        INSTR.count("native.singleflight.leader_failures")
        if retried:
            raise RuntimeError(
                f"native compile failed after single-flight retry: "
                f"{flight.error}")
        retried = True


# ---------------------------------------------------------------------------
# Bound native kernels
# ---------------------------------------------------------------------------

class NativeKernel:
    """A compiled-and-bound native kernel with the Python calling
    convention ``fn(arrays, params)``.

    Marshalling: every array argument is coerced to the compile-time
    dtype and C-contiguity (``np.ascontiguousarray`` — a no-op for
    already-conforming arrays); arrays the kernel writes are copied back
    when coercion had to copy.  Stride and length arguments are derived
    from the coerced array's shape.

    Prepared-argument fast path: solver loops call the same kernel with
    the same array objects thousands of times.  When a call needed no
    coercion copies and no writebacks, the marshalled ctypes argument
    vector is cached; the next call revalidates only array identity and
    scalar values (in-place mutation of a prepared array is fine — the
    cached pointer targets the same buffer) and skips the per-argument
    numpy machinery.  The cached tuple keeps the arrays alive, so an
    identity match can never be a recycled ``id``."""

    def __init__(self, fn, spec, used_openmp: bool):
        self.spec = spec
        self.used_openmp = used_openmp
        self._fn = fn
        self._prep: Optional[Tuple[tuple, tuple, tuple]] = None
        argtypes = []
        for a in spec.args:
            if a.kind == "scalar":
                argtypes.append(ctypes.c_int64)
            else:
                argtypes.append(ctypes.c_void_p)
                argtypes.extend([ctypes.c_int64] * max(a.ndim - 1, 0))
                if a.need_len:
                    argtypes.append(ctypes.c_int64)
        fn.argtypes = argtypes
        fn.restype = None

    @property
    def c_source(self) -> str:
        return self.spec.c_source

    def __call__(self, arrays: Mapping[str, object],
                 params: Mapping[str, int]) -> None:
        with INSTR.phase("native_dispatch"):
            prep = self._prep
            if prep is not None:
                objs, scalars, pcargs = prep
                oi = si = 0
                match = True
                for a in self.spec.args:
                    val = a.loader(arrays, params)
                    if a.kind == "scalar":
                        if int(val) != scalars[si]:
                            match = False
                            break
                        si += 1
                    else:
                        if val is not objs[oi]:
                            match = False
                            break
                        oi += 1
                if match:
                    INSTR.count("native.dispatch.prepared")
                    self._fn(*pcargs)
                    return
            cargs: List[object] = []
            keepalive: List[np.ndarray] = []
            writebacks: List[Tuple[np.ndarray, np.ndarray]] = []
            objs: List[object] = []
            scalars: List[int] = []
            preparable = True
            for a in self.spec.args:
                val = a.loader(arrays, params)
                if a.kind == "scalar":
                    sv = int(val)
                    scalars.append(sv)
                    cargs.append(sv)
                    continue
                arr = np.asarray(val)
                want = np.dtype(a.dtype)
                carr = np.ascontiguousarray(arr, dtype=want)
                if a.ndim == 0 and carr.ndim == 1 and carr.size == 1:
                    carr = carr.reshape(())  # ascontiguousarray promotes 0-d
                if carr.ndim != a.ndim:
                    raise ValueError(
                        f"{a.cname}: expected ndim {a.ndim}, got {carr.ndim}")
                if a.written and not np.may_share_memory(carr, arr):
                    writebacks.append((arr, carr))
                if carr is not val:
                    preparable = False
                objs.append(val)
                keepalive.append(carr)
                cargs.append(carr.ctypes.data)
                for k in range(1, a.ndim):
                    cargs.append(int(carr.shape[k]))
                if a.need_len:
                    cargs.append(int(carr.shape[0]) if a.ndim else 0)
            self._fn(*cargs)
            for orig, tmp in writebacks:
                orig[...] = tmp
            if preparable and not writebacks:
                self._prep = (tuple(objs), tuple(scalars), tuple(cargs))
            del keepalive


def bind_kernel(kernel, parallel: str = "none",
                cache_mode: str = "memory",
                opt: str = "none") -> NativeKernel:
    """Lower + compile + bind one CompiledKernel.  Raises on any failure
    (the compiler API converts that into the Python fallback).  ``opt``
    requests an optimization tier; an unsupported tier is demoted to
    ``"none"`` first (see :func:`resolve_opt`), and a successful bind
    counts ``native.tier.<opt>``."""
    from repro.codegen.native import lower_kernel

    opt = resolve_opt(opt, find_compiler())
    spec = lower_kernel(kernel, parallel, opt)
    fn, used_omp = compile_native_function(
        spec.c_source, want_openmp=(parallel != "none" and spec.uses_openmp),
        cache_mode=cache_mode, opt=opt)
    nk = NativeKernel(fn, spec, used_omp)
    INSTR.count(f"native.tier.{opt}")
    return nk


def native_fallback(reason: str, detail: str) -> None:
    """Record one backend="c" fallback: warn + count, never raise."""
    INSTR.count("native.fallbacks")
    INSTR.count(f"native.fallback.{reason}")
    warnings.warn(
        f"C backend unavailable ({reason}): {detail}; "
        "falling back to the Python kernel",
        NativeBackendWarning,
        stacklevel=3,
    )
