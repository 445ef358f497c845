"""Race/stress suite for the concurrent compilation service.

Covers the PR's acceptance criteria directly:

- instrument counters lose no updates under 8 hammering threads;
- the compilation LRU survives concurrent hits/evictions/reranks;
- N threads requesting the same native digest pay exactly one cc
  invocation (single-flight), observable via ``native.*`` counters;
- ``compile_many`` isolates per-item failures and, at 16 workers over a
  mixed (same + distinct) batch, produces byte-identical results to the
  serial compilation with exactly one cc invocation per unique digest.
"""

from __future__ import annotations

import threading
import time
import warnings

import numpy as np
import pytest

from repro.core import NativeBackendWarning, compile_kernel, compile_many
from repro.core import backend as be
from repro.core.cache import COMPILE_CACHE, clear_compile_cache
from repro.formats import as_format
from repro.formats.generate import random_sparse
from repro.instrument import INSTR
from repro.ir.kernels import ALL_KERNELS

N = 10


@pytest.fixture()
def square():
    return random_sparse(N, N, density=0.4, seed=1234).to_dense()


def _run_threads(n, fn):
    """Run ``fn(i)`` on n threads through a start barrier; re-raise the
    first worker exception in the main thread."""
    barrier = threading.Barrier(n)
    errors = []

    def wrap(i):
        try:
            barrier.wait(timeout=60)
            fn(i)
        except BaseException as e:  # noqa: BLE001 - reported to the main thread
            errors.append(e)

    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    assert not any(t.is_alive() for t in threads), "worker thread hung"
    if errors:
        raise errors[0]


# ---------------------------------------------------------------------------
# Instrumentation under threads (satellite: non-atomic counter increments)
# ---------------------------------------------------------------------------

class TestInstrumentationThreadSafety:
    def test_no_lost_counter_updates_8_threads(self):
        """Regression: naive dict increments lose updates under threads;
        per-thread shards must account for every single one."""
        before = INSTR.get("t.hammer")
        per_thread = 25_000

        _run_threads(8, lambda i: [INSTR.count("t.hammer")
                                   for _ in range(per_thread)])
        assert INSTR.get("t.hammer") - before == 8 * per_thread

    def test_weighted_counts_and_timers_merge(self):
        before_c = INSTR.get("t.weighted")
        before_t = INSTR.time("t.phase")

        def work(i):
            INSTR.count("t.weighted", 3)
            with INSTR.phase("t.phase"):
                pass

        _run_threads(8, work)
        assert INSTR.get("t.weighted") - before_c == 24
        assert INSTR.time("t.phase") > before_t

    def test_counts_survive_thread_exit(self):
        before = INSTR.get("t.exited")
        t = threading.Thread(target=lambda: INSTR.count("t.exited", 7))
        t.start()
        t.join()
        # the dead thread's shard must stay visible (and survive the
        # compaction a new shard registration triggers)
        t2 = threading.Thread(target=lambda: INSTR.count("t.other"))
        t2.start()
        t2.join()
        assert INSTR.get("t.exited") - before == 7

    def test_thread_snapshot_is_private(self):
        _run_threads(4, lambda i: INSTR.count("t.noise", 100))
        snap = INSTR.thread_snapshot()
        assert "t.noise" not in snap["counters"]

    def test_reset_clears_all_shards(self):
        _run_threads(4, lambda i: INSTR.count("t.reset_me"))
        INSTR.reset()
        assert INSTR.get("t.reset_me") == 0
        assert "t.reset_me" not in INSTR.snapshot()["counters"]


# ---------------------------------------------------------------------------
# Compilation cache under threads
# ---------------------------------------------------------------------------

class TestCacheConcurrency:
    def test_lru_eviction_race(self, square):
        """8 threads rotating 3 structures through a capacity-2 LRU:
        constant hit/evict/re-search churn must stay correct and never
        corrupt the OrderedDict."""
        fmts = {name: as_format(square, name) for name in ("csr", "csc", "coo")}
        x = np.linspace(-1.0, 1.0, N)
        expect = {name: f.to_dense() @ x for name, f in fmts.items()}

        clear_compile_cache()
        old_cap = COMPILE_CACHE.capacity
        COMPILE_CACHE.capacity = 2
        try:
            def work(i):
                names = list(fmts)
                for j in range(2 * len(names)):
                    name = names[(i + j) % len(names)]
                    k = compile_kernel(ALL_KERNELS["mvm"](), {"A": fmts[name]},
                                       pick="first", cache="memory")
                    y = np.zeros(N)
                    k({"A": fmts[name], "x": x, "y": y}, {"m": N, "n": N})
                    assert np.allclose(y, expect[name])

            _run_threads(8, work)
            assert len(COMPILE_CACHE) <= 2
        finally:
            COMPILE_CACHE.capacity = old_cap
            clear_compile_cache()

    def test_concurrent_searches_match_serial(self, square):
        """cache="off" forces every thread through the full search —
        concurrently shared FM/pair memos must not change the answer."""
        A = as_format(square, "csr")
        ref = compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, cache="off")
        plans = [None] * 8

        def work(i):
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": A}, cache="off")
            plans[i] = (k.cost, k.pseudocode())

        _run_threads(8, work)
        assert all(p == (ref.cost, ref.pseudocode()) for p in plans)

    def test_concurrent_rerank_hits(self, square):
        """Concurrent hits whose instance statistics differ exercise the
        locked rerank path; every thread must still get a working kernel
        for its own instance."""
        clear_compile_cache()
        x = np.linspace(0.5, 1.5, N)
        variants = []
        for seed in range(6):
            dense = random_sparse(N, N, density=0.2 + 0.1 * (seed % 4),
                                  seed=seed).to_dense()
            variants.append((as_format(dense, "csr"), dense))

        def work(i):
            fmt, dense = variants[i % len(variants)]
            k = compile_kernel(ALL_KERNELS["mvm"](), {"A": fmt},
                               cache="memory")
            y = np.zeros(N)
            k({"A": fmt, "x": x, "y": y}, {"m": N, "n": N})
            assert np.allclose(y, dense @ x)

        _run_threads(12, work)
        clear_compile_cache()


# ---------------------------------------------------------------------------
# compile_many
# ---------------------------------------------------------------------------

class TestCompileMany:
    def test_error_isolation(self, square):
        """A bad item reports its error; the rest of the batch compiles."""
        A = as_format(square, "csr")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["mvm"](),
                 ALL_KERNELS["row_sums"]()]
        binds = [{"A": A}, {"NOPE": A}, {"A": A}]
        before = INSTR.get("service.items.error")

        batch = compile_many(progs, binds, max_workers=3)

        assert not batch.ok
        assert batch[0].ok and batch[2].ok
        assert isinstance(batch[1].error, KeyError)
        assert batch.kernels[1] is None
        assert list(batch.errors) == [1]
        assert INSTR.get("service.items.error") - before == 1
        with pytest.raises(KeyError):
            batch.raise_first()

    def test_raise_first_attaches_batch_context(self, square):
        """Regression: the re-raised exception must name the failing item
        (index + program name) while keeping the original traceback."""
        A = as_format(square, "csr")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["row_sums"]()]
        batch = compile_many(progs, [{"A": A}, {"NOPE": A}], max_workers=2)

        with pytest.raises(KeyError) as exc_info:
            batch.raise_first()
        err = exc_info.value
        assert err is batch[1].error            # same object, traceback intact
        assert err.__traceback__ is not None
        context = getattr(err, "__notes__", None) or [repr(err.__cause__)]
        assert any("item #1" in c and "'row_sums'" in c for c in context), context
        # the note must also render in the formatted traceback
        import traceback

        rendered = "".join(traceback.format_exception(err))
        assert "item #1" in rendered and "row_sums" in rendered

        # raising twice must not stack duplicate notes
        with pytest.raises(KeyError):
            batch.raise_first()
        context2 = getattr(err, "__notes__", None)
        if context2 is not None:
            assert len([c for c in context2 if "item #1" in c]) == 1

    def test_broadcast_and_order(self, square):
        """One shared binding mapping broadcasts; outcomes keep input order."""
        A = as_format(square, "csr")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["row_sums"]()]
        batch = compile_many(progs, {"A": A}, max_workers=4)
        assert batch.ok
        assert [o.index for o in batch] == [0, 1]
        assert [o.program.name for o in batch] == [p.name for p in progs]

    def test_shared_bindings_cover_heterogeneous_batch(self, square):
        """A shared map may bind arrays for the whole batch; each program
        sees only its own names (per-item sequences stay strict)."""
        A = as_format(square, "csr")
        L = as_format(np.tril(square) + 4.0 * np.eye(N), "csr")
        L.annotate_triangular("lower")
        progs = [ALL_KERNELS["mvm"](), ALL_KERNELS["ts_lower"]()]
        batch = compile_many(progs, {"A": A, "L": L}, max_workers=2)
        assert batch.ok
        # the same map as a per-item sequence is strict about names
        strict = compile_many(progs, [{"A": A, "L": L}] * 2, max_workers=2)
        assert not strict.ok

    def test_sequence_length_mismatch_rejected(self, square):
        A = as_format(square, "csr")
        with pytest.raises(ValueError, match="bindings"):
            compile_many([ALL_KERNELS["mvm"]()], [{"A": A}, {"A": A}])

    def test_invalid_workers_rejected(self, square):
        A = as_format(square, "csr")
        with pytest.raises(ValueError, match="max_workers"):
            compile_many([ALL_KERNELS["mvm"]()], {"A": A}, max_workers=0)

    def test_parallel_matches_serial_python_backend(self, square):
        """Worker-pool compilation must be a pure scheduling change."""
        fmts = [as_format(square, n) for n in ("csr", "csc", "coo", "ell")]
        progs = [ALL_KERNELS["mvm"]() for _ in fmts]
        binds = [{"A": f} for f in fmts]
        x = np.linspace(-2.0, 2.0, N)

        clear_compile_cache()
        serial = compile_many(progs, binds, max_workers=1, cache="memory")
        clear_compile_cache()
        threaded = compile_many(progs, binds, max_workers=8, cache="memory")
        assert serial.ok and threaded.ok

        for ks, kt, f in zip(serial.kernels, threaded.kernels, fmts):
            assert ks.pseudocode() == kt.pseudocode()
            ys, yt = np.zeros(N), np.zeros(N)
            ks({"A": f, "x": x, "y": ys}, {"m": N, "n": N})
            kt({"A": f, "x": x, "y": yt}, {"m": N, "n": N})
            assert ys.tobytes() == yt.tobytes()

    def test_threads_share_one_program(self, square):
        """Workers search one ``Program`` object at once (MSR and CSR
        bindings, more workers than cores, frequent thread switches), so
        they share its statement contexts and the domains memoized on
        them; the plans must equal serial compiles'."""
        import sys

        prog = ALL_KERNELS["mvm"]()
        binds = [{"A": as_format(square, f)} for f in ("msr", "csr") * 2]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = compile_many([prog] * len(binds), binds,
                                    max_workers=len(binds), cache="off")
        finally:
            sys.setswitchinterval(old)
        assert threaded.ok
        for k, b in zip(threaded.kernels, binds):
            ref = compile_kernel(ALL_KERNELS["mvm"](), b, cache="off")
            assert (k.cost, k.pseudocode()) == (ref.cost, ref.pseudocode())


# ---------------------------------------------------------------------------
# Native single-flight (needs a toolchain)
# ---------------------------------------------------------------------------

needs_cc = pytest.mark.skipif(be.find_compiler() is None,
                              reason="no C compiler on PATH")


def _fresh_native_state():
    be.reset_toolchain_cache(scratch=True)
    clear_compile_cache()


@needs_cc
class TestSingleFlight:
    def test_16_threads_one_cc_invocation(self, square):
        """16 threads, same digest: exactly one ``cc`` run; everyone else
        coalesces onto it or hits the in-process cache."""
        _fresh_native_state()
        A = as_format(square, "csr")
        before = INSTR.snapshot()["counters"]
        kernels = [None] * 16

        def work(i):
            kernels[i] = compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                        backend="c", cache="memory")

        _run_threads(16, work)

        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        assert delta("native.compiles") == 1
        assert delta("native.fallbacks") == 0
        # every non-leader either waited on the flight or arrived after
        # completion and hit the in-process cache
        assert (delta("native.so_cache.hits.coalesced")
                + delta("native.so_cache.hits.memory")) == 15
        assert all(k.backend_used.startswith("c") for k in kernels)

        x = np.linspace(-1.0, 1.0, N)
        ys = []
        for k in kernels:
            y = np.zeros(N)
            k({"A": A, "x": x, "y": y}, {"m": N, "n": N})
            ys.append(y.tobytes())
        assert len(set(ys)) == 1

    def test_leader_failure_observable_and_retried(self, square, monkeypatch):
        """When the leader's toolchain invocation fails, the follower
        observes the failure counter and retries before giving up."""
        _fresh_native_state()
        A = as_format(square, "csc")

        real_compile_so = be._compile_so
        fail_once = {"left": 1}
        waits_before = INSTR.get("native.singleflight.waits")

        def flaky(cc, c_source, flags, out_path):
            if fail_once["left"]:
                fail_once["left"] -= 1
                # hold the flight open until the other thread is actually
                # parked in event.wait(), then fail while it watches
                deadline = time.monotonic() + 30
                while (INSTR.get("native.singleflight.waits") == waits_before
                       and time.monotonic() < deadline):
                    time.sleep(0.005)
                raise RuntimeError("injected toolchain failure")
            return real_compile_so(cc, c_source, flags, out_path)

        monkeypatch.setattr(be, "_compile_so", flaky)
        before = INSTR.snapshot()["counters"]
        outcomes = [None, None]

        def work(i):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NativeBackendWarning)
                outcomes[i] = compile_kernel(
                    ALL_KERNELS["mvm"](), {"A": A},
                    backend="c", cache="memory")

        _run_threads(2, work)
        after = INSTR.snapshot()["counters"]
        delta = lambda k: after.get(k, 0) - before.get(k, 0)  # noqa: E731
        assert delta("native.singleflight.leader_failures") >= 1
        # the retry shipped a working kernel to the follower
        assert any(k.backend_used.startswith("c") for k in outcomes)

    def test_stress_16_threads_mixed_batch(self, square):
        """Acceptance criterion: 16 workers over a mixed (same + distinct)
        batch through compile_many — exactly one cc invocation per unique
        digest, per-item success, results byte-identical to serial."""
        fmt_names = ["csr", "csc", "coo", "dia", "ell", "jad", "msr"]
        fmts = [as_format(square, n) for n in fmt_names]
        items = [(ALL_KERNELS["mvm"](), {"A": f})
                 for f in fmts] * 4                      # 28 items, 7 digests
        progs = [p for p, _b in items]
        binds = [b for _p, b in items]
        x = np.linspace(-1.0, 1.0, N)

        def run_all(batch):
            outs = []
            for o, b in zip(batch, binds):
                y = np.zeros(N)
                o.kernel({**b, "x": x, "y": y}, {"m": N, "n": N})
                outs.append(y.tobytes())
            return outs

        _fresh_native_state()
        before = INSTR.get("native.compiles")
        serial = compile_many(progs, binds, max_workers=1,
                              backend="c", cache="memory")
        serial_compiles = INSTR.get("native.compiles") - before
        assert serial.ok
        assert serial_compiles == len(fmt_names)
        serial_out = run_all(serial)

        _fresh_native_state()
        before = INSTR.get("native.compiles")
        fallbacks_before = INSTR.get("native.fallbacks")
        threaded = compile_many(progs, binds, max_workers=16,
                                backend="c", cache="memory")
        assert threaded.ok
        assert INSTR.get("native.compiles") - before == len(fmt_names)
        assert INSTR.get("native.fallbacks") - fallbacks_before == 0
        assert all(o.kernel.backend_used.startswith("c") for o in threaded)

        assert run_all(threaded) == serial_out
