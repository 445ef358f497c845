"""The measuring process of one benchmark run (started by ``run.py``).

Every run drives four families of operations through ``repro``'s public
entry points and checks every output:

- ``compile``: cold ``compile_kernel(..., backend="c", cache="off")``;
- ``kernels``: warm native kernels on ``can_1072_like`` called through
  ``CompiledKernel.__call__``, and ``blas.api.spgemm``;
- ``solve``: ``SolverContext`` matvec, fixed-iteration ``cg`` and
  ``matmat`` on a 2-D Laplacian;
- ``daemon``: a closed loop of two ``ServiceClient`` connections to
  ``python -m repro.core.daemon``.

A workload gives most of the run to the families it is about and a short
fixed slice to the others, so that every run reports every metric.  Run
times are ratios to the matching ``scipy`` call, timed in alternating
batches, and compile times ratios to CPython compiling a fixed module,
sampled while the compile runs (:class:`SpeedProbe`).  See README.md for
the reasons and the metric map.

Usage: ``python workload.py --workload NAME --seed N --seconds S
--trace 0|1 --inputs inputs.npz --out DIR``
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable, Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse as sp  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from inputs import CHECK_N, DAEMON_SIZES  # noqa: E402

import repro  # noqa: E402
from repro.blas import api as blas_api  # noqa: E402
from repro.core import backend as be  # noqa: E402
from repro.core import compiler  # noqa: E402
from repro.core.cache import clear_compile_cache  # noqa: E402
from repro.core.client import ServiceClient, ServiceError  # noqa: E402
from repro.core.embedding import clear_pair_memo  # noqa: E402
from repro.core import wire  # noqa: E402
from repro.formats import as_format  # noqa: E402
from repro.formats.coo import CooMatrix  # noqa: E402
from repro.formats.csr import CsrMatrix  # noqa: E402
from repro.instrument import INSTR  # noqa: E402
from repro.ir.interp import execute_dense  # noqa: E402
from repro.ir.kernels import ALL_KERNELS  # noqa: E402
from repro.ir.printer import program_to_text  # noqa: E402
from repro.polyhedra.fm import clear_memos  # noqa: E402
from repro.solvers.cg import cg  # noqa: E402
from repro.solvers.context import SolverContext  # noqa: E402


def _load_conftest():
    """``benchmarks/conftest.py`` holds the toolchain stamp every BENCH
    record carries; import it by path rather than copy it."""
    spec = importlib.util.spec_from_file_location(
        "repro_bench_conftest", os.path.join(ROOT, "benchmarks", "conftest.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


# -- fixed benchmark parameters ------------------------------------------------

#: the compile-cold set: (kernel, format) on can_1072_like
COMPILE_FULL = (("mvm", "csr"), ("ts_lower", "csr"), ("mvm", "csc"),
                ("ts_lower", "csc"), ("mvm", "jad"), ("ts_lower", "jad"),
                ("mvm", "msr"), ("ts_lower", "msr"), ("spmm", "csr"),
                ("spgemm", "csr"))
COMPILE_SHORT = (("mvm", "csr"), ("ts_lower", "csr"), ("spmm", "csr"))
#: a compile item faster than CHEAP_S seconds is timed at least
#: CHEAP_SAMPLES times (cc start-up makes single samples noisy)
CHEAP_S = 0.5
CHEAP_SAMPLES = 5
PANEL_K = 8
CG_ITERS = {"lap32": 50, "lap1000": 10}
#: share of requests that carry new values for a primed structure
REVALUE_P = 0.1
DAEMON_CLIENTS = 2
DAEMON_PROGRAMS = ("mvm", "mvm_t", "spmm")
#: seconds a daemon may take to start listening
DAEMON_START_S = 60.0
#: relative tolerances against scipy (reassociation only; the
#: byte-identity checks against the Python backend are exact)
RTOL = {"spmv": 1e-12, "ts": 1e-10, "spmm": 1e-12, "spgemm": 1e-12,
        "cg": 1e-8}

#: per workload: the share of ``--seconds`` each family measures for,
#: and the configuration of each family.  A workload's own families get
#: most of the run; the others run a short fixed slice so that every run
#: reports every metric.
WORKLOADS = {
    "compile-cold": {
        "share": {"compile": 0.6, "kernels": 0.25, "solve": 0.05, "daemon": 0.1},
        "compile": COMPILE_FULL,
        "kernels": {"formats": ("csr",), "ops": ("spmv", "ts", "spmm", "spgemm")},
        "solve": {"matrix": "lap32", "ops": ("cg",)},
    },
    "warm-small": {
        "share": {"compile": 0.1, "kernels": 0.66, "solve": 0.14, "daemon": 0.1},
        "compile": COMPILE_SHORT,
        "kernels": {"formats": ("csr", "csc", "jad"),
                    "ops": ("spmv", "ts", "spmm", "spgemm")},
        "solve": {"matrix": "lap32", "ops": ("cg",)},
    },
    "solve-large": {
        "share": {"compile": 0.1, "kernels": 0.14, "solve": 0.66, "daemon": 0.1},
        "compile": COMPILE_SHORT,
        "kernels": {"formats": ("csr",), "ops": ("ts", "spgemm")},
        "solve": {"matrix": "lap1000", "ops": ("spmv", "cg", "spmm")},
    },
    "daemon-mix": {
        "share": {"compile": 0.1, "kernels": 0.3, "solve": 0.1, "daemon": 0.5},
        "compile": COMPILE_SHORT,
        "kernels": {"formats": ("csr",), "ops": ("spmv", "ts", "spmm", "spgemm")},
        "solve": {"matrix": "lap32", "ops": ("cg",)},
    },
}
SPGEMM_TIERS = ("native", "vectorized", "specialized", "generic")


# -- bookkeeping -----------------------------------------------------------------

class Ledger:
    """Operations attempted and failed; a failed check counts every
    operation it vouches for."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._lock = threading.Lock()

    def record(self, n: int, ok: bool, what: str) -> bool:
        with self._lock:
            self.attempted += n
            if not ok:
                self.failed += n
                if len(self.failures) < 50:
                    self.failures.append(what)
        return ok


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return bool(np.all(np.abs(got - want) <= rtol * max(scale, 1e-300)))


@dataclass
class Timing:
    ratio: float            # median over rounds of ours / reference
    ours_s: float           # median seconds per call, ours
    ref_s: float            # median seconds per call, reference


def _batch_size(fn: Callable[[], object], target: float = 0.001) -> int:
    fn()
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= target or n >= 1 << 16:
            return n
        n *= 2


def _per_call(fn: Callable[[], object], n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - t0) / n


def interleaved(ours: Callable[[], object], ref: Callable[[], object],
                budget: float, check: Callable[[int], None],
                min_rounds: int = 5) -> Timing:
    """Alternate batches of ``ours`` and ``ref`` (flipping which goes
    first) until ``budget`` seconds pass; ``check(calls)`` vets ours'
    latest output after each round."""
    n_o, n_r = _batch_size(ours), _batch_size(ref)
    check(1)
    rounds: List[Tuple[float, float]] = []
    deadline = time.perf_counter() + budget
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        if len(rounds) % 2:
            b = _per_call(ref, n_r)
            a = _per_call(ours, n_o)
        else:
            a = _per_call(ours, n_o)
            b = _per_call(ref, n_r)
        check(n_o)
        rounds.append((a, b))
    return Timing(statistics.median(a / b for a, b in rounds),
                  statistics.median(a for a, _ in rounds),
                  statistics.median(b for _, b in rounds))


#: the outside reference for compile times: CPython compiling a fixed
#: 20-line module (about 0.3 ms)
_PYC_SOURCE = "\n".join(
    f"def f{i}(a, b=({i}, '{i}'), *c, **d):\n"
    f"    x = [v * {i} for v in range(a) if v % 3]\n"
    f"    y = {{k: (k, {i}) for k in x}}\n"
    f"    return sum(x) + len(y) if a > {i} else f{i}(a + 1)\n"
    for i in range(5))
#: wall seconds between two reference samples during a compile
PROBE_INTERVAL_S = 0.01


def pyc_seconds() -> float:
    t0 = time.perf_counter()
    compile(_PYC_SOURCE, "perfbench-reference", "exec")
    return time.perf_counter() - t0


class SpeedProbe:
    """States the wall time of the code it brackets in units of the
    reference compile, sampled while that code runs.

    The cores of a shared machine switch between a fast and a slow state
    (about 1.7x) every few seconds, so a reference timed before and after
    a compile of several seconds misses the state the compile ran in.  A
    SIGALRM timer fires every :data:`PROBE_INTERVAL_S` and times one
    reference compile on the same core; each interval of the operation
    counts as interval / reference time, so a slow stretch is divided by
    a slow reference.  The samples' own time is taken out of the wall
    time.  The process is pinned to one core meanwhile, so that the
    ``cc`` it starts runs where the reference is sampled.  Main thread
    only."""

    def __enter__(self) -> "SpeedProbe":
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(self._cpus)})
        self.samples = [pyc_seconds()]
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self.t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def _tick(self, _sig, _frame) -> None:
        self.samples.append(pyc_seconds())

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.wall = time.perf_counter() - self.t0
        signal.signal(signal.SIGALRM, self._old)
        self.samples.append(pyc_seconds())
        os.sched_setaffinity(0, self._cpus)
        # the first and last samples were taken outside the wall time
        self.seconds = self.wall - sum(self.samples[1:-1])
        self.ratio = self.seconds * statistics.mean(1.0 / s for s in self.samples)


def geomean(xs: List[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs))


def cold_reset() -> None:
    """Forget everything a compile could reuse: the compile cache, the
    Fourier-Motzkin and pair memos, loaded and on-disk ``.so`` files."""
    clear_compile_cache()
    clear_memos()
    clear_pair_memo()
    gc.collect()
    be.reset_toolchain_cache()
    tmp = os.environ.get("TMPDIR", "")
    if tmp:
        for path in glob.glob(os.path.join(tmp, "repro-native-*", "*.so")):
            os.unlink(path)
    # re-probe outside any timed region: a process probes once
    cc = be.find_compiler()
    if cc:
        be.compiler_identity(cc)


class Inputs:
    """The seeded matrices written by ``inputs.py``."""

    def __init__(self, path: str):
        self._z = np.load(path)

    def coo(self, name: str) -> CooMatrix:
        z = self._z
        shape = tuple(int(v) for v in z[f"{name}.shape"])
        return CooMatrix(z[f"{name}.rows"], z[f"{name}.cols"],
                         z[f"{name}.vals"], shape)

    def scalar(self, name: str) -> float:
        return float(self._z[name])

    def scipy_csr(self, name: str):
        m = self.coo(name)
        return sp.csr_array((m.vals, (m.rows, m.cols)), shape=m.shape)


def kernel_arrays(kernel: str, fmt, other=None, k: int = PANEL_K,
                  rng=None) -> Tuple[Dict, Dict, str]:
    """(arrays, params, output name) for one call of a kernel from
    ``ALL_KERNELS`` on ``fmt``."""
    rng = rng or np.random.default_rng(0)
    m, n = fmt.nrows, fmt.ncols
    if kernel == "mvm":
        return ({"A": fmt, "x": rng.integers(-3, 4, n).astype(float),
                 "y": np.zeros(m)}, {"m": m, "n": n}, "y")
    if kernel == "ts_lower":
        return ({"L": fmt, "b": rng.integers(-3, 4, n).astype(float)},
                {"n": n}, "b")
    if kernel == "spmm":
        return ({"A": fmt, "X": rng.integers(-3, 4, (n, k)).astype(float),
                 "Y": np.zeros((m, k))}, {"m": m, "n": n, "k": k}, "Y")
    if kernel == "spgemm":
        return ({"A": fmt, "B": other, "C": np.zeros((m, other.ncols))},
                {"m": m, "n": n, "k": other.ncols}, "C")
    raise ValueError(kernel)


def vetter(ledger: Ledger, out: np.ndarray, want: np.ndarray, op: str,
           what: str) -> Callable[[int], None]:
    """The ``check`` for :func:`interleaved`: ``out``, which every call
    overwrites, must be within ``RTOL[op]`` of scipy's ``want``."""
    def check(calls: int) -> None:
        ledger.record(calls, close(out, want, RTOL[op]),
                      f"{what}: differs from scipy")
    return check


def first_call(ledger: Ledger, K, arrays: Dict, params: Dict, out: str,
               what: str) -> None:
    """Call ``K`` once and count it failed unless it ran natively and gave
    the bytes of the Python backend on a copy of the same inputs."""
    ref = {k: (v.copy() if isinstance(v, np.ndarray) else v)
           for k, v in arrays.items()}
    K(arrays, params)
    K.callable()(ref, dict(params))
    native = K.backend_used in ("c", "c+openmp")
    ledger.record(1, native and same_bytes(arrays[out], ref[out]),
                  f"{what}: backend_used={K.backend_used} "
                  f"({K.fallback_reason}) or bytes differ from the Python backend")


def _bindings(kernel: str, inst, other=None) -> Dict:
    if kernel == "ts_lower":
        return {"L": inst}
    if kernel == "spgemm":
        return {"A": inst, "B": other}
    return {"A": inst}


# -- the families ----------------------------------------------------------------

class Family:
    name = ""
    #: cold set-ups per run; the family's set-up time is their median
    setup_reps = 3

    def __init__(self, run: "Run"):
        self.run = run
        self.ledger = run.ledger
        self.tracer = run.tracer
        self.inp = run.inputs
        self.e2e: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}

    def setup(self) -> Dict[str, float]:
        """Build what the timed operations need; returns extra set-up
        timings (seconds) by name."""
        return {}

    def teardown(self) -> None:
        pass

    def measure(self, budget: float) -> None:
        raise NotImplementedError


class CompileFamily(Family):
    name = "compile"
    setup_reps = 1      # nothing to set up: every compile is timed

    def __init__(self, run, items):
        super().__init__(run)
        self.items = items
        coo = {"can": self.inp.coo("can"), "can_lower": self.inp.coo("can_lower")}
        self.src = {k: coo["can_lower" if k == "ts_lower" else "can"]
                    for k, _f in items}
        self.check_src = {"int": self.inp.coo("int"),
                          "int_lower": self.inp.coo("int_lower")}

    def _compile_one(self, kernel: str, fmt: str):
        src = self.src[kernel]
        inst = as_format(src, fmt)
        other = as_format(src, fmt) if kernel == "spgemm" else None
        prog = ALL_KERNELS[kernel]()
        cold_reset()
        with SpeedProbe() as probe:
            K = compiler.compile_kernel(prog, _bindings(kernel, inst, other),
                                        backend="c", cache="off")
        ok = K.backend_used in ("c", "c+openmp") and self._check(K, kernel, fmt)
        self.ledger.record(1, ok, f"compile {kernel}/{fmt}: "
                           f"backend_used={K.backend_used} {K.fallback_reason}")
        return K, probe

    def _check(self, K, kernel: str, fmt: str) -> bool:
        """The compiled kernel on a small integer-valued instance of the
        same format must match ``execute_dense`` bit for bit."""
        src = self.check_src["int_lower" if kernel == "ts_lower" else "int"]
        inst = as_format(src, fmt)
        other = as_format(src, fmt) if kernel == "spgemm" else None
        arrays, params, out = kernel_arrays(kernel, inst, other,
                                            rng=np.random.default_rng(CHECK_N))
        dense = {k: (v.to_dense() if hasattr(v, "to_dense") else v.copy())
                 for k, v in arrays.items()}
        K(arrays, params)
        execute_dense(K.program, dense, params)
        return same_bytes(arrays[out], dense[out])

    def pass_once(self) -> List[Tuple[object, SpeedProbe]]:
        return [self._compile_one(k, f) for k, f in self.items]

    def measure(self, budget: float) -> None:
        """One cold compile of every item; items under ``CHEAP_S`` again
        until they have ``CHEAP_SAMPLES``; then more rounds, cheapest item
        first, while the budget lasts.  Each item's time is the median of
        its samples; ``compile_s`` is their sum."""
        tr = self.tracer
        deadline = time.perf_counter() + budget
        secs: Dict[Tuple[str, str], List[float]] = {it: [] for it in self.items}
        ratios: Dict[Tuple[str, str], List[float]] = {it: [] for it in self.items}

        def sample(it):
            K, probe = self._compile_one(*it)
            secs[it].append(probe.seconds)
            ratios[it].append(probe.ratio)
            return K

        mark = len(tr.spans)
        c0 = INSTR.snapshot()["counters"]
        with tr.span("family.compile.pass"):
            first = [sample(it) for it in self.items]
        c1 = INSTR.snapshot()["counters"]
        spans = tr.spans[mark:]
        order = sorted(self.items, key=lambda it: secs[it][0])
        for it in order:
            while secs[it][0] < CHEAP_S and len(secs[it]) < CHEAP_SAMPLES:
                sample(it)
        while time.perf_counter() + secs[order[0]][0] <= deadline:
            for it in order:
                if time.perf_counter() + secs[it][0] > deadline:
                    break
                sample(it)
        per_item = [statistics.median(secs[it]) for it in self.items]
        per_ratio = [statistics.median(ratios[it]) for it in self.items]
        self.e2e["compile_vs_pyc"] = sum(per_ratio)
        self.e2e["compile_median_vs_pyc"] = statistics.median(per_ratio)
        self.layers["compile_s"] = sum(per_item)
        self.layers["compile_median_s"] = statistics.median(per_item)
        if not self.run.traced:
            return
        # layer figures come from the first round: one compile per item
        tot = tracing.totals(spans)
        own = tracing.self_times(spans)
        st = [k.result.stats for k in first]
        L = self.layers
        L["analysis.dependences_s"] = tot.get("analysis.dependences", 0.0)
        L["search.search_s"] = own.get("search.search", 0.0)
        for ph in ("legality", "lowering", "costing"):
            L[f"search.{ph}_s"] = sum(s.timings.get(f"search.{ph}", 0.0)
                                      for s in st)
        L["search.generated"] = sum(s.generated for s in st)
        L["search.legal"] = sum(s.legal for s in st)
        L["search.lowered"] = sum(s.lowered for s in st)
        L["polyhedra.fm_eliminations"] = sum(s.fm_eliminations for s in st)
        L["codegen.python_s"] = tot.get("codegen.python", 0.0)
        L["codegen.python_bytes"] = sum(len(k.source) for k in first)
        L["codegen.c_lower_s"] = tot.get("codegen.c_lower", 0.0)
        L["codegen.c_bytes"] = sum(len(k.c_source or "") for k in first)
        L["backend.cc_s"] = tot.get("backend.cc", 0.0)

        def delta(name):
            return c1.get(name, 0) - c0.get(name, 0)

        L["backend.cc_invocations"] = delta("native.compiles")
        L["backend.fallbacks"] = delta("native.fallbacks")
        L["compile.coverage"] = tracing.coverage(spans, "compile.compile_kernel")


class KernelsFamily(Family):
    """Figure 12/13 natively: warm kernels on can_1072_like against
    scipy, plus ``blas.api.spgemm(A, A)`` against ``A @ A``."""

    name = "kernels"

    def __init__(self, run, cfg):
        super().__init__(run)
        self.formats = cfg["formats"]
        self.ops = cfg["ops"]
        self.can = self.inp.coo("can")
        self.can_lower = self.inp.coo("can_lower")
        self.S = self.inp.scipy_csr("can")
        self.SL = self.inp.scipy_csr("can_lower")

    def setup(self):
        t0 = time.perf_counter()
        self.A = {f: as_format(self.can, f) for f in self.formats}
        self.L = {f: as_format(self.can_lower, f) for f in self.formats}
        self.A_csr = (self.A["csr"] if "csr" in self.A
                      else as_format(self.can, "csr"))
        convert_s = time.perf_counter() - t0
        ck = compiler.compile_kernel
        self.K = {}
        for f in self.formats:
            if "spmv" in self.ops:
                self.K["mvm", f] = ck(ALL_KERNELS["mvm"](), {"A": self.A[f]},
                                      backend="c")
            if "ts" in self.ops:
                self.K["ts_lower", f] = ck(ALL_KERNELS["ts_lower"](),
                                           {"L": self.L[f]}, backend="c")
        if "spmm" in self.ops:
            self.K["spmm", "csr"] = ck(ALL_KERNELS["spmm"](),
                                       {"A": self.A_csr}, backend="c")
        return {"formats.convert_s": convert_s}

    def measure(self, budget: float) -> None:
        jobs = []
        for op in ("spmv", "ts"):
            if op in self.ops:
                jobs += [(op, f) for f in self.formats]
        jobs += [(op, "csr") for op in ("spmm", "spgemm") if op in self.ops]
        # scipy's spsolve_triangular is mostly Python, so the ts ratio
        # drifts with the machine more than the others: give it three times the time
        weight = {"ts": 3.0}
        unit = budget / sum(weight.get(op, 1.0) for op, _f in jobs)
        rng = np.random.default_rng(self.run.seed)
        ratios: Dict[str, List[float]] = {}
        for op, f in jobs:
            with self.tracer.span(f"family.kernels.{op}", format=f):
                t = getattr(self, f"_{op}")(f, rng, unit * weight.get(op, 1.0))
            ratios.setdefault(op, []).append(t.ratio)
        for op, rs in ratios.items():
            self.e2e[f"{op}_vs_scipy"] = geomean(rs)
        if self.run.traced:
            self._spgemm_layers()

    def _spmv(self, f, rng, budget) -> Timing:
        K = self.K["mvm", f]
        A = self.A[f]
        x = rng.random(A.ncols)
        y = np.zeros(A.nrows)
        arrays, params = {"A": A, "x": x, "y": y}, {"m": A.nrows, "n": A.ncols}
        first_call(self.ledger, K, arrays, params, "y", f"mvm/{f}")
        S = self.S if f != "csc" else self.S.tocsc()
        want = S @ x
        t = interleaved(lambda: K(arrays, params), lambda: S @ x, budget,
                        vetter(self.ledger, y, want, "spmv", f"mvm/{f}"))
        if self.run.traced and f == "csr":
            self.run.spmv_layers(K, A, arrays, params, lambda: S @ x, budget)
        return t

    def _ts(self, f, rng, budget) -> Timing:
        K = self.K["ts_lower", f]
        Lf = self.L[f]
        b0 = rng.random(Lf.ncols)
        b = b0.copy()
        arrays, params = {"L": Lf, "b": b}, {"n": Lf.ncols}
        first_call(self.ledger, K, arrays, params, "b", f"ts/{f}")
        SL = self.SL
        want = spla.spsolve_triangular(SL, b0, lower=True)

        def ours():
            np.copyto(b, b0)     # the solve is in place: restart from b0
            K(arrays, params)

        return interleaved(
            ours, lambda: spla.spsolve_triangular(SL, b0, lower=True), budget,
            vetter(self.ledger, b, want, "ts", f"ts/{f}"))

    def _spmm(self, f, rng, budget) -> Timing:
        K = self.K["spmm", "csr"]
        A = self.A_csr
        X = rng.random((A.ncols, PANEL_K))
        Y = np.zeros((A.nrows, PANEL_K))
        arrays = {"A": A, "X": X, "Y": Y}
        params = {"m": A.nrows, "n": A.ncols, "k": PANEL_K}
        first_call(self.ledger, K, arrays, params, "Y", "spmm/csr")
        S = self.S
        want = S @ X
        return interleaved(lambda: K(arrays, params), lambda: S @ X, budget,
                           vetter(self.ledger, Y, want, "spmm", "spmm/csr"))

    def _spgemm(self, f, rng, budget) -> Timing:
        A, S = self.A_csr, self.S
        want = S @ S
        want.sort_indices()
        last = {}

        def ours():
            last["C"] = blas_api.spgemm(A, A)

        def check(calls):
            C = last["C"]
            ok = (type(C) is CsrMatrix
                  and np.array_equal(C.rowptr, want.indptr)
                  and np.array_equal(C.colind, want.indices)
                  and close(C.values, want.data, RTOL["spgemm"]))
            self.ledger.record(calls, ok, "spgemm: differs from scipy")

        return interleaved(ours, lambda: S @ S, budget, check)

    def _spgemm_layers(self) -> None:
        A = self.A_csr
        L = self.layers
        reps = 3

        def best_of(fn):
            fn()
            return min(_per_call(fn, 1) for _ in range(reps))

        c0 = INSTR.snapshot()["counters"]
        blas_api.spgemm(A, A)
        c1 = INSTR.snapshot()["counters"]
        picked = [t for t in SPGEMM_TIERS
                  if c1.get(f"spgemm.tier.{t}", 0) > c0.get(f"spgemm.tier.{t}", 0)]
        L["blas.spgemm_tier"] = SPGEMM_TIERS.index(picked[-1]) if picked else -1
        L["blas.spgemm_ms"] = best_of(lambda: blas_api.spgemm(A, A)) * 1e3
        for t in SPGEMM_TIERS:
            L[f"blas.spgemm_triples_ms.{t}"] = best_of(
                lambda t=t: blas_api.spgemm_triples(A, A, tier=t)) * 1e3
        rows, cols, vals, _n = blas_api.spgemm_triples(A, A)
        L["blas.spgemm_pack_ms"] = best_of(lambda: CsrMatrix._from_canonical_coo(
            rows, cols, vals, (A.nrows, A.ncols))) * 1e3


class SolveFamily(Family):
    """``SolverContext`` on a 2-D Laplacian: matvec, fixed-iteration CG
    (``tol=0``) and an 8-column ``matmat``."""

    name = "solve"

    def __init__(self, run, cfg):
        super().__init__(run)
        self.matrix = cfg["matrix"]
        self.ops = cfg["ops"]
        self.coo = self.inp.coo(self.matrix)
        self.S = self.inp.scipy_csr(self.matrix)

    def setup(self):
        t0 = time.perf_counter()
        A = as_format(self.coo, "csr")
        t1 = time.perf_counter()
        with self.tracer.span("solver.context"):
            self.ctx = SolverContext(A, ops=("mvm", "spmm"))
        t2 = time.perf_counter()
        return {"formats.convert_s": t1 - t0, "solver.context_s": t2 - t1}

    def _check_bound(self) -> None:
        """The context's kernels, run on the small Laplacian (the large
        one is too big for the Python backend), must run natively and give
        the Python backend's bytes."""
        small = as_format(self.inp.coo("lap32"), "csr")
        rng = np.random.default_rng(self.run.seed)
        for op in ("mvm", "spmm"):
            arrays, params, out = kernel_arrays(op, small, rng=rng)
            first_call(self.ledger, self.ctx.bound(op).kernel, arrays, params,
                       out, f"solver {op}")

    def measure(self, budget: float) -> None:
        self._check_bound()
        ctx, S = self.ctx, self.S
        n = S.shape[0]
        rng = np.random.default_rng(self.run.seed + 1)
        each = budget / len(self.ops)
        if "spmv" in self.ops:
            x, y = rng.random(n), np.empty(n)
            want = S @ x
            with self.tracer.span("family.solve.spmv"):
                t = interleaved(
                    lambda: ctx.matvec(x, out=y), lambda: S @ x, each,
                    vetter(self.ledger, y, want, "spmv", "solver spmv"))
            self.e2e["spmv_vs_scipy"] = t.ratio
            if self.run.traced:
                b = ctx.bound("mvm")
                self.run.spmv_layers(b.kernel, ctx.A, {"A": ctx.A, "x": x, "y": y},
                                     dict(b.params), lambda: S @ x, each)
        if "cg" in self.ops:
            iters = CG_ITERS[self.matrix]
            b = rng.random(n)
            xs, _info = spla.cg(S, b, rtol=0.0, atol=0.0, maxiter=iters)
            last = {}

            def ours():
                last["x"], last["it"], _r = cg(ctx, b, tol=0.0, max_iter=iters)

            def check(calls):
                ok = last["it"] == iters and close(last["x"], xs, RTOL["cg"])
                self.ledger.record(calls, ok, "cg: differs from scipy")

            with self.tracer.span("family.solve.cg"):
                t = interleaved(
                    ours, lambda: spla.cg(S, b, rtol=0.0, atol=0.0,
                                          maxiter=iters), each, check)
            self.e2e["cg_vs_scipy"] = t.ratio
            self.cg_iter_s = t.ours_s / iters
        if "spmm" in self.ops:
            X, Y = rng.random((n, PANEL_K)), np.empty((n, PANEL_K))
            want = S @ X
            with self.tracer.span("family.solve.spmm"):
                t = interleaved(
                    lambda: ctx.matmat(X, out=Y), lambda: S @ X, each,
                    vetter(self.ledger, Y, want, "spmm", "solver spmm"))
            self.e2e["spmm_vs_scipy"] = t.ratio
        if self.run.traced:
            self._solver_layers(rng)

    def _solver_layers(self, rng) -> None:
        ctx, n = self.ctx, self.S.shape[0]
        x, y = rng.random(n), np.empty(n)
        X, Y = rng.random((n, PANEL_K)), np.empty((n, PANEL_K))
        mv = _per_call(lambda: ctx.matvec(x, out=y),
                       _batch_size(lambda: ctx.matvec(x, out=y)))
        mm = _per_call(lambda: ctx.matmat(X, out=Y),
                       _batch_size(lambda: ctx.matmat(X, out=Y)))
        L = self.layers
        L["solver.matvec_us"] = mv * 1e6
        L["solver.spmm_us"] = mm * 1e6
        L["solver.iter_us"] = self.cg_iter_s * 1e6
        L["solver.overhead_frac"] = 1.0 - mv / self.cg_iter_s


class DaemonFamily(Family):
    """Two closed-loop clients against a daemon subprocess.  About 90%
    of requests repeat a primed (program, structure) pair; the rest send
    new values for a primed structure."""

    name = "daemon"
    setup_reps = 2      # a daemon start plus priming takes about 2 s

    def __init__(self, run):
        super().__init__(run)
        self.mats = [as_format(self.inp.coo(f"daemon{i}"), "csr")
                     for i in range(len(DAEMON_SIZES))]
        self.sources = [program_to_text(ALL_KERNELS[p]())
                        for p in DAEMON_PROGRAMS]
        self.proc: Optional[subprocess.Popen] = None
        self.clients: List[ServiceClient] = []
        self.starts = 0

    def setup(self):
        self.teardown()
        self.starts += 1
        self.sock = sock = os.path.join(self.run.tmpdir,
                                        f"daemon-{self.starts}.sock")
        # the daemon imports the same repro as this process
        env = dict(os.environ,
                   PYTHONPATH=os.path.dirname(os.path.dirname(repro.__file__)))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.core.daemon", "--socket", sock,
             "--workers", str(DAEMON_CLIENTS)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env)
        self.clients = [ServiceClient(sock, timeout=60.0, connect_retries=1)
                        for _ in range(DAEMON_CLIENTS)]
        deadline = time.monotonic() + DAEMON_START_S
        for c in self.clients:
            while True:
                try:
                    c.connect()
                    break
                except ConnectionError:
                    if (self.proc.poll() is not None
                            or time.monotonic() > deadline):
                        raise RuntimeError("the daemon did not start (exit "
                                           f"code {self.proc.poll()})")
                    time.sleep(0.01)
        self.primed: Dict[Tuple[int, int], str] = {}
        for c in self.clients:
            for p, src in enumerate(self.sources):
                for s, A in enumerate(self.mats):
                    h = c.compile(src, {"A": A}, options={"backend": "c"})
                    ok = h.backend_used in ("c", "c+openmp")
                    want = self.primed.setdefault((p, s), h.handle)
                    self.ledger.record(1, ok and h.handle == want,
                                       f"daemon prime {p}/{s}: {h.raw}")
        return {}

    def teardown(self) -> None:
        for c in self.clients:
            c.close()
        self.clients = []
        proc, self.proc = self.proc, None
        if proc is None:
            return
        try:
            with ServiceClient(self.sock, timeout=10.0,
                               connect_retries=1) as c:
                c.shutdown()
            proc.wait(timeout=20)
        except (OSError, ServiceError, subprocess.TimeoutExpired):
            pass        # not answering: terminated below
        finally:
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def _request(self, idx: int, rng) -> Tuple[float, bool]:
        """One seeded request; returns (seconds, carried new values)."""
        c = self.clients[idx]
        p = int(rng.integers(len(self.sources)))
        s = int(rng.integers(len(self.mats)))
        A = self.mats[s]
        revalue = rng.random() < REVALUE_P
        if revalue:
            A = CsrMatrix(A.rowptr, A.colind,
                          rng.random(A.values.size) + 0.5, A.shape)
        t0 = time.perf_counter()
        try:
            h = c.compile(self.sources[p], {"A": A}, options={"backend": "c"})
            dt = time.perf_counter() - t0
            good = h.backend_used in ("c", "c+openmp") and (
                h.handle not in self.primed.values() if revalue
                else h.handle == self.primed[p, s])
            why = f"daemon reply {p}/{s} revalue={revalue}: {h.raw}"
        except (OSError, ServiceError) as e:   # a failed request
            dt = time.perf_counter() - t0
            good, why = False, f"daemon request raised {e!r}"
        self.ledger.record(1, good, why)
        return dt, revalue

    def _closed_loop(self, rngs, seconds: float, out: List) -> float:
        """Every client sends its next request as soon as the previous one
        is answered, for ``seconds``; appends (latency, new values) to
        ``out`` and returns the wall time."""
        errors: List[BaseException] = []
        results: List[List] = [[] for _ in self.clients]
        deadline = time.perf_counter() + seconds

        def body(i):
            try:
                while time.perf_counter() < deadline:
                    results[i].append(self._request(i, rngs[i]))
            except BaseException as e:      # re-raised below, in the caller
                errors.append(e)

        t0 = time.perf_counter()
        threads = [threading.Thread(target=body, args=(i,))
                   for i in range(len(self.clients))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 120)
        wall = time.perf_counter() - t0
        if errors or any(t.is_alive() for t in threads):
            raise RuntimeError(f"closed loop failed: {errors}")
        for r in results:
            out.extend(r)
        return wall

    def measure(self, budget: float) -> None:
        rngs = [np.random.default_rng([self.run.seed, i])
                for i in range(len(self.clients))]
        reqs: List[Tuple[float, bool]] = []
        with self.tracer.span("family.daemon.loop"):
            wall = self._closed_loop(rngs, budget, reqs)
        lats = sorted(dt for dt, _r in reqs)
        L = self.layers
        L["req_per_s"] = len(lats) / wall
        L["req_p50_ms"] = _quantile(lats, 0.5) * 1e3
        L["req_p99_ms"] = _quantile(lats, 0.99) * 1e3
        if self.run.traced:
            self._layers(reqs)

    def _layers(self, reqs) -> None:
        c = self.clients[0]
        L = self.layers
        pings = []
        for _ in range(50):
            t0 = time.perf_counter()
            c.ping()
            pings.append(time.perf_counter() - t0)
        L["daemon.ping_ms"] = statistics.median(pings) * 1e3
        hits = [dt for dt, r in reqs if not r]
        revs = [dt for dt, r in reqs if r]
        L["daemon.hit_ms"] = statistics.median(hits) * 1e3 if hits else -1.0
        L["daemon.revalue_ms"] = statistics.median(revs) * 1e3 if revs else -1.0
        enc, dec = [], []
        for A in self.mats:
            for _ in range(5):
                t0 = time.perf_counter()
                p = wire.encode_format(A)
                enc.append(time.perf_counter() - t0)
                t0 = time.perf_counter()
                wire.decode_format(p)
                dec.append(time.perf_counter() - t0)
        L["wire.encode_ms"] = statistics.median(enc) * 1e3
        L["wire.decode_ms"] = statistics.median(dec) * 1e3
        cnt = c.stats()["counters"]
        compiles = cnt.get("daemon.requests.compile", 0)
        lookups = cnt.get("cache.lookups", 0)
        cache_hits = cnt.get("cache.hits.exact", 0) + cnt.get("cache.hits.rerank", 0)
        L["daemon.handle_hit_rate"] = (cnt.get("daemon.handle.hits", 0)
                                       / max(compiles, 1))
        L["daemon.compile_cache_hit_rate"] = cache_hits / max(lookups, 1)
        L["daemon.native_compiles"] = cnt.get("native.compiles", 0)
        L["daemon.coalesced"] = cnt.get("daemon.coalesced", 0)
        L["daemon.rejects"] = sum(v for k, v in cnt.items()
                                  if k.startswith("daemon.rejects."))


def _quantile(sorted_vals: List[float], q: float) -> float:
    return sorted_vals[min(len(sorted_vals) - 1, int(q * len(sorted_vals)))]


# -- one run -----------------------------------------------------------------------

class Run:
    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 inputs_path: str, tmpdir: str):
        self.workload = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tmpdir = tmpdir
        self.inputs = Inputs(inputs_path)
        self.triad_gbs = self.inputs.scalar("triad_gbs")
        self.ledger = Ledger()
        self.tracer = tracing.Tracer() if traced else tracing.NullTracer()
        self.layers: Dict[str, float] = {}

    def families(self) -> List[Family]:
        c = self.cfg
        return [CompileFamily(self, c["compile"]), KernelsFamily(self, c["kernels"]),
                SolveFamily(self, c["solve"]), DaemonFamily(self)]

    def budget(self, fam: Family) -> float:
        return self.cfg["share"][fam.name] * self.seconds

    def spmv_layers(self, K, A, arrays, params, scipy_call, budget) -> None:
        """Split one warm CSR SpMV into wrapper, bound kernel and bytes."""
        nk = K.native()
        L = self.layers
        calls = [0]

        def wrapped():
            calls[0] += 1
            K(arrays, params)

        def bound():
            calls[0] += 1
            nk(arrays, params)

        p0 = INSTR.get("native.dispatch.prepared")
        t = interleaved(wrapped, bound, budget / 2, lambda _n: None)
        L["native.prepared_hit_rate"] = (
            (INSTR.get("native.dispatch.prepared") - p0) / calls[0])
        L["kernel.bound_us"] = t.ref_s * 1e6
        L["compiler.wrapper_us"] = (t.ours_s - t.ref_s) * 1e6
        L["kernel.scipy_us"] = _per_call(scipy_call, _batch_size(scipy_call)) * 1e6
        moved = sum(a.nbytes for a in (A.values, A.colind, A.rowptr,
                                        arrays["x"], arrays["y"]))
        L["kernel.bytes_per_nnz"] = moved / A.values.size
        L["kernel.gbs"] = moved / t.ref_s / 1e9
        L["triad.gbs"] = self.triad_gbs
        L["kernel.bw_frac"] = L["kernel.gbs"] / self.triad_gbs
        for opt in ("tiled", "fast"):
            Kt = compiler.compile_kernel(ALL_KERNELS["mvm"](), {"A": A},
                                         backend="c", cache="off", opt=opt)
            self.ledger.record(1, Kt.opt_used == opt,
                               f"mvm opt={opt} demoted to {Kt.opt_used}")
            nt = Kt.native()
            fn = lambda nt=nt: nt(arrays, params)  # noqa: E731
            L[f"kernel.{opt}_bound_us"] = _per_call(fn, _batch_size(fn)) * 1e6

    def execute(self, import_s: float = 0.0) -> Dict:
        """Set up and measure every family; ``import_s`` (imports and
        toolchain probes) is the first part of ``setup_s``."""
        if self.traced:
            self.tracer.install()
        setup_s = import_s
        setup_extra: Dict[str, List[float]] = {}
        e2e: Dict[str, float] = {}
        try:
            for fam in self.families():
                reps = []
                try:
                    for _ in range(fam.setup_reps):
                        cold_reset()
                        t0 = time.perf_counter()
                        with self.tracer.span(f"family.{fam.name}.setup"):
                            extra = fam.setup()
                        reps.append(time.perf_counter() - t0)
                        for k, v in extra.items():
                            setup_extra.setdefault(k, []).append(v)
                    setup_s += statistics.median(reps)
                    with self.tracer.span(f"family.{fam.name}"):
                        fam.measure(self.budget(fam))
                finally:
                    fam.teardown()
                e2e.update(fam.e2e)
                self.layers.update(fam.layers)
        finally:
            self.tracer.uninstall()
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for k in ("formats.convert_s", "solver.context_s"):
            self.layers[k] = statistics.median(setup_extra[k])
        if self.traced:
            self._trace_layers()
        return e2e

    def _trace_layers(self) -> None:
        own = tracing.self_times(self.tracer.spans)
        for name in tracing.SELF_TIME_LAYERS:
            self.layers[f"self.{name}_s"] = own.get(name, 0.0)
        # tracing overhead: the short compile set untraced and traced,
        # alternating, best of two each, in units of the reference compile
        fam = CompileFamily(self, COMPILE_SHORT)
        cost = {"off": [], "on": []}
        for mode in ("off", "on", "on", "off"):
            if mode == "on":
                self.tracer.install()
            try:
                cost[mode].append(sum(p.ratio for _k, p in fam.pass_once()))
            finally:
                self.tracer.uninstall()
        self.layers["trace.overhead_frac"] = min(cost["on"]) / min(cost["off"]) - 1.0


def stamp(run: Run, toolchain: Dict) -> Dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True, timeout=30).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"),
                                 recursive=True)):
        with open(path, "rb") as f:
            digest.update(f.read())
    return {
        "workload": run.workload, "seed": run.seed, "seconds": run.seconds,
        "trace": int(run.traced), "git_commit": commit,
        "source_digest": digest.hexdigest()[:16],
        "toolchain": toolchain, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "triad_gbs": run.triad_gbs,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace),
              args.inputs, os.environ.get("TMPDIR") or args.out)
    toolchain = _load_conftest().toolchain_info()
    e2e = run.execute(import_s=time.perf_counter() - _T_START)
    info = stamp(run, toolchain)
    base = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    if run.traced:
        run.tracer.write_chrome(base + "-trace.json", info)
        metrics = run.layers
    else:
        metrics = e2e
    led = run.ledger
    units = _units()
    record = {"stamp": info, "failures": led.failures,
              "end_to_end": e2e, "per_layer": run.layers}
    with open(base + f"-trace{args.trace}.json", "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"stamp": info}))
    print(json.dumps({
        "correct": led.failed == 0,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in sorted(metrics.items()) if k in units},
    }))
    return 0


def _units() -> Dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
