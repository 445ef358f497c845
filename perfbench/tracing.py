"""Span recording for the traced benchmark run.

The benchmark records spans from its own files: :meth:`Tracer.install`
wraps the public function of each layer (compile, search, codegen, ``cc``,
format conversion, SpGEMM, wire encoding) in place, and
:meth:`Tracer.uninstall` puts the originals back.  Spans live in memory
and are written once, as Chrome trace-event JSON (``{"traceEvents":
[...]}``), which Perfetto and ``chrome://tracing`` open directly.

A span's self time is its duration minus the part of it covered by its
direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

#: (module, attribute, span name).  A layer is wrapped where its callers
#: look it up: ``repro.core.compiler`` imports ``search`` by name and
#: ``repro.search.driver`` imports ``dependences`` by name, so those
#: bindings are the ones replaced.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.compiler", "compile_kernel", "compile.compile_kernel"),
    ("repro.core", "compile_kernel", "compile.compile_kernel"),
    ("repro.core.service", "compile_kernel", "compile.compile_kernel"),
    ("repro.core.compiler", "search", "search.search"),
    ("repro.search.driver", "dependences", "analysis.dependences"),
    ("repro.codegen.pysource", "compile_plan_to_python", "codegen.python"),
    ("repro.codegen.native", "lower_kernel", "codegen.c_lower"),
    ("repro.core.backend", "compile_native_function", "backend.cc"),
    ("repro.formats.convert", "convert", "formats.convert"),
    ("repro.blas.api", "spgemm", "blas.spgemm"),
    ("repro.blas.api", "spgemm_triples", "blas.spgemm_triples"),
    ("repro.core.wire", "encode_format", "wire.encode"),
    ("repro.core.wire", "decode_format", "wire.decode"),
)

#: span names whose self time the traced run reports
SELF_TIME_LAYERS = tuple(dict.fromkeys(name for _m, _a, name in LAYERS)) + (
    "solver.context",)


class Tracer:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._t0 = time.perf_counter()
        #: (name, start_s, dur_s, thread id, span id, parent id, args)
        self.spans: List[Tuple[str, float, float, int, int, Optional[int], Dict]] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    def span(self, name: str, **args):
        return _Span(self, name, args)

    def _stack(self) -> List[int]:
        st = getattr(self._tls, "stack", None)
        if st is None:
            st = self._tls.stack = []
        return st

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _record(self, rec) -> None:
        with self._lock:
            self.spans.append(rec)

    # -- layer wrapping ------------------------------------------------------
    def install(self) -> None:
        """Wrap every layer in :data:`LAYERS` (idempotent per tracer)."""
        if self._saved:
            return
        for mod_name, attr, name in LAYERS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with tracer.span(name):
                return fn(*a, **kw)

        return wrapper

    def write_chrome(self, path: str, metadata: Dict) -> None:
        """Write the spans as Chrome trace-event JSON (complete events)."""
        pid = os.getpid()
        events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "args": {"name": "perfbench"}}]
        for name, start, dur, tid, sid, parent, args in self.spans:
            events.append({
                "name": name, "cat": name.split(".", 1)[0], "ph": "X",
                "ts": round((start - self._t0) * 1e6, 3),
                "dur": round(dur * 1e6, 3), "pid": pid, "tid": tid,
                "args": dict(args, span_id=sid, parent_id=parent),
            })
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": metadata}, f)
        os.replace(tmp, path)


class _Span:
    __slots__ = ("tracer", "name", "args", "sid", "parent", "start")

    def __init__(self, tracer: Tracer, name: str, args: Dict):
        self.tracer = tracer
        self.name = name
        self.args = args

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.sid = self.tracer._new_id()
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        dur = time.perf_counter() - self.start
        self.tracer._stack().pop()
        self.tracer._record((self.name, self.start, dur,
                             threading.get_ident(), self.sid, self.parent,
                             self.args))


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: spans cost one
    attribute lookup and record nothing."""

    spans: List = []

    def span(self, name: str, **args):
        return _NULL_SPAN

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


# -- summaries over a list of spans -------------------------------------------------

def totals(spans) -> Dict[str, float]:
    """Summed duration (seconds) per span name."""
    out: Dict[str, float] = {}
    for name, _s, dur, *_rest in spans:
        out[name] = out.get(name, 0.0) + dur
    return out


def _child_sums(spans) -> Dict[int, float]:
    sums: Dict[int, float] = {}
    for _n, _s, dur, _t, _sid, parent, _a in spans:
        if parent is not None:
            sums[parent] = sums.get(parent, 0.0) + dur
    return sums


def self_times(spans) -> Dict[str, float]:
    """Summed self time (seconds) per span name."""
    child = _child_sums(spans)
    out: Dict[str, float] = {}
    for name, _s, dur, _t, sid, _p, _a in spans:
        out[name] = out.get(name, 0.0) + dur - child.get(sid, 0.0)
    return out


def coverage(spans, name: str) -> float:
    """Share of the time in spans called ``name`` that their direct
    child spans account for (0 when there is no such span)."""
    child = _child_sums(spans)
    wall = covered = 0.0
    for n, _s, dur, _t, sid, _p, _a in spans:
        if n == name:
            wall += dur
            covered += child.get(sid, 0.0)
    return covered / wall if wall else 0.0
