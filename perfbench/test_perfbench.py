"""Tests of the benchmark itself: a corrupted output counts as a failure,
a short run of every workload emits every named metric, and a directory
without the repro sources makes the command fail.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for p in (HERE, os.path.join(ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import inputs  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from repro.core.compiler import CompiledKernel  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
OUTPUT_NAMES = ("y", "b", "Y", "C")


@pytest.fixture(scope="module")
def inputs_path(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    path = str(d / "inputs.npz")
    np.savez(path, triad_gbs=10.0, **inputs.build("warm-small", 3))
    return path


def make_run(inputs_path, tmp_path):
    return workload.Run("warm-small", 3, 1.0, False, inputs_path,
                        str(tmp_path))


@pytest.fixture
def corrupt_kernels(monkeypatch):
    """Every CompiledKernel call writes a wrong first output entry."""
    orig = CompiledKernel.__call__

    def bad_call(self, arrays, params):
        orig(self, arrays, params)
        for name in OUTPUT_NAMES:
            out = arrays.get(name)
            if isinstance(out, np.ndarray) and out.size:
                out.flat[0] += 1.0

    monkeypatch.setattr(CompiledKernel, "__call__", bad_call)


def test_corrupted_compile_output_is_a_failure(inputs_path, tmp_path,
                                               corrupt_kernels):
    run = make_run(inputs_path, tmp_path)
    fam = workload.CompileFamily(run, (("mvm", "csr"),))
    fam.pass_once()
    assert run.ledger.attempted == 1
    assert run.ledger.failed == 1


def test_corrupted_kernel_output_is_a_failure(inputs_path, tmp_path,
                                              corrupt_kernels):
    run = make_run(inputs_path, tmp_path)
    fam = workload.KernelsFamily(run, {"formats": ("csr",),
                                       "ops": ("spmv", "ts")})
    fam.setup()
    fam.measure(0.2)
    led = run.ledger
    assert led.failed > 0
    # every checked batch failed, so nothing was counted as good
    assert led.failed == led.attempted


def test_correct_kernels_pass(inputs_path, tmp_path):
    run = make_run(inputs_path, tmp_path)
    fam = workload.KernelsFamily(run, {"formats": ("csr",),
                                       "ops": ("spmv", "spgemm")})
    fam.setup()
    fam.measure(0.2)
    assert run.ledger.attempted > 0 and run.ledger.failed == 0
    assert set(fam.e2e) == {"spmv_vs_scipy", "spgemm_vs_scipy"}


def test_corrupted_solver_output_is_a_failure(inputs_path, tmp_path,
                                              monkeypatch):
    run = make_run(inputs_path, tmp_path)
    fam = workload.SolveFamily(run, {"matrix": "lap32", "ops": ("spmv",)})
    fam.setup()
    orig = fam.ctx.matvec

    def bad_matvec(x, out=None):
        y = orig(x, out=out)
        y[0] += 1.0
        return y

    monkeypatch.setattr(fam.ctx, "matvec", bad_matvec)
    fam.measure(0.2)
    assert run.ledger.failed > 0


def test_wrong_daemon_handle_is_a_failure(inputs_path, tmp_path):
    run = make_run(inputs_path, tmp_path)
    fam = workload.DaemonFamily(run)
    try:
        fam.setup()
        assert run.ledger.failed == 0
        for key in fam.primed:
            fam.primed[key] = "0" * 64
        fam.measure(0.5)
    finally:
        fam.teardown()
    assert fam.proc is None
    assert run.ledger.failed > 0


def test_self_time_and_coverage():
    # parent 0..10 with children 1..3 and 4..8; one unrelated root span
    spans = [
        ("child", 1.0, 2.0, 1, 2, 1, {}),
        ("child", 4.0, 4.0, 1, 3, 1, {}),
        ("parent", 0.0, 10.0, 1, 1, None, {}),
        ("other", 20.0, 1.0, 1, 4, None, {}),
    ]
    assert tracing.self_times(spans) == {"child": 6.0, "parent": 4.0,
                                         "other": 1.0}
    assert tracing.totals(spans)["child"] == 6.0
    assert tracing.coverage(spans, "parent") == pytest.approx(0.6)


def _run(args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_short_run_emits_every_metric(name, trace):
    p = _run(["--workload", name, "--seed", "5", "--seconds", "1",
              "--trace", str(trace)])
    assert p.returncode == 0, p.stderr[-2000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        with open(os.path.join(HERE, "out", f"{name}-seed5-trace.json")) as f:
            events = json.load(f)["traceEvents"]
        assert any(e["ph"] == "X" and e["name"] == "compile.compile_kernel"
                   for e in events)
    leftovers = [d for d in os.listdir(os.path.join(HERE, "out"))
                 if d.startswith("run-")]
    assert leftovers == []


def test_fails_without_repro_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(["--workload", "warm-small", "--seed", "1", "--seconds", "1"],
             cwd=str(tmp_path), timeout=180)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
