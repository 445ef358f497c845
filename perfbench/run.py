"""Entry point of the repro benchmark: one isolated run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It makes a private directory under
``perfbench/out/`` for ``TMPDIR`` and ``REPRO_CACHE_DIR``, generates the
seeded inputs in one fresh process (``inputs.py``), measures in another
(``workload.py``), and removes the private directory when both have
ended.  Both processes run with BLAS and OpenMP pinned to one thread,
NumPy's huge-page advice off, and every ``REPRO_*`` setting cleared.
The last line of standard output is the result object; records and
traces stay in ``perfbench/out/``.

Exits non-zero, printing no result, when the checkout has no ``repro``
sources or a step fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("compile-cold", "warm-small", "solve-large", "daemon-mix")
#: the whole run must end well inside the 180 s a run is allowed
DEADLINE_S = 170.0
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS")


def isolated_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    for k in _THREAD_VARS:
        env[k] = "1"
    # transparent huge pages depend on how fragmented the host's memory is:
    # with NumPy's madvise on, the n=1M SpMV ratio to scipy came out 0.70
    # or 0.81 from one run to the next, so every array gets 4 KiB pages
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    work = os.path.join(tmp, "tmp")
    os.makedirs(work)
    env["TMPDIR"] = work
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "cache")
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _run_child(cmd, env, deadline: float) -> int:
    """Run one step in its own session; on timeout kill the whole group,
    so a daemon it started cannot outlive it."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=max(1.0, deadline))
    except subprocess.TimeoutExpired:
        print(f"perfbench: {os.path.basename(cmd[1])} timed out",
              file=sys.stderr)
        return 124
    finally:
        try:    # also reaps a daemon the step left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (os.path.join("src", "repro", "__init__.py"),
                 os.path.join("benchmarks", "conftest.py")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"perfbench: {need} not found under {ROOT}; run from a "
                  "checkout of the repository", file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        env = isolated_env(tmp)
        inputs = os.path.join(tmp, "inputs.npz")
        t_end = time.monotonic() + DEADLINE_S
        rc = _run_child([sys.executable, os.path.join(HERE, "inputs.py"),
                         "--workload", args.workload, "--seed", str(args.seed),
                         "--out", inputs], env, t_end - time.monotonic())
        if rc != 0:
            return rc or 1
        return _run_child(
            [sys.executable, os.path.join(HERE, "workload.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--inputs", inputs, "--out", OUT],
            env, t_end - time.monotonic())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
