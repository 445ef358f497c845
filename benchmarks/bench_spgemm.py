"""SpGEMM benchmark: the dispatch tiers on a 2-D Laplacian squared.

``C = A A`` with A the 5-point Laplacian — the canonical computed-output
product (tridiagonal-block squared is pentadiagonal-block).  Timed:

- ``default``: ``spgemm(A, A)`` as a caller gets it — the native tier
  when a toolchain is present, the vectorized tier otherwise;
- ``native``: the compiled two-pass Gustavson kernel
  (:mod:`repro.blas.spgemm_native`; demotes to the vectorized tier
  without a toolchain);
- ``vectorized``: the scipy-free NumPy expand-sort-reduce CSR×CSR path;
- ``specialized-dense`` / ``specialized-hash``: the two-pass row-wise
  kernel with dense-marker and hash accumulators;
- ``generic``: the any-format-pair enumeration through ``iter_nonzeros``.

All tiers are byte-identical by contract (the differential wall pins it);
this benchmark cross-checks that on every run, then times them.  scipy's
``A @ A`` on the same operand is timed alongside and stored as
``baseline_seconds`` on every record.

Results append to ``BENCH_spgemm.json`` at the repo root via the shared
:func:`benchmarks.conftest.record_bench` appender.

Usage::

    python benchmarks/bench_spgemm.py --n 10000
    python benchmarks/bench_spgemm.py --n 2500 --check

``--check`` (the CI smoke mode) exits non-zero unless the vectorized tier
beats the generic one by the floor (5x at n >= 10000, 2x at smoke sizes),
the default dispatch runs the native tier whenever a toolchain is present
and takes at most 3x scipy's time, and the JSON file is a well-formed
list of records.
"""

from __future__ import annotations

import math
import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for p in (_ROOT, os.path.join(_ROOT, "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from benchmarks._cli import base_parser, best_of, check_json, record  # noqa: E402
from repro.blas import dense_ref, specialized  # noqa: E402
from repro.blas.api import spgemm  # noqa: E402
from repro.core import backend as be  # noqa: E402
from repro.formats import as_format  # noqa: E402
from repro.formats.generate import laplacian_2d  # noqa: E402
from repro.instrument import INSTR  # noqa: E402

BENCH_FILE = "BENCH_spgemm.json"
#: --check ceiling on the default dispatch's time relative to scipy
SCIPY_CEILING = 3.0
TIERS = ("native", "vectorized", "specialized", "generic")


def default_tier(A):
    """The tier ``spgemm(A, A)`` runs, read off the dispatch counters."""
    before = {t: INSTR.get(f"spgemm.tier.{t}") for t in TIERS}
    spgemm(A, A)
    ran = [t for t in TIERS if INSTR.get(f"spgemm.tier.{t}") > before[t]]
    return ran[-1] if ran else None


def run(n, repeats):
    """Returns ({label: seconds}, scipy seconds, default tier) for C = A A
    on the ~n-row Laplacian."""
    side = max(2, int(round(math.sqrt(n))))
    A = as_format(laplacian_2d(side), "csr")
    n_actual, nnz = A.nrows, A.nnz
    S = sp.csr_matrix((A.values, A.colind, A.rowptr), shape=A.shape)

    tiers = {
        "default": lambda: spgemm(A, A),
        "native": lambda: spgemm(A, A, tier="native"),
        "vectorized": lambda: spgemm(A, A, tier="vectorized"),
        "specialized-dense":
            lambda: specialized.spgemm_csr_csr(A, A, accumulator="dense"),
        "specialized-hash":
            lambda: specialized.spgemm_csr_csr(A, A, accumulator="hash"),
        "generic": lambda: spgemm(A, A, tier="generic"),
    }
    times = {}
    products = {}
    for tier, fn in tiers.items():
        products[tier] = fn()
        times[tier] = best_of(fn, repeats)
    S @ S
    scipy_s = best_of(lambda: S @ S, repeats)

    # byte-identity cross-check across all tiers (and, at small sizes,
    # against the dense oracle)
    Cref = products["vectorized"]
    for tier, C in products.items():
        for field in ("rowptr", "colind", "values"):
            if not np.array_equal(getattr(C, field), getattr(Cref, field)):
                raise AssertionError(f"{tier}: {field} diverged from the "
                                     f"vectorized tier")
    if n_actual <= 2000:
        d = A.to_dense()
        if not np.array_equal(Cref.to_dense(), dense_ref.spgemm(d, d)):
            raise AssertionError("vectorized tier diverged from the oracle")

    nmults = int((A.rowptr[A.colind + 1] - A.rowptr[A.colind]).sum())
    flops = dense_ref.flops_spgemm(nmults)
    for tier, secs in times.items():
        record(BENCH_FILE, f"spgemm/laplacian2d/{tier}", secs,
                     flops=flops, n=n_actual, nnz=nnz, nnz_out=Cref.nnz,
                     nmults=nmults, baseline_seconds=scipy_s,
                     speedup=times["generic"] / secs if secs > 0
                     else float("inf"))
        print(f"  {tier:18s} {secs * 1e3:9.3f} ms   "
              f"vs generic {times['generic'] / secs:6.2f}x   "
              f"vs scipy {secs / scipy_s:6.2f}x")
    tier = default_tier(A)
    print(f"  scipy A @ A        {scipy_s * 1e3:9.3f} ms   "
          f"(default tier: {tier})")
    print(f"  (n={n_actual}, nnz(A)={nnz}, nnz(C)={Cref.nnz}, "
          f"nmults={nmults})")
    return times, scipy_s, tier


def main(argv=None):
    ap = base_parser(__doc__, n=10000, repeats=5, backend=False)
    args = ap.parse_args(argv)

    print(f"spgemm benchmark: n~{args.n}, C = A A on the 2-D Laplacian")
    times, scipy_s, tier = run(args.n, args.repeats)
    n_entries = check_json(BENCH_FILE)
    print(f"  {BENCH_FILE}: {n_entries} records")

    if args.check:
        speedup = (times["generic"] / times["vectorized"]
                   if times["vectorized"] > 0 else float("inf"))
        # the 5x claim needs array ops to amortize; smoke sizes get 2x
        floor = 5.0 if args.n >= 10000 else 2.0
        if speedup < floor:
            print(f"FAIL: vectorized spgemm {speedup:.2f}x vs generic, "
                  f"below the {floor:.1f}x floor", file=sys.stderr)
            return 1
        if be.find_compiler() is not None and tier != "native":
            print(f"FAIL: default spgemm ran the {tier} tier with a "
                  f"toolchain present", file=sys.stderr)
            return 1
        vs_scipy = times["default"] / scipy_s
        if vs_scipy > SCIPY_CEILING:
            print(f"FAIL: default spgemm {vs_scipy:.2f}x scipy, above the "
                  f"{SCIPY_CEILING:.1f}x ceiling", file=sys.stderr)
            return 1
        print(f"check ok: vectorized {speedup:.2f}x vs generic "
              f"(floor {floor:.1f}x); default ({tier}) {vs_scipy:.2f}x "
              f"scipy (ceiling {SCIPY_CEILING:.1f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
