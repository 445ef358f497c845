"""Seeded input generation, run in its own process before measuring.

Generating ``laplacian_2d(1000)`` builds Python lists of about 5M entries
and peaks near 700 MB; doing it here keeps that peak and that time out of
the measuring process's ``peak_rss_mb`` and ``setup_s``.

Usage: ``python inputs.py --workload NAME --seed N --out inputs.npz``
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

#: order and seed offset of the daemon's primed structures
DAEMON_SIZES = (256, 384, 512)
#: rows of the small integer-valued instances the compile check runs on
CHECK_N = 16
LAPLACE_SMALL = 32
LAPLACE_LARGE = 1000


def _coo(prefix: str, mat) -> dict:
    return {f"{prefix}.rows": mat.rows, f"{prefix}.cols": mat.cols,
            f"{prefix}.vals": mat.vals,
            f"{prefix}.shape": np.array(mat.shape, dtype=np.int64)}


def integer_matrices(seed: int, n: int = CHECK_N):
    """A general and a unit-lower-triangular integer-valued matrix.  With
    entries in {-1, 1} and a unit diagonal every partial result of mvm,
    spmm, spgemm and the triangular solve is an integer below 2**53, so
    any evaluation order gives the same bits."""
    from repro.formats.coo import CooMatrix

    rng = np.random.default_rng(seed + 17)
    dense = rng.choice([-1.0, 0.0, 0.0, 1.0], size=(n, n))
    np.fill_diagonal(dense, 2.0)
    lower = np.tril(rng.choice([-1.0, 0.0, 1.0], size=(n, n)), -1)
    np.fill_diagonal(lower, 1.0)

    def to_coo(d):
        r, c = np.nonzero(d)
        return CooMatrix(r, c, d[r, c], d.shape)

    return to_coo(dense), to_coo(lower)


def triad_gbs(n: int = 1 << 23, reps: int = 5) -> float:
    """Best-of NumPy triad ``a = b + s*c`` bandwidth in GB/s on three
    64 MiB arrays (larger than a 105 MiB L3 together).  NumPy makes two
    passes (``a = s*c``, then ``a += b``), which move 5 x 8 bytes per
    element; that is the count used."""
    import time

    b = np.random.default_rng(0).random(n)
    c = np.random.default_rng(1).random(n)
    a = np.empty(n)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)
        best = min(best, time.perf_counter() - t0)
    return 5 * 8 * n / best / 1e9


def build(workload: str, seed: int) -> dict:
    from repro.formats.generate import (can_1072_like, laplacian_2d,
                                        lower_triangular_of)

    can = can_1072_like(n=1072, target_nnz=12444, seed=seed)
    gen, low = integer_matrices(seed)
    out = {}
    out.update(_coo("can", can))
    out.update(_coo("can_lower", lower_triangular_of(can)))
    out.update(_coo("int", gen))
    out.update(_coo("int_lower", low))
    out.update(_coo("lap32", laplacian_2d(LAPLACE_SMALL)))
    for i, n in enumerate(DAEMON_SIZES):
        out.update(_coo(f"daemon{i}", can_1072_like(
            n=n, target_nnz=12 * n, seed=seed * 31 + i + 1)))
    if workload == "solve-large":
        out.update(_coo("lap1000", laplacian_2d(LAPLACE_LARGE)))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    np.savez(args.out, triad_gbs=triad_gbs(),
             **build(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
