"""Native-C SpGEMM: Gustavson's two-pass algorithm, the CSR×CSR default.

The vectorized tier (:func:`repro.blas.api._spgemm_csr_csr_vectorized`)
materializes every intermediate product and sorts them; this module lowers
the classic row-wise dense-accumulator formulation (Gustavson 1978) to C
instead — one pass to count the computed output pattern, one to
accumulate values — compiled and cached through the same machinery as
the lowered kernels (:func:`repro.core.backend.compile_native_function`:
artifact digest, single-flight, disk layer).  The result comes back as
CSR arrays ``(rowptr, colind, values)``, so :func:`repro.blas.api.spgemm`
wraps them without a COO round trip.

Byte-identity: per output entry, every tier produces ``0.0 + p1 + p2 +
...`` with the products in (A-row position, B-row position) ascending
order — the flat expand order of the vectorized tier, the accumulator
order of the specialized tier, and the loop order here.  The marker array
stamps ``phase * m + row`` so the symbolic pass's residue can never alias
a numeric-pass row.

Column order: the numeric pass tracks each row's smallest and largest
output column.  When the row's ``uint64`` word window ``[cmin>>6,
cmax>>6]`` is narrow for the row's length — at most one word per stored
entry for rows of up to ``SMALL_SORT`` entries, at most ``BITMAP_SPAN``
words per entry for longer rows — the columns are set in a per-call
bitmap and read back in order by walking set bits (``ctz``), clearing
each word as it is read, so the bitmap is all-zero again for the next
row.  Wider windows — e.g. a 2-D Laplacian's short rows spread over far
bands — take an index-only comparison sort instead: insertion sort up to
``SMALL_SORT`` entries, heapsort (O(k log k) at any length) above.
Either way the values are gathered from the dense accumulator after
ordering, so the ordering never touches (or reorders the production of)
floating-point data.

A missing toolchain or failed compile raises; :func:`repro.blas.api`
translates that into an observable demotion to the vectorized tier.
"""

from __future__ import annotations

import ctypes
import threading
from typing import Tuple

import numpy as np

from repro.instrument import INSTR

#: a row longer than SMALL_SORT takes the bitmap when its word window is
#: at most this many words per stored entry (a shorter row: at most one)
BITMAP_SPAN = 4
#: rows up to this length order by insertion sort off the bitmap branch;
#: longer ones by heapsort
SMALL_SORT = 32

C_SOURCE = """\
#include <stdint.h>

#define BITMAP_SPAN %(span)d
#define SMALL_SORT %(small)d

#if defined(__GNUC__) || defined(__clang__)
#define CTZ64(w) __builtin_ctzll(w)
#else
static int CTZ64(uint64_t w) {
    int k = 0;
    while (!(w & 1u)) { w >>= 1; k++; }
    return k;
}
#endif

static void _sift_down(int64_t *a, int64_t root, int64_t end) {
    int64_t v = a[root];
    for (int64_t child = 2 * root + 1; child < end; child = 2 * root + 1) {
        if (child + 1 < end && a[child + 1] > a[child]) child++;
        if (a[child] <= v) break;
        a[root] = a[child];
        root = child;
    }
    a[root] = v;
}

static void _sort_cols(int64_t *a, int64_t n) {
    /* index-only: insertion sort for short rows, heapsort otherwise */
    if (n <= SMALL_SORT) {
        for (int64_t i = 1; i < n; i++) {
            int64_t v = a[i], j = i;
            while (j > 0 && a[j - 1] > v) { a[j] = a[j - 1]; j--; }
            a[j] = v;
        }
        return;
    }
    for (int64_t r = n / 2 - 1; r >= 0; r--) _sift_down(a, r, n);
    for (int64_t end = n - 1; end > 0; end--) {
        int64_t v = a[0]; a[0] = a[end]; a[end] = v;
        _sift_down(a, 0, end);
    }
}

void kernel(int64_t phase, int64_t m, int64_t n,
            const int64_t * restrict a_ptr,
            const int64_t * restrict a_col,
            const double * restrict a_val,
            const int64_t * restrict b_ptr,
            const int64_t * restrict b_col,
            const double * restrict b_val,
            int64_t * restrict marker,
            int64_t * restrict c_ptr,
            int64_t * restrict c_col,
            double * restrict c_acc,
            double * restrict c_val,
            uint64_t * restrict bitmap) {
    if (phase == 0) {
        /* symbolic: count distinct output columns per row */
        for (int64_t i = 0; i < m; i++) {
            int64_t count = 0;
            for (int64_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
                int64_t j = a_col[jj];
                for (int64_t kk = b_ptr[j]; kk < b_ptr[j + 1]; kk++) {
                    int64_t c = b_col[kk];
                    count += marker[c] != i;    /* branch-free: the */
                    marker[c] = i;              /* test is data-random */
                }
            }
            c_ptr[i + 1] = count;
        }
        return;
    }
    /* numeric: accumulate through the dense marker, then order columns */
    for (int64_t i = 0; i < m; i++) {
        int64_t stamp = m + i;          /* never collides with phase 0 */
        int64_t lo = c_ptr[i], top = lo, cmin = n, cmax = -1;
        for (int64_t jj = a_ptr[i]; jj < a_ptr[i + 1]; jj++) {
            int64_t j = a_col[jj];
            double av = a_val[jj];
            for (int64_t kk = b_ptr[j]; kk < b_ptr[j + 1]; kk++) {
                int64_t c = b_col[kk];
                if (marker[c] != stamp) {
                    marker[c] = stamp;
                    c_acc[c] = 0.0;
                    c_col[top++] = c;
                    if (c < cmin) cmin = c;
                    if (c > cmax) cmax = c;
                }
                c_acc[c] = c_acc[c] + av * b_val[kk];
            }
        }
        int64_t k = top - lo;
        if (k == 0) continue;
        int64_t w0 = cmin >> 6, w1 = cmax >> 6, words = w1 - w0 + 1;
        if (words <= (k <= SMALL_SORT ? k : BITMAP_SPAN * k)) {
            for (int64_t t = lo; t < top; t++)
                bitmap[c_col[t] >> 6] |= (uint64_t)1 << (c_col[t] & 63);
            int64_t t = lo;
            for (int64_t w = w0; w <= w1; w++) {
                uint64_t word = bitmap[w];
                if (!word) continue;
                bitmap[w] = 0;
                do {
                    int64_t c = (w << 6) + CTZ64(word);
                    c_col[t] = c;
                    c_val[t++] = c_acc[c];
                    word &= word - 1;
                } while (word);
            }
        } else {
            _sort_cols(c_col + lo, top - lo);
            for (int64_t t = lo; t < top; t++) c_val[t] = c_acc[c_col[t]];
        }
    }
}
""" % {"span": BITMAP_SPAN, "small": SMALL_SORT}

_bound_fn = None
_bind_lock = threading.Lock()


def _bind(cache_mode: str = "memory"):
    """Compile (or fetch from the artifact cache) and ctype-bind the
    SpGEMM kernel.  Raises when no toolchain is available."""
    global _bound_fn
    with _bind_lock:
        if _bound_fn is not None:
            return _bound_fn
        from repro.core import backend as be

        fn, _ = be.compile_native_function(C_SOURCE, want_openmp=False,
                                           cache_mode=cache_mode)
        fn.argtypes = ([ctypes.c_int64] * 3
                       + [ctypes.c_void_p] * 12)
        fn.restype = None
        _bound_fn = fn
        return fn


def reset_binding() -> None:
    """Forget the bound kernel (test hook — pairs with
    :func:`repro.core.backend.reset_toolchain_cache`)."""
    global _bound_fn
    with _bind_lock:
        _bound_fn = None


def spgemm_csr_csr_native(A, B, cache_mode: str = "memory"
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays ``(rowptr, colind, values)`` of ``C = A B`` for CSR×CSR
    via the native two-pass kernel, byte-identical to the vectorized
    tier's canonical output.  Raises on toolchain absence or compile
    failure (the caller decides the fallback)."""
    fn = _bind(cache_mode)
    m, n = A.nrows, B.ncols
    a_ptr = np.ascontiguousarray(A.rowptr, dtype=np.int64)
    a_col = np.ascontiguousarray(A.colind, dtype=np.int64)
    a_val = np.ascontiguousarray(A.values, dtype=np.float64)
    b_ptr = np.ascontiguousarray(B.rowptr, dtype=np.int64)
    b_col = np.ascontiguousarray(B.colind, dtype=np.int64)
    b_val = np.ascontiguousarray(B.values, dtype=np.float64)
    marker = np.full(n, -1, dtype=np.int64)
    c_ptr = np.zeros(m + 1, dtype=np.int64)
    c_acc = np.empty(n, dtype=np.float64)     # zeroed per slot on first touch
    bitmap = np.zeros((n >> 6) + 1, dtype=np.uint64)

    base = (m, n, a_ptr.ctypes.data, a_col.ctypes.data, a_val.ctypes.data,
            b_ptr.ctypes.data, b_col.ctypes.data, b_val.ctypes.data,
            marker.ctypes.data, c_ptr.ctypes.data)
    with INSTR.phase("spgemm.symbolic"):
        fn(0, *base, None, None, None, None)
        np.cumsum(c_ptr, out=c_ptr)
    nnz = int(c_ptr[m])
    c_col = np.empty(nnz, dtype=np.int64)
    c_val = np.empty(nnz, dtype=np.float64)
    with INSTR.phase("spgemm.numeric"):
        fn(1, *base, c_col.ctypes.data, c_acc.ctypes.data,
           c_val.ctypes.data, bitmap.ctypes.data)
    return c_ptr, c_col, c_val
