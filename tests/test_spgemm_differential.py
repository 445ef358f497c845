"""Differential test wall around SpGEMM (the tentpole): the sparse×sparse
product with *computed* output structure must match the dense
``blas/dense_ref.spgemm`` oracle over every format pair through the
generic tier, and every dispatch tier (native when a C toolchain is
present / vectorized / specialized dense-accumulator / specialized
hash-accumulator / generic) must be byte-for-byte identical on CSR×CSR —
rowptr, colind and values arrays, not just the reconstructed dense
matrix.

Exactness: entries are integer-valued floats, so every product/sum is
exact in binary floating point regardless of accumulation order — the
oracle comparison is bitwise, not ``allclose``.

The canonical-output contract the wall pins: rows sorted, columns sorted
within rows, duplicates summed, and *numerically cancelled* entries kept
as stored zeros (the computed pattern is structural — a slot two products
sum to zero in is still a slot, in every tier).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.blas import api as blas_api
from repro.blas import dense_ref, specialized
from repro.blas.api import spgemm, spgemm_triples
from repro.formats import FORMATS
from repro.formats.coo import CooMatrix
from repro.formats.csr import CsrMatrix
from repro.instrument import INSTR

ALL_FORMATS = list(FORMATS)  # all 10: dense ... sym

N = 6  # square and even: every format (sym, bsr block_size=2) applies

FAST = settings(max_examples=20, deadline=None, derandomize=True)


def _fmt_kwargs(fmt_name):
    return {"block_size": 2} if fmt_name == "bsr" else {}


def build(fmt_name, dense):
    rows, cols = np.nonzero(dense)
    return FORMATS[fmt_name].from_coo(rows, cols, dense[rows, cols],
                                      dense.shape, **_fmt_kwargs(fmt_name))


def _to_dense(entries, m, n, symmetric=False):
    a = np.zeros((m, n))
    for r, c, v in entries:
        a[r, c] = float(v)
    if symmetric:
        low = np.tril(a)
        a = low + low.T - np.diag(np.diag(a))
    return a


def dense_matrices(m, n, symmetric=False):
    """Sparse m-by-n ndarrays with integer-valued float entries."""
    entry = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.integers(-4, 4))
    return st.lists(entry, min_size=0, max_size=3 * max(m, n)).map(
        lambda es: _to_dense(es, m, n, symmetric))


def _fixture_pair():
    """Two deterministic symmetric integer matrices every format admits
    (sym needs value symmetry; everything else doesn't care)."""
    rng = np.random.default_rng(42)
    def sym_sparse():
        a = np.where(rng.random((N, N)) < 0.4,
                     rng.integers(-3, 4, (N, N)), 0).astype(float)
        low = np.tril(a)
        return low + low.T - np.diag(np.diag(a))
    return sym_sparse(), sym_sparse()


# ---------------------------------------------------------------------------
# every format pair through the generic tier vs the dense oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt_a", ALL_FORMATS)
@pytest.mark.parametrize("fmt_b", ALL_FORMATS)
def test_spgemm_all_pairs_match_dense_ref(fmt_a, fmt_b):
    """All 10x10 ordered format pairs: the generic enumeration tier is one
    code for every pair, and its packed CSR output must equal the dense
    oracle bitwise on integer data."""
    da, db = _fixture_pair()
    A = build(fmt_a, da)
    B = build(fmt_b, db)
    C = spgemm(A, B, tier="generic")
    assert type(C) is CsrMatrix
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


@pytest.mark.parametrize("fmt_a", ["csc", "ell", "coo"])
@FAST
@given(st.data())
def test_spgemm_mixed_pairs_property(fmt_a, data):
    """Property leg over representative mixed pairs (auto tier: these
    pairs have no specialized kernel, so the generic route serves them)."""
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A = build(fmt_a, da)
    B = build("dia", db)
    C = spgemm(A, B)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


# ---------------------------------------------------------------------------
# tier byte-identity on CSR×CSR: same arrays, not just same matrix
# ---------------------------------------------------------------------------

def _csr_pair(da, db):
    return CsrMatrix.from_dense(da), CsrMatrix.from_dense(db)


def _have_cc():
    from repro.core import backend as be

    return be.find_compiler() is not None


def _native_or_skip():
    if not _have_cc():
        pytest.skip("no C toolchain: the native tier demotes")


def _csr_tiers():
    """The CSR×CSR tiers the walls compare: native joins when it runs."""
    return (("native",) if _have_cc() else ()) + (
        "vectorized", "specialized", "generic")


def _assert_same_csr(C, D):
    for field in ("rowptr", "colind", "values"):
        got = np.ascontiguousarray(getattr(C, field))
        want = np.ascontiguousarray(getattr(D, field))
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field


@FAST
@given(st.data())
def test_spgemm_tiers_byte_identical(data):
    """native (with a toolchain), vectorized, specialized (dense and hash
    accumulator) and generic produce identical canonical triples — and
    the same nmults where the tier counts them; the native tier's packed
    CSR arrays are the vectorized tier's bytes."""
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A, B = _csr_pair(da, db)
    rv, cv, vv, nv = spgemm_triples(A, B, tier="vectorized")
    for tier in _csr_tiers():
        r, c, v, nm = spgemm_triples(A, B, tier=tier)
        assert np.array_equal(rv, r)
        assert np.array_equal(cv, c)
        assert np.array_equal(vv, v)
        assert nm == nv
    if _have_cc():
        _assert_same_csr(spgemm(A, B, tier="native"),
                         spgemm(A, B, tier="vectorized"))
    # the hash accumulator is a forced variant of the specialized kernel
    Cd = specialized.spgemm_csr_csr(A, B, accumulator="dense")
    Ch = specialized.spgemm_csr_csr(A, B, accumulator="hash")
    assert np.array_equal(Cd.rowptr, Ch.rowptr)
    assert np.array_equal(Cd.colind, Ch.colind)
    assert np.array_equal(Cd.values, Ch.values)
    # and the packed product equals the oracle bitwise
    C = spgemm(A, B)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


@pytest.mark.parametrize("tier", ["native", "vectorized", "specialized",
                                  "generic"])
@FAST
@given(st.data())
def test_spgemm_each_tier_matches_oracle(tier, data):
    if tier == "native":
        _native_or_skip()
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A, B = _csr_pair(da, db)
    C = spgemm(A, B, tier=tier)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


# ---------------------------------------------------------------------------
# deterministic edge cases
# ---------------------------------------------------------------------------

def test_spgemm_rectangular_chain():
    """(4x7)·(7x3): non-square shapes through every tier, and a chained
    product through the packed intermediate."""
    rng = np.random.default_rng(5)
    da = np.where(rng.random((4, 7)) < 0.5,
                  rng.integers(-3, 4, (4, 7)), 0).astype(float)
    db = np.where(rng.random((7, 3)) < 0.5,
                  rng.integers(-3, 4, (7, 3)), 0).astype(float)
    A, B = _csr_pair(da, db)
    Cv = spgemm(A, B, tier="vectorized")
    nv = spgemm_triples(A, B, tier="vectorized")[3]
    for tier in _csr_tiers():
        C = spgemm(A, B, tier=tier)
        assert C.shape == (4, 3)
        assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))
        _assert_same_csr(C, Cv)
        assert spgemm_triples(A, B, tier=tier)[3] == nv
    # chain: (A B) B2 with B2 = B^T as a second sparse operand
    Bt = CsrMatrix.from_dense(db.T)
    D = spgemm(spgemm(A, B), Bt)
    assert np.array_equal(D.to_dense(), da @ db @ db.T)


def test_spgemm_duplicate_coo_inputs():
    """Duplicate triples in a COO operand are summed on construction; the
    product sees the summed values (generic tier reads through the
    abstract enumeration of the deduplicated store)."""
    rows = np.array([0, 0, 2, 2, 3])
    cols = np.array([1, 1, 0, 0, 2])
    vals = np.array([1.0, 2.0, 4.0, -1.0, 5.0])
    A = CooMatrix.from_coo(rows, cols, vals, (4, 4))
    da = np.zeros((4, 4))
    np.add.at(da, (rows, cols), vals)
    db = np.diag([1.0, 2.0, 3.0, 4.0])
    B = CooMatrix.from_dense(db)
    C = spgemm(A, B)
    assert np.array_equal(C.to_dense(), dense_ref.spgemm(da, db))


def test_spgemm_all_zero_rows_and_empty():
    """Empty operands and interior all-zero rows: empty output rows stay
    empty, the shape is still right."""
    da = np.zeros((5, 4))
    da[0, 1] = 2.0
    da[3, 0] = -1.0  # rows 1, 2, 4 empty
    db = np.zeros((4, 6))
    db[1, 5] = 3.0
    A, B = _csr_pair(da, db)
    for tier in _csr_tiers():
        C = spgemm(A, B, tier=tier)
        assert np.array_equal(C.to_dense(), da @ db)
    # entirely empty operand: zero stored entries, correct (5, 6) shape
    Z = spgemm(CsrMatrix.from_dense(np.zeros((5, 4))), B)
    assert Z.shape == (5, 6) and Z.nnz == 0
    # degenerate inner dimension: (3, 0) · (0, 2) = zeros((3, 2))
    A0 = CsrMatrix.from_coo([], [], [], (3, 0))
    B0 = CsrMatrix.from_coo([], [], [], (0, 2))
    Z2 = spgemm(A0, B0)
    assert Z2.shape == (3, 2) and Z2.nnz == 0


def test_spgemm_cancellation_keeps_stored_zero():
    """Two products landing on one slot and summing to zero stay a stored
    entry in every tier — the computed pattern is structural."""
    da = np.array([[1.0, 1.0], [0.0, 0.0]])
    db = np.array([[3.0, 0.0], [-3.0, 0.0]])
    A, B = _csr_pair(da, db)
    for tier in _csr_tiers():
        C = spgemm(A, B, tier=tier)
        assert C.nnz == 1                      # the cancelled slot
        assert C.values[0] == 0.0
        assert (C.colind[0], C.rowptr.tolist()) == (0, [0, 1, 1])
    Ch = specialized.spgemm_csr_csr(A, B, accumulator="hash")
    assert Ch.nnz == 1 and Ch.values[0] == 0.0


# ---------------------------------------------------------------------------
# native tier: both column-ordering branches, and the default dispatch
# ---------------------------------------------------------------------------

def _encounter_product(n, rows):
    """``A`` (len(rows) x K) and ``B`` (K x n) whose product row ``i``
    meets the ``(column, value)`` pairs of ``rows[i]`` in exactly that
    order: every inner index selects a one-entry row of B, and A's row i
    walks its inner indices in ascending order."""
    a_rows, b_cols, b_vals = [], [], []
    for i, pairs in enumerate(rows):
        for c, v in pairs:
            a_rows.append(i)
            b_cols.append(c)
            b_vals.append(float(v))
    k = len(b_cols)
    inner = np.arange(k)
    A = CsrMatrix.from_coo(np.array(a_rows, dtype=np.int64), inner,
                           np.ones(k), (len(rows), k))
    B = CsrMatrix.from_coo(inner, np.array(b_cols, dtype=np.int64),
                           np.array(b_vals), (k, n))
    return A, B


def _takes_bitmap(cols):
    """The native numeric pass's ordering rule for one output row."""
    from repro.blas import spgemm_native

    cols = set(cols)
    k = len(cols)
    words = (max(cols) >> 6) - (min(cols) >> 6) + 1
    if k <= spgemm_native.SMALL_SORT:
        return words <= k
    return words <= spgemm_native.BITMAP_SPAN * k


def test_spgemm_native_ordering_branches():
    """One product whose rows reach both ordering branches of the native
    numeric pass — a dense-ish row through the bitmap, a short and a long
    wide row through the comparison sort (insertion and heapsort) — with
    empty rows and a numerically cancelled slot, which stays a stored
    zero.  Native output is the vectorized tier's bytes."""
    _native_or_skip()
    from repro.blas import spgemm_native

    n = 64 * 200
    dense_ish = [(c, c % 7 - 3) for c in range(100, 39, -1)]
    short_wide = [(n - 1, 2), (0, -5)]
    cancelled = [(70, 2), (5, 3), (5, -3)]
    long_wide = [(300 * t, t - 20) for t in range(39, -1, -1)]
    rows = [dense_ish, [], short_wide, cancelled, long_wide, []]
    A, B = _encounter_product(n, rows)
    assert _takes_bitmap(c for c, _ in dense_ish)
    assert _takes_bitmap(c for c, _ in cancelled)
    assert not _takes_bitmap(c for c, _ in short_wide)
    assert not _takes_bitmap(c for c, _ in long_wide)
    assert len(long_wide) > spgemm_native.SMALL_SORT    # heapsort, not
    assert len(short_wide) <= spgemm_native.SMALL_SORT  # insertion sort

    C = spgemm(A, B, tier="native")
    _assert_same_csr(C, spgemm(A, B, tier="vectorized"))
    assert (spgemm_triples(A, B, tier="native")[3]
            == spgemm_triples(A, B, tier="vectorized")[3] == A.nnz)
    assert np.array_equal(C.to_dense(),
                          dense_ref.spgemm(A.to_dense(), B.to_dense()))
    assert np.diff(C.rowptr).tolist() == [61, 0, 2, 2, 40, 0]
    lo = int(C.rowptr[3])
    assert C.colind[lo:lo + 2].tolist() == [5, 70]
    assert C.values[lo] == 0.0 and not np.signbit(C.values[lo])


def test_spgemm_native_long_rows_comparison_sort():
    """A wide matrix whose long rows (4000 entries over 2**20 columns)
    take the comparison sort, in orders that defeat short-gap shell
    sorts — descending, sawtooth runs, organ pipe, random — must come out
    sorted and byte-identical to the vectorized tier."""
    _native_or_skip()
    from repro.blas import spgemm_native

    n, k, stride = 1 << 20, 4000, 262
    cols = stride * np.arange(k)
    perm = np.random.default_rng(3).permutation(k)
    orders = [
        cols[::-1],
        np.concatenate([cols[t::301] for t in range(301)]),
        np.concatenate([cols[0::2], cols[1::2][::-1]]),
        cols[perm],
        cols,
    ]
    rows = [[(int(c), 1 + (t % 5)) for t, c in enumerate(o)] for o in orders]
    A, B = _encounter_product(n, rows)
    for o in orders:
        assert not _takes_bitmap(o) and len(o) > spgemm_native.SMALL_SORT
    C = spgemm(A, B, tier="native")
    _assert_same_csr(C, spgemm(A, B, tier="vectorized"))
    assert np.array_equal(C.colind, np.tile(cols, len(orders)))


class TestDefaultTier:
    """``spgemm(A, B)`` on CSR×CSR runs the native tier when a toolchain
    is present and demotes to the vectorized tier observably when not."""

    def _operand(self):
        from repro.formats import as_format
        from repro.formats.generate import can_1072_like

        return as_format(can_1072_like(n=120, target_nnz=900, seed=7), "csr")

    def test_default_runs_native(self):
        _native_or_skip()
        A = self._operand()
        native = INSTR.get("spgemm.tier.native")
        vectorized = INSTR.get("spgemm.tier.vectorized")
        C = spgemm(A, A)
        assert INSTR.get("spgemm.tier.native") == native + 1
        assert INSTR.get("spgemm.tier.vectorized") == vectorized
        _assert_same_csr(C, spgemm(A, A, tier="vectorized"))

    def test_default_demotes_without_toolchain(self, monkeypatch):
        from repro.blas import spgemm_native
        from repro.core import NativeBackendWarning
        from repro.core import backend as be

        A = self._operand()
        want = spgemm(A, A, tier="vectorized")
        monkeypatch.setenv("REPRO_CC", "none")
        be.reset_toolchain_cache()
        spgemm_native.reset_binding()
        try:
            fallbacks = INSTR.get("spgemm.tier.native_fallbacks")
            vectorized = INSTR.get("spgemm.tier.vectorized")
            native = INSTR.get("spgemm.tier.native")
            with pytest.warns(NativeBackendWarning, match="spgemm"):
                C = spgemm(A, A)
            assert INSTR.get("spgemm.tier.native_fallbacks") == fallbacks + 1
            assert INSTR.get("spgemm.tier.vectorized") == vectorized + 1
            assert INSTR.get("spgemm.tier.native") == native
            _assert_same_csr(C, want)
            with pytest.warns(NativeBackendWarning):
                rows, cols, vals, nmults = spgemm_triples(A, A)
            rv, cv, vv, nv = spgemm_triples(A, A, tier="vectorized")
            assert np.array_equal(rows, rv) and np.array_equal(cols, cv)
            assert vals.tobytes() == vv.tobytes() and nmults == nv
        finally:
            monkeypatch.delenv("REPRO_CC", raising=False)
            be.reset_toolchain_cache()
            spgemm_native.reset_binding()

    def test_solver_context_normal_matches_vectorized(self):
        """``SolverContext.normal`` calls the default ``spgemm``: its
        product is the vectorized tier's bytes."""
        import warnings

        from repro.core import NativeBackendWarning
        from repro.solvers.context import SolverContext

        A = self._operand()
        ctx = SolverContext(A, ops=("mvm",), backend="python",
                            register=False)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NativeBackendWarning)
            ata = ctx.normal("ata")
        rows, cols, vals = A.to_coo_arrays()
        At = CsrMatrix.from_coo(cols, rows, vals, (A.ncols, A.nrows))
        _assert_same_csr(ata, spgemm(At, A, tier="vectorized"))


@pytest.mark.parametrize("backend", ["python", "c"])
def test_spgemm_compiled_same_instance_aliasing(backend):
    """Regression: binding one matrix instance to both operand names of the
    compiled spgemm kernel must enumerate A and B independently.  Candidate
    generation used to fuse any two references to the same matrix object
    into one common enumeration regardless of their index functions, which
    conjoined ``A[i][j]`` and ``B[j][p2]`` onto a single stored entry and
    collapsed the product to its diagonal."""
    import warnings

    from repro.core import NativeBackendWarning, compile_kernel
    from repro.core import backend as be
    from repro.formats import as_format
    from repro.formats.generate import laplacian_2d
    from repro.ir import kernels

    if backend == "c" and be.find_compiler() is None:
        pytest.skip("no C compiler on PATH")
    A = as_format(laplacian_2d(3), "csr")
    d = A.to_dense()
    n = A.nrows
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NativeBackendWarning)
        kern = compile_kernel(kernels.spgemm(), {"A": A, "B": A},
                              backend=backend)
    C = np.full((n, n), 123.0)
    kern({"A": A, "B": A, "C": C}, {"m": n, "n": n, "k": n})
    assert np.array_equal(C, d @ d)


def test_smvm_two_still_shares_one_enumeration():
    """The aliasing fix must not undo the legitimate common enumeration:
    smvm_two's twin ``A[i][j]`` references have identical index functions
    and still fuse into a single traversal of A."""
    from repro.core import compile_kernel
    from repro.formats import as_format
    from repro.formats.generate import laplacian_2d
    from repro.ir import kernels

    A = as_format(laplacian_2d(3), "csr")
    d = A.to_dense()
    n = A.nrows
    kern = compile_kernel(kernels.smvm_two(), {"A": A}, backend="python")
    x = np.arange(n, dtype=float)
    y = np.full(n, 123.0)
    kern({"A": A, "x": x, "y": y}, {"m": n, "n": n})
    assert np.array_equal(y, 2 * (d @ x))
    # one enumeration of A: a second matrix copy would surface as M1_*
    assert "M1_" not in kern.source


def test_spgemm_conformability_and_type_guards():
    A = CsrMatrix.from_dense(np.ones((3, 4)))
    B = CsrMatrix.from_dense(np.ones((5, 2)))
    with pytest.raises(ValueError, match=r"3x4.*5x2"):
        spgemm(A, B)
    with pytest.raises(ValueError, match="sparse format instances"):
        spgemm(A, np.ones((4, 2)))
    with pytest.raises(ValueError, match="vectorized tier needs CSR"):
        spgemm_triples(CooMatrix.from_dense(np.ones((3, 3))),
                       CsrMatrix.from_dense(np.ones((3, 3))),
                       tier="vectorized")
    with pytest.raises(ValueError, match="no specialized kernel"):
        spgemm_triples(CooMatrix.from_dense(np.ones((3, 3))),
                       CsrMatrix.from_dense(np.ones((3, 3))),
                       tier="specialized")
    with pytest.raises(ValueError, match="tier must be"):
        spgemm_triples(A, CsrMatrix.from_dense(np.ones((4, 2))), tier="bogus")


# ---------------------------------------------------------------------------
# output-format packing: explicit names, auto selection, observable fallback
# ---------------------------------------------------------------------------

class TestOutputFormat:
    def _product_operands(self):
        da, db = _fixture_pair()
        return _csr_pair(da, db) + (da @ db,)

    @pytest.mark.parametrize("name", ["csr", "csc", "coo", "ell", "jad"])
    def test_explicit_output_format(self, name):
        A, B, ref = self._product_operands()
        C = spgemm(A, B, out_format=name)
        assert C.format_name == name
        assert np.array_equal(C.to_dense(), ref)

    def test_auto_output_format(self):
        A, B, ref = self._product_operands()
        C = spgemm(A, B, out_format="auto")
        assert np.array_equal(C.to_dense(), ref)

    def test_auto_picks_dia_for_banded_product(self):
        # tridiagonal squared is pentadiagonal: a dense band, dia wins
        n = 24
        d = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), 1)
             + np.diag(np.full(n - 1, -1.0), -1))
        A = CsrMatrix.from_dense(d)
        C = spgemm(A, A, out_format="auto")
        assert C.format_name == "dia"
        assert np.array_equal(C.to_dense(), d @ d)

    def test_inadmissible_output_falls_back_to_csr(self):
        # bsr on an odd-dimensioned product cannot tile: observable CSR
        # fallback instead of a crash
        from repro.instrument import INSTR

        da = np.ones((3, 3))
        A = CsrMatrix.from_dense(da)
        before = INSTR.get("spgemm.output_fallbacks")
        C = spgemm(A, A, out_format="bsr", block_size=2)
        assert C.format_name == "csr"
        assert np.array_equal(C.to_dense(), da @ da)
        assert INSTR.get("spgemm.output_fallbacks") == before + 1

    def test_unknown_output_format_raises(self):
        A = CsrMatrix.from_dense(np.ones((2, 2)))
        with pytest.raises(ValueError, match="unknown output format"):
            spgemm(A, A, out_format="nope")


class TestOutputFormatSelection:
    """Unit tests of the structure-driven output-format chooser."""

    def _select(self, dense):
        from repro.formats.base import coo_dedup_sort
        from repro.search.format_select import select_output_format

        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        rows, cols, vals = coo_dedup_sort(
            rows.astype(np.int64), cols.astype(np.int64),
            vals.astype(np.float64), dense.shape, order="row")
        return select_output_format(rows, cols, dense.shape)

    def test_empty_pattern_short_circuits_to_csr(self):
        from repro.search.format_select import select_output_format

        e = np.array([], dtype=np.int64)
        ch = select_output_format(e, e, (5, 5))
        assert ch.format_name == "csr" and ch.format_kwargs == {}

    def test_banded_pattern_picks_dia(self):
        # a full tridiagonal band: the band is ~98% full so DIA beats the
        # row-regularity win ELL gets (first/last rows break regularity)
        n = 30
        d = (np.diag(np.ones(n)) + np.diag(np.ones(n - 1), 1)
             + np.diag(np.ones(n - 1), -1))
        ch = self._select(d)
        assert ch.format_name == "dia"
        assert "dia" in ch.table()

    def test_scattered_pattern_stays_row_major(self):
        rng = np.random.default_rng(11)
        d = (rng.random((20, 20)) < 0.08).astype(float)
        ch = self._select(d)
        # irregular scattered structure: dia/ell/bsr all pay padding, so a
        # row-major compressed layout must win
        assert ch.format_name in ("csr", "msr")

    def test_bsr_kwargs_forwarded(self):
        # fully-dense 2x2 tiles on even dims: bsr wins and carries its
        # construction kwargs
        d = np.kron((np.arange(36).reshape(6, 6) % 7 == 0).astype(float),
                    np.ones((2, 2)))
        ch = self._select(d)
        assert ch.format_name == "bsr"
        assert ch.format_kwargs == {"block_size": 2}


# ---------------------------------------------------------------------------
# SolverContext integration: cached normal-equation products
# ---------------------------------------------------------------------------

def test_solver_context_normal_products():
    from repro.solvers.context import SolverContext

    rng = np.random.default_rng(9)
    da = np.where(rng.random((8, 5)) < 0.4,
                  rng.integers(-3, 4, (8, 5)), 0).astype(float)
    ctx = SolverContext(CsrMatrix.from_dense(da), ops=("mvm",),
                        backend="python", register=False)
    ata = ctx.normal("ata")
    assert ata.shape == (5, 5)
    assert np.array_equal(ata.to_dense(), da.T @ da)
    aat = ctx.normal("aat")
    assert aat.shape == (8, 8)
    assert np.array_equal(aat.to_dense(), da @ da.T)
    assert ctx.normal("ata") is ata           # cached, not recomputed
    with pytest.raises(ValueError, match="'ata' or 'aat'"):
        ctx.normal("atb")


# ---------------------------------------------------------------------------
# slow leg: 10x example budget, fixed seed
# ---------------------------------------------------------------------------

@pytest.mark.slow
@seed(20260808)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_spgemm_deep_budget(data):
    """Slow leg: 200 random CSR×CSR products, all tiers vs the oracle and
    each other, fixed seed for reproducible failures."""
    da = data.draw(dense_matrices(N, N))
    db = data.draw(dense_matrices(N, N))
    A, B = _csr_pair(da, db)
    ref = dense_ref.spgemm(da, db)
    rv, cv, vv, _ = spgemm_triples(A, B, tier="vectorized")
    for tier in _csr_tiers():
        r, c, v, _ = spgemm_triples(A, B, tier=tier)
        assert np.array_equal(rv, r)
        assert np.array_equal(cv, c)
        assert np.array_equal(vv, v)
    assert np.array_equal(spgemm(A, B).to_dense(), ref)
