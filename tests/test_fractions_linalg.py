"""Exact linear algebra (repro.util.fractions_linalg)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.fractions_linalg import (
    FractionMatrix,
    IncrementalRank,
    nullspace,
    rank,
    row_reduce,
    solve_exact,
)


class TestFractionMatrix:
    def test_shape_and_access(self):
        m = FractionMatrix([[1, 2], [3, 4]])
        assert m.shape == (2, 2)
        assert m[1, 0] == 3

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            FractionMatrix([[1, 2], [3]])

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            FractionMatrix([[1.5]])

    def test_fraction_entries(self):
        m = FractionMatrix([[Fraction(1, 3)]])
        assert m[0, 0] == Fraction(1, 3)

    def test_transpose(self):
        m = FractionMatrix([[1, 2, 3], [4, 5, 6]])
        t = m.transpose()
        assert t.shape == (3, 2)
        assert t[2, 1] == 6

    def test_matvec(self):
        m = FractionMatrix([[1, 2], [3, 4]])
        assert m.matvec([1, 1]) == [Fraction(3), Fraction(7)]

    def test_matvec_dim_mismatch(self):
        with pytest.raises(ValueError):
            FractionMatrix([[1, 2]]).matvec([1])

    def test_append_row(self):
        m = FractionMatrix([[1, 2]])
        m.append_row([3, 4])
        assert m.shape == (2, 2)
        with pytest.raises(ValueError):
            m.append_row([1])

    def test_equality_and_copy(self):
        m = FractionMatrix([[1, 2]])
        c = m.copy()
        assert m == c
        c.rows[0][0] = Fraction(9)
        assert m != c


class TestRowReduce:
    def test_identity(self):
        m = FractionMatrix([[1, 0], [0, 1]])
        red, pivots = row_reduce(m)
        assert pivots == [0, 1]
        assert red == m

    def test_rank_deficient(self):
        m = FractionMatrix([[1, 2], [2, 4]])
        assert rank(m) == 1

    def test_rank_full(self):
        m = FractionMatrix([[2, 1], [1, 2]])
        assert rank(m) == 2

    def test_rank_zero(self):
        assert rank(FractionMatrix([[0, 0], [0, 0]])) == 0

    def test_exactness_vs_float_trap(self):
        # a matrix that is exactly singular but would be borderline in
        # floating point
        big = 10 ** 20
        m = FractionMatrix([[big, big + 1], [big * 2, 2 * big + 2]])
        assert rank(m) == 1


class TestSolve:
    def test_unique_solution(self):
        A = FractionMatrix([[2, 1], [1, 3]])
        x = solve_exact(A, [5, 10])
        assert A.matvec(x) == [Fraction(5), Fraction(10)]

    def test_inconsistent(self):
        A = FractionMatrix([[1, 1], [1, 1]])
        assert solve_exact(A, [1, 2]) is None

    def test_underdetermined_gives_some_solution(self):
        A = FractionMatrix([[1, 1]])
        x = solve_exact(A, [3])
        assert A.matvec(x) == [Fraction(3)]

    def test_nullspace_dimension(self):
        A = FractionMatrix([[1, 2, 3]])
        basis = nullspace(A)
        assert len(basis) == 2
        for v in basis:
            assert A.matvec(v) == [Fraction(0)]

    def test_nullspace_trivial(self):
        A = FractionMatrix([[1, 0], [0, 1]])
        assert nullspace(A) == []


class TestIncrementalRank:
    def test_detects_dependence(self):
        inc = IncrementalRank(3)
        dep, _ = inc.add([1, 0, 0])
        assert not dep
        dep, _ = inc.add([0, 1, 0])
        assert not dep
        dep, combo = inc.add([2, 3, 0])
        assert dep
        assert combo == {0: Fraction(2), 1: Fraction(3)}

    def test_zero_row_dependent(self):
        inc = IncrementalRank(2)
        dep, combo = inc.add([0, 0])
        assert dep and combo == {}

    def test_paper_figure7(self):
        """The G matrix of paper Figure 7: rows l1r,l2r,l1c,l2c,j1,j2,i2
        over columns (j1, j2, i2); only the first and third are
        independent."""
        rows = [
            [1, 0, 0],  # l1r = j1
            [0, 0, 1],  # l2r = i2
            [1, 0, 0],  # l1c = j1
            [0, 1, 0],  # l2c = j2
            [1, 0, 0],  # j1
            [0, 1, 0],  # j2
            [0, 0, 1],  # i2
        ]
        # paper order: l1r, l2r, l1c, l2c, j1, j2, i2 with embeddings
        # F1=(j1,j1,j1,j1,j1,j1,j1), F2=(i2,i2,j2,j2,j2,j2,i2); the combined
        # G has rows [1,0,1], [1,0,1], [1,1,0], [1,1,0], [1,1,0], [1,1,0],
        # [1,0,1] — dims after the first occurrence of each pattern are
        # redundant
        g = [[1, 0, 1], [1, 0, 1], [1, 1, 0], [1, 1, 0], [1, 1, 0],
             [1, 1, 0], [1, 0, 1]]
        inc = IncrementalRank(3)
        verdicts = [inc.add(r)[0] for r in g]
        assert verdicts == [False, True, False, True, True, True, True]

    def test_width_mismatch(self):
        inc = IncrementalRank(2)
        with pytest.raises(ValueError):
            inc.add([1, 2, 3])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=1, max_size=5))
def test_rank_matches_numpy(rows):
    m = FractionMatrix(rows)
    np_rank = np.linalg.matrix_rank(np.array(rows, dtype=float))
    assert rank(m) == np_rank


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_solve_exact_verifies(rows, b):
    A = FractionMatrix(rows)
    x = solve_exact(A, b)
    if x is not None:
        assert A.matvec(x) == [Fraction(v) for v in b]


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
                min_size=1, max_size=6))
def test_incremental_rank_matches_batch(rows):
    inc = IncrementalRank(4)
    seen = []
    for r in rows:
        dep, _ = inc.add(r)
        seen.append(r)
        assert dep == (rank(FractionMatrix(seen)) == rank(FractionMatrix(seen[:-1])))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                      max_denominator=4),
                         min_size=3, max_size=3),
                min_size=1, max_size=6))
def test_incremental_rank_rational_rows_and_combinations(rows):
    """Rational rows: the verdicts match batch rank, ``is_dependent``
    predicts ``add`` without recording, and every reported combination
    rebuilds the row exactly from the earlier independent rows."""
    inc = IncrementalRank(3)
    seen = []
    for r in rows:
        predicted = inc.is_dependent(r)
        assert inc.is_dependent(r) == predicted
        dep, combo = inc.add(r)
        seen.append(r)
        assert dep == predicted
        assert dep == (rank(FractionMatrix(seen))
                       == rank(FractionMatrix(seen[:-1])))
        if dep:
            rebuilt = [sum((c * seen[k][j] for k, c in combo.items()),
                           Fraction(0)) for j in range(3)]
            assert rebuilt == [Fraction(x) for x in r]
