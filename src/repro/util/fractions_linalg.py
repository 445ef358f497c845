"""Exact linear algebra over :class:`fractions.Fraction`.

The compiler's legality and redundancy analyses (paper Sections 3-4) must be
exact: floating-point rank decisions would make "is this product-space
dimension redundant?" (Figure 7 of the paper) and "is this embedding legal?"
nondeterministic near ties.  Everything here therefore works on exact
rationals.  Matrices are small (tens of rows/columns), so the cubic cost of
fraction-exact Gaussian elimination is irrelevant — except for
:class:`IncrementalRank`, which the plan search calls thousands of times
and which therefore reduces fraction-free integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

Row = List[Fraction]


def _frac(x) -> Fraction:
    """Coerce ints / Fractions / strings to Fraction (floats are rejected:
    exactness is the point)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"exact arithmetic requires int/Fraction, got {type(x).__name__}")


class FractionMatrix:
    """A dense matrix of exact rationals with the handful of operations the
    compiler needs: row reduction, rank, linear solves, and incremental
    row-dependence queries.
    """

    def __init__(self, rows: Iterable[Iterable] = ()):  # noqa: D401
        self.rows: List[Row] = [[_frac(x) for x in r] for r in rows]
        if self.rows:
            w = len(self.rows[0])
            for r in self.rows:
                if len(r) != w:
                    raise ValueError("ragged rows in FractionMatrix")

    # -- basic protocol -------------------------------------------------
    @property
    def shape(self) -> Tuple[int, int]:
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other) -> bool:
        return isinstance(other, FractionMatrix) and self.rows == other.rows

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in r) for r in self.rows)
        return f"FractionMatrix[{body}]"

    def copy(self) -> "FractionMatrix":
        out = FractionMatrix()
        out.rows = [list(r) for r in self.rows]
        return out

    def append_row(self, row: Iterable) -> None:
        row = [_frac(x) for x in row]
        if self.rows and len(row) != len(self.rows[0]):
            raise ValueError("row width mismatch")
        self.rows.append(row)

    def transpose(self) -> "FractionMatrix":
        m, n = self.shape
        return FractionMatrix([[self.rows[i][j] for i in range(m)] for j in range(n)])

    def matvec(self, v: Sequence) -> Row:
        v = [_frac(x) for x in v]
        m, n = self.shape
        if len(v) != n:
            raise ValueError("dimension mismatch in matvec")
        return [sum((self.rows[i][j] * v[j] for j in range(n)), Fraction(0)) for i in range(m)]


def row_reduce(mat: FractionMatrix) -> Tuple[FractionMatrix, List[int]]:
    """Return (RREF of ``mat``, pivot column indices).  Zero rows are kept at
    the bottom (they matter for callers that track row provenance)."""
    m = mat.copy()
    nrows, ncols = m.shape
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        # find pivot
        piv = None
        for i in range(r, nrows):
            if m.rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m.rows[r], m.rows[piv] = m.rows[piv], m.rows[r]
        pv = m.rows[r][c]
        m.rows[r] = [x / pv for x in m.rows[r]]
        for i in range(nrows):
            if i != r and m.rows[i][c] != 0:
                f = m.rows[i][c]
                m.rows[i] = [a - f * b for a, b in zip(m.rows[i], m.rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(mat: FractionMatrix) -> int:
    """Exact rank."""
    _, pivots = row_reduce(mat)
    return len(pivots)


def solve_exact(A: FractionMatrix, b: Sequence) -> Optional[Row]:
    """Solve ``A x = b`` exactly.  Returns one solution (free variables set
    to 0) or None if inconsistent."""
    m, n = A.shape
    b = [_frac(x) for x in b]
    if len(b) != m:
        raise ValueError("dimension mismatch in solve_exact")
    aug = FractionMatrix([A.rows[i] + [b[i]] for i in range(m)]) if m else FractionMatrix()
    red, pivots = row_reduce(aug)
    # inconsistent iff a pivot lands in the augmented column
    if pivots and pivots[-1] == n:
        return None
    x: Row = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x[c] = red.rows[r][n]
    return x


def nullspace(A: FractionMatrix) -> List[Row]:
    """Basis of the (right) nullspace of A, exact."""
    m, n = A.shape
    if n == 0:
        return []
    red, pivots = row_reduce(A)
    free = [c for c in range(n) if c not in pivots]
    basis: List[Row] = []
    for fc in free:
        v: Row = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red.rows[r][fc]
        basis.append(v)
    return basis


class IncrementalRank:
    """Incrementally decide, row by row, whether each new row is linearly
    dependent on the rows seen so far.

    This is exactly the redundant-dimension test of the paper (Figure 7):
    "If a row of the G matrix is a linear combination of preceding rows, the
    corresponding dimension of the product space is redundant."

    ``add(row)`` returns ``(dependent, combination)`` where ``combination``
    maps *original* row indices to coefficients expressing the new row in
    terms of previously *independent* rows (empty dict for the zero row).

    Rows are reduced fraction-free: every row is scaled to integers on
    entry, elimination cross-multiplies, and each reduced row is divided by
    the gcd of its entries, so no :class:`~fractions.Fraction` arithmetic
    happens until a combination is reported.
    """

    def __init__(self, width: int):
        self.width = width
        # reduced independent rows as (lead column, integer row, combo):
        # row == sum_k combo[k] * original_k.  An immutable tuple that
        # add() replaces, so copies share it.
        self._rows: Tuple[Tuple[int, List[int], Dict[int, int]], ...] = ()
        self._count = 0

    def copy(self) -> "IncrementalRank":
        """An independent tracker with the same rows seen so far."""
        c = IncrementalRank(self.width)
        c._rows = self._rows
        c._count = self._count
        return c

    def _integer_row(self, row: Sequence) -> Tuple[List[int], int]:
        """``(scale * row, scale)`` for the least positive integer scale
        that makes every entry an integer."""
        if len(row) != self.width:
            raise ValueError("row width mismatch")
        if all(type(x) is int for x in row):
            return list(row), 1
        vals = [x if type(x) is int else _frac(x) for x in row]
        den = 1
        for x in vals:
            if type(x) is not int:
                den = lcm(den, x.denominator)
        return [x * den if type(x) is int
                else x.numerator * (den // x.denominator) for x in vals], den

    def _reduce(self, work: List[int], combo: Optional[Dict[int, int]]
                ) -> Tuple[List[int], Optional[Dict[int, int]]]:
        """Eliminate every stored row's lead column from ``work``, keeping
        ``combo`` (when given) in step: ``work == sum_k combo[k] *
        original_k`` before and after."""
        for lead, base, base_combo in self._rows:
            w = work[lead]
            if w == 0:
                continue
            b = base[lead]
            g = gcd(w, b)
            a, f = b // g, w // g
            # a * work - f * base has a zero in the lead column
            work = [a * x - f * y for x, y in zip(work, base)]
            g = gcd(*work)
            if combo is not None:
                combo = {k: a * c for k, c in combo.items()}
                for k, c in base_combo.items():
                    combo[k] = combo.get(k, 0) - f * c
                g = gcd(g, *combo.values())
            if g > 1:
                work = [x // g for x in work]
                if combo is not None:
                    combo = {k: c // g for k, c in combo.items()}
        return work, combo

    def is_dependent(self, row: Sequence) -> bool:
        """Would ``add(row)`` report a dependent row?  Does not record it."""
        work, _ = self._reduce(self._integer_row(row)[0], None)
        return not any(work)

    def add(self, row: Sequence) -> Tuple[bool, Optional[dict]]:
        work, scale = self._integer_row(row)
        idx = self._count
        self._count += 1
        work, combo = self._reduce(work, {idx: scale})
        if not any(work):
            # 0 == combo[idx] * original_idx + sum_k combo[k] * original_k
            s = combo.pop(idx)
            return True, {k: Fraction(-c, s) for k, c in combo.items() if c}
        lead = next(j for j, x in enumerate(work) if x)
        self._rows += ((lead, work, {k: c for k, c in combo.items() if c}),)
        return False, None

    @property
    def rank(self) -> int:
        return len(self._rows)
