"""Smith normal form over the integers.

The Smith normal form (SNF) is the workhorse behind every Abelian
reconstruction step in the reproduction:

* recovering the hidden subgroup from Fourier samples of its annihilator
  (Theorem 3 / Lemma 9 of the paper),
* the Cheung--Mosca decomposition of an Abelian black-box group into cyclic
  factors (Theorem 1),
* expressing elements of Abelian subgroups as power products
  (constructive membership, Theorem 6).

Matrices here are small (a handful of generators / samples), so an exact
fraction-free elementary-operation algorithm on Python integers is both
simple and fast enough; the NumPy-heavy paths of the package are elsewhere
(state vectors and GF(2) elimination).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["smith_normal_form", "diagonal_of_snf", "unimodular_inverse"]

Matrix = List[List[int]]


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _swap_rows(mat: Matrix, i: int, j: int) -> None:
    mat[i], mat[j] = mat[j], mat[i]


def _swap_cols(mat: Matrix, i: int, j: int) -> None:
    for row in mat:
        row[i], row[j] = row[j], row[i]


def _add_row(mat: Matrix, src: int, dst: int, factor: int) -> None:
    """``row[dst] += factor * row[src]``."""
    if factor == 0:
        return
    row_src = mat[src]
    row_dst = mat[dst]
    for k in range(len(row_dst)):
        row_dst[k] += factor * row_src[k]


def _add_col(mat: Matrix, src: int, dst: int, factor: int) -> None:
    """``col[dst] += factor * col[src]``."""
    if factor == 0:
        return
    for row in mat:
        row[dst] += factor * row[src]


def _negate_row(mat: Matrix, i: int) -> None:
    mat[i] = [-x for x in mat[i]]


def _find_pivot(a: Matrix, start: int) -> Tuple[int, int] | None:
    """Locate the entry of smallest absolute value in the trailing block."""
    best = None
    best_val = None
    for i in range(start, len(a)):
        for j in range(start, len(a[0])):
            v = abs(a[i][j])
            if v != 0 and (best_val is None or v < best_val):
                best, best_val = (i, j), v
                if v == 1:
                    return best
    return best


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> Tuple[Matrix, Matrix, Matrix]:
    """Compute the Smith normal form ``D = U @ A @ V``.

    Parameters
    ----------
    matrix:
        An ``m x n`` integer matrix ``A`` (sequence of rows).

    Returns
    -------
    (D, U, V):
        ``D`` is diagonal with non-negative entries ``d_1 | d_2 | ...``;
        ``U`` (``m x m``) and ``V`` (``n x n``) are unimodular and satisfy
        ``U A V = D`` exactly.
    """
    a: Matrix = [list(map(int, row)) for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    u = _identity(m)
    v = _identity(n)
    if m == 0 or n == 0:
        return a, u, v

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = _find_pivot(a, t)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            _swap_rows(a, pi, t)
            _swap_rows(u, pi, t)
        if pj != t:
            _swap_cols(a, pj, t)
            _swap_cols(v, pj, t)

        # Eliminate the pivot row and column; restart if a remainder becomes
        # the new (smaller) pivot, which guarantees termination.
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                _add_row(a, t, i, -q)
                _add_row(u, t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                _add_col(a, t, j, -q)
                _add_col(v, t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue

        # Enforce the divisibility chain: the pivot must divide every entry
        # of the trailing block.
        d = a[t][t]
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if a[i][j] % d != 0:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender is not None:
            i, _ = offender
            _add_row(a, i, t, 1)
            _add_row(u, i, t, 1)
            continue
        t += 1

    # Normalise signs of the diagonal.
    for i in range(limit):
        if a[i][i] < 0:
            _negate_row(a, i)
            _negate_row(u, i)
    return a, u, v


def unimodular_inverse(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Exact inverse of a unimodular integer matrix (determinant ``+-1``).

    Gauss--Jordan elimination over exact rationals; the result is integral
    because the determinant is a unit.  Used to turn the ``V`` transform of a
    Smith normal form into new generators (the decomposition step of
    Theorem 1 needs rows of ``V^{-1}``).
    """
    from fractions import Fraction

    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("unimodular_inverse requires a square matrix")
    a = [[Fraction(int(x)) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        pivot_value = a[col][col]
        a[col] = [x / pivot_value for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                factor = a[i][col]
                a[i] = [x - factor * y for x, y in zip(a[i], a[col])]
    inverse = [[a[i][n + j] for j in range(n)] for i in range(n)]
    result: Matrix = []
    for row in inverse:
        out_row = []
        for value in row:
            if value.denominator != 1:
                raise ValueError("matrix is not unimodular (non-integer inverse)")
            out_row.append(int(value))
        result.append(out_row)
    return result


def diagonal_of_snf(matrix: Sequence[Sequence[int]]) -> List[int]:
    """Diagonal entries of the Smith normal form (including zeros)."""
    d, _, _ = smith_normal_form(matrix)
    k = min(len(d), len(d[0]) if d else 0)
    return [d[i][i] for i in range(k)]
