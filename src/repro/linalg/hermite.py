"""Hermite normal form and integer lattice utilities.

The row-style Hermite normal form (HNF) gives a canonical basis for the
lattice generated by the rows of an integer matrix.  The reproduction uses it
for

* canonical representations of subgroups of ``Z_{s1} x ... x Z_{sr}``
  (two generating sets span the same subgroup iff their augmented HNFs agree),
* lattice indices (subgroup orders), and
* integer kernels, which underpin the Fourier-sample reconstruction of hidden
  subgroups.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.linalg.smith import smith_normal_form

__all__ = ["hermite_normal_form", "integer_kernel", "lattice_index", "row_space_contains"]

Matrix = List[List[int]]


def hermite_normal_form(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Row-style Hermite normal form of the lattice spanned by ``matrix`` rows.

    Returns a matrix in row echelon form with positive pivots, entries above
    each pivot reduced modulo the pivot, and zero rows removed.  The row span
    over ``Z`` is preserved.
    """
    a: Matrix = [list(map(int, row)) for row in matrix]
    if not a:
        return []
    m, n = len(a), len(a[0])
    row = 0
    for col in range(n):
        # Find a pivot row with the smallest non-zero entry in this column and
        # reduce the other rows against it until only one non-zero remains.
        while True:
            pivot = None
            best = None
            for i in range(row, m):
                v = abs(a[i][col])
                if v != 0 and (best is None or v < best):
                    pivot, best = i, v
            if pivot is None:
                break
            if pivot != row:
                a[row], a[pivot] = a[pivot], a[row]
            done = True
            for i in range(row + 1, m):
                if a[i][col] != 0:
                    q = a[i][col] // a[row][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[row])]
                    if a[i][col] != 0:
                        done = False
            if done:
                break
        if pivot is None:
            continue
        if a[row][col] < 0:
            a[row] = [-x for x in a[row]]
        # Reduce the rows above modulo the pivot.
        p = a[row][col]
        for i in range(row):
            if a[i][col] != 0:
                q = a[i][col] // p
                a[i] = [x - q * y for x, y in zip(a[i], a[row])]
        row += 1
        if row == m:
            break
    return [r for r in a[:row] if any(r)]


def integer_kernel(matrix: Sequence[Sequence[int]]) -> Matrix:
    """Basis of the integer (right) kernel ``{x in Z^n : A x = 0}``.

    Returned as a list of basis vectors (possibly empty).  Computed from the
    Smith normal form: if ``U A V = D`` then the kernel is spanned by the
    columns of ``V`` whose corresponding diagonal entry of ``D`` is zero.
    """
    a = [list(map(int, row)) for row in matrix]
    if not a or not a[0]:
        n = len(a[0]) if a else 0
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    d, _, v = smith_normal_form(a)
    m, n = len(a), len(a[0])
    basis: Matrix = []
    for j in range(n):
        diag = d[j][j] if j < m else 0
        if diag == 0:
            basis.append([v[i][j] for i in range(n)])
    return basis


def lattice_index(matrix: Sequence[Sequence[int]]) -> int:
    """Index ``[Z^n : L]`` of the lattice ``L`` spanned by the rows.

    Raises :class:`ValueError` when the lattice has infinite index
    (rank deficient).
    """
    hnf = hermite_normal_form(matrix)
    if not matrix:
        raise ValueError("empty generating set spans a rank-0 lattice")
    n = len(matrix[0])
    if len(hnf) < n:
        raise ValueError("lattice does not have full rank")
    det = 1
    col = 0
    for row in hnf:
        while col < n and row[col] == 0:
            col += 1
        det *= row[col]
    return det


def row_space_contains(matrix: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Whether ``vector`` lies in the integer row span of ``matrix``."""
    base = hermite_normal_form(matrix)
    extended = hermite_normal_form(list(matrix) + [list(vector)])
    return base == extended
