"""Vectorised linear algebra over GF(2).

Theorem 13 of the paper works inside an elementary Abelian normal 2-subgroup
``N`` (a GF(2) vector space) and repeatedly solves Simon-style hidden
subgroup instances over ``Z_2 x N``.  All of the post-processing there —
nullspaces, rank computations, membership in spans, solving linear systems —
happens in GF(2), which this module implements with NumPy ``uint8`` arrays
and whole-row XOR operations (no Python-level loops over matrix entries in
the elimination inner step), following the vectorisation guidance of the HPC
coding guides.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["GF2Matrix", "gf2_rank", "gf2_nullspace", "gf2_solve", "gf2_rref", "gf2_span_contains"]


def _as_matrix(rows: Sequence[Sequence[int]]) -> np.ndarray:
    mat = np.array(rows, dtype=np.uint8)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    return mat & 1


def gf2_rref(rows: Sequence[Sequence[int]]) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form over GF(2).

    Returns ``(rref_matrix, pivot_columns)``.  The reduction uses boolean
    masking so every elimination step is a single vectorised XOR of the pivot
    row into all rows that currently have a one in the pivot column.
    """
    mat = _as_matrix(rows).copy()
    m, n = mat.shape
    pivots: List[int] = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        pivot_rows = np.nonzero(mat[row:, col])[0]
        if pivot_rows.size == 0:
            continue
        pivot = row + int(pivot_rows[0])
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        # XOR the pivot row into every other row that has a 1 in this column.
        mask = mat[:, col].astype(bool)
        mask[row] = False
        mat[mask] ^= mat[row]
        pivots.append(col)
        row += 1
    return mat, pivots


def gf2_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank of a GF(2) matrix."""
    _, pivots = gf2_rref(rows)
    return len(pivots)


def gf2_nullspace(rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Basis of the right nullspace ``{x : A x = 0}`` over GF(2).

    Returns an array of shape ``(dim_nullspace, n)``; the rows are the basis
    vectors.  This is the classical post-processing step of Simon's algorithm
    and of every ``Z_2 x N`` instance in Theorem 13: the Fourier samples span
    the orthogonal complement and the nullspace recovers the hidden subgroup.
    """
    mat = _as_matrix(rows)
    m, n = mat.shape
    rref, pivots = gf2_rref(mat)
    free_cols = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free_cols), n), dtype=np.uint8)
    if free_cols:
        basis[np.arange(len(free_cols)), free_cols] = 1
        if pivots:
            # Basis vector i copies the free column i of the RREF into the
            # pivot coordinates — one transposed slice instead of a loop
            # over matrix entries.
            basis[:, np.asarray(pivots)] = rref[: len(pivots), np.asarray(free_cols)].T
    return basis


def gf2_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[np.ndarray]:
    """Solve ``A x = b`` over GF(2); return one solution or ``None``."""
    mat = _as_matrix(rows)
    b = np.array(rhs, dtype=np.uint8).reshape(-1) & 1
    if mat.shape[0] != b.shape[0]:
        raise ValueError("incompatible shapes for gf2_solve")
    augmented = np.concatenate([mat, b.reshape(-1, 1)], axis=1)
    rref, pivots = gf2_rref(augmented)
    n = mat.shape[1]
    if n in pivots:
        return None  # pivot in the augmented column: inconsistent system
    x = np.zeros(n, dtype=np.uint8)
    if pivots:
        x[np.asarray(pivots)] = rref[: len(pivots), n]
    return x


def gf2_span_contains(rows: Sequence[Sequence[int]], vector: Sequence[int]) -> bool:
    """Whether ``vector`` lies in the row span of ``rows`` over GF(2)."""
    mat = _as_matrix(rows)
    if not mat.size:
        return not any(int(v) & 1 for v in vector)
    return gf2_solve(mat.T, vector) is not None


class GF2Matrix:
    """Thin object wrapper bundling a GF(2) matrix with its derived data.

    The wrapper caches the reduced row echelon form so repeated membership
    tests against the same span (the common access pattern in Theorem 13's
    generator-collection loop) do not redo the elimination.
    """

    def __init__(self, rows: Sequence[Sequence[int]] | np.ndarray, ncols: Optional[int] = None):
        if isinstance(rows, np.ndarray) and rows.size == 0 or (not isinstance(rows, np.ndarray) and len(rows) == 0):
            if ncols is None:
                raise ValueError("ncols is required for an empty matrix")
            self._mat = np.zeros((0, ncols), dtype=np.uint8)
        else:
            self._mat = _as_matrix(rows)
        self._rref: Optional[np.ndarray] = None
        self._pivots: Optional[List[int]] = None

    # -- construction helpers -------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(np.eye(n, dtype=np.uint8))

    @classmethod
    def zeros(cls, m: int, n: int) -> "GF2Matrix":
        return cls(np.zeros((m, n), dtype=np.uint8))

    # -- basic accessors --------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        return self._mat

    @property
    def shape(self) -> Tuple[int, int]:
        return self._mat.shape

    def _ensure_rref(self) -> None:
        if self._rref is None:
            self._rref, self._pivots = gf2_rref(self._mat)

    @property
    def rank(self) -> int:
        self._ensure_rref()
        return len(self._pivots or [])

    # -- algebra ------------------------------------------------------------------
    def matmul(self, other: "GF2Matrix") -> "GF2Matrix":
        product = (self._mat.astype(np.uint32) @ other._mat.astype(np.uint32)) & 1
        return GF2Matrix(product.astype(np.uint8))

    def apply(self, vector: Sequence[int]) -> np.ndarray:
        vec = np.array(vector, dtype=np.uint32) & 1
        return ((self._mat.astype(np.uint32) @ vec) & 1).astype(np.uint8)

    def nullspace(self) -> np.ndarray:
        return gf2_nullspace(self._mat)

    def solve(self, rhs: Sequence[int]) -> Optional[np.ndarray]:
        return gf2_solve(self._mat, rhs)

    def span_contains(self, vector: Sequence[int]) -> bool:
        if self._mat.shape[0] == 0:
            return not any(int(v) & 1 for v in vector)
        return gf2_solve(self._mat.T, vector) is not None

    def stack(self, vector: Sequence[int]) -> "GF2Matrix":
        """A new matrix with ``vector`` appended as an extra row."""
        vec = np.array(vector, dtype=np.uint8).reshape(1, -1) & 1
        return GF2Matrix(np.concatenate([self._mat, vec], axis=0))

    def row_basis(self) -> np.ndarray:
        """An independent subset of rows spanning the same row space."""
        self._ensure_rref()
        rref = self._rref
        assert rref is not None and self._pivots is not None
        rows = rref[: len(self._pivots)]
        return rows.copy()

    def __eq__(self, other) -> bool:
        if not isinstance(other, GF2Matrix):
            return NotImplemented
        if self.shape[1] != other.shape[1]:
            return False
        return np.array_equal(GF2Matrix(self.row_basis(), self.shape[1])._mat if self.shape[0] else self._mat,
                              GF2Matrix(other.row_basis(), other.shape[1])._mat if other.shape[0] else other._mat)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GF2Matrix(shape={self.shape}, rank={self.rank})"


def gf2_random_full_rank(n: int, rng) -> np.ndarray:
    """Uniformly random invertible ``n x n`` matrix over GF(2) (rejection sampling)."""
    while True:
        mat = rng.integers(0, 2, size=(n, n), dtype=np.uint8)
        if gf2_rank(mat) == n:
            return mat
