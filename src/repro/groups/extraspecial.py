"""Extraspecial p-groups (Heisenberg groups) in coordinates.

A group ``G`` is *extraspecial* if its commutator subgroup ``G'`` coincides
with its center, ``|G'| = p`` and ``G/G'`` is elementary Abelian.
Corollary 12 of the paper solves the HSP in such groups in time polynomial in
``input size + p`` by applying Theorem 11 (the commutator subgroup has only
``p`` elements).

The coordinate model used here is the (generalised) Heisenberg group
``H_p(n)`` of order ``p^{2n+1}``: elements are triples ``(a, b, c)`` with
``a, b`` in ``Z_p^n`` and ``c`` in ``Z_p``, and multiplication

``(a, b, c) * (a', b', c') = (a + a', b + b', c + c' + a . b')``.

Its center and commutator subgroup are both ``{(0, 0, c)}``, of order ``p``,
so the group is extraspecial of exponent ``p`` for odd ``p``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.base import DenseKernel, FiniteGroup, GroupError
from repro.linalg.modular import is_probable_prime

__all__ = ["HeisenbergGroup", "extraspecial_group"]

HeisElement = Tuple[Tuple[int, ...], Tuple[int, ...], int]


class _HeisenbergKernel(DenseKernel):
    """Rows are ``[a | b | c]`` concatenations of width ``2n + 1``."""

    def __init__(self, p: int, n: int):
        self.p = p
        self.n = n
        self.width = 2 * n + 1
        self.radices = (p,) * self.width

    def encode_many(self, elements: Sequence[HeisElement]) -> np.ndarray:
        if not elements:
            return np.empty((0, self.width), dtype=np.int64)
        return np.asarray([list(a) + list(b) + [c] for a, b, c in elements], dtype=np.int64)

    def decode_many(self, rows: np.ndarray) -> List[HeisElement]:
        n = self.n
        return [
            (tuple(int(v) for v in row[:n]), tuple(int(v) for v in row[n : 2 * n]), int(row[2 * n]))
            for row in rows
        ]

    def compose_many(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        p, n = self.p, self.n
        out = (rows_a + rows_b) % p
        cross = np.einsum("ij,ij->i", rows_a[:, :n], rows_b[:, n : 2 * n])
        out[:, 2 * n] = (rows_a[:, 2 * n] + rows_b[:, 2 * n] + cross) % p
        return out

    def inverse_many(self, rows: np.ndarray) -> np.ndarray:
        p, n = self.p, self.n
        out = (-rows) % p
        cross = np.einsum("ij,ij->i", rows[:, :n], rows[:, n : 2 * n])
        out[:, 2 * n] = (-rows[:, 2 * n] + cross) % p
        return out


class HeisenbergGroup(FiniteGroup):
    """The generalised Heisenberg group ``H_p(n)`` of order ``p^{2n+1}``."""

    def __init__(self, p: int, n: int = 1):
        if not is_probable_prime(p):
            raise GroupError("HeisenbergGroup requires a prime p")
        if n < 1:
            raise GroupError("HeisenbergGroup requires n >= 1")
        self.p = p
        self.n = n
        self.name = f"Heisenberg(p={p}, n={n})"

    # -- FiniteGroup interface -------------------------------------------------
    def identity(self) -> HeisElement:
        zero = tuple(0 for _ in range(self.n))
        return (zero, zero, 0)

    def multiply(self, x: HeisElement, y: HeisElement) -> HeisElement:
        a1, b1, c1 = x
        a2, b2, c2 = y
        p = self.p
        a = tuple((u + v) % p for u, v in zip(a1, a2))
        b = tuple((u + v) % p for u, v in zip(b1, b2))
        cross = sum(u * v for u, v in zip(a1, b2)) % p
        c = (c1 + c2 + cross) % p
        return (a, b, c)

    def inverse(self, x: HeisElement) -> HeisElement:
        a, b, c = x
        p = self.p
        inv_a = tuple((-u) % p for u in a)
        inv_b = tuple((-v) % p for v in b)
        cross = sum(u * v for u, v in zip(a, b)) % p
        inv_c = (-c + cross) % p
        return (inv_a, inv_b, inv_c)

    def generators(self) -> List[HeisElement]:
        zero = tuple(0 for _ in range(self.n))
        gens: List[HeisElement] = []
        for i in range(self.n):
            e_i = tuple(1 if j == i else 0 for j in range(self.n))
            gens.append((e_i, zero, 0))
            gens.append((zero, e_i, 0))
        return gens

    def encode(self, x: HeisElement) -> bytes:
        a, b, c = x
        return (",".join(map(str, a)) + ";" + ",".join(map(str, b)) + ";" + str(c)).encode()

    def decode(self, code: bytes) -> HeisElement:
        part_a, part_b, part_c = code.decode().split(";")
        a = tuple(int(v) for v in part_a.split(","))
        b = tuple(int(v) for v in part_b.split(","))
        return (a, b, int(part_c))

    # -- structure ---------------------------------------------------------------
    def order(self) -> int:
        return self.p ** (2 * self.n + 1)

    def exponent_bound(self) -> int:
        # Exponent is p for odd p and 4 for p = 2.
        return self.p if self.p != 2 else 4

    def uniform_random_element(self, rng: np.random.Generator) -> HeisElement:
        a = tuple(int(rng.integers(0, self.p)) for _ in range(self.n))
        b = tuple(int(rng.integers(0, self.p)) for _ in range(self.n))
        c = int(rng.integers(0, self.p))
        return (a, b, c)

    def dense_kernel(self) -> Optional[_HeisenbergKernel]:
        # The cross-term dot products must stay inside int64.
        if self.p >= (1 << 31) or self.n * self.p * self.p >= (1 << 62):
            return None
        return _HeisenbergKernel(self.p, self.n)

    # -- extraspecial structure -----------------------------------------------------
    def center_generators(self) -> List[HeisElement]:
        """Generators of the center ``Z(G) = G' = {(0, 0, c)}``."""
        zero = tuple(0 for _ in range(self.n))
        return [(zero, zero, 1)]

    def commutator_subgroup_elements(self) -> List[HeisElement]:
        """All ``p`` elements of the commutator subgroup (used by Theorem 11)."""
        zero = tuple(0 for _ in range(self.n))
        return [(zero, zero, c) for c in range(self.p)]


def extraspecial_group(p: int, n: int = 1) -> HeisenbergGroup:
    """The extraspecial group of order ``p^{2n+1}`` and exponent ``p`` (odd ``p``)."""
    return HeisenbergGroup(p, n)
