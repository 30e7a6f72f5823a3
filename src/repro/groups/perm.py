"""Permutation groups with a Schreier--Sims stabiliser chain.

Theorem 8 of the paper states that hidden *normal* subgroups of permutation
groups can be found in quantum polynomial time (because ``nu(G/N)`` is
polynomially bounded for permutation groups).  The experiments therefore need
honest permutation-group machinery: orders, membership and normal closures
computed from a base and strong generating set rather than by enumeration.

Permutations of degree ``n`` are represented as tuples ``p`` of length ``n``
with ``p[i]`` the image of point ``i``; composition is ``(p * q)(i) =
p[q[i]]`` ("apply ``q`` first").
"""

from __future__ import annotations

from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.base import DenseKernel, FiniteGroup, GroupError

__all__ = [
    "compose",
    "invert",
    "compose_many",
    "invert_many",
    "permutation_from_cycles",
    "cycle_decomposition",
    "permutation_order",
    "SchreierSims",
    "PermutationGroup",
    "symmetric_group",
    "alternating_group",
    "cyclic_permutation_group",
    "dihedral_group",
]

Perm = Tuple[int, ...]


# ---------------------------------------------------------------------------
# Permutation primitives
# ---------------------------------------------------------------------------


def _compose_images(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """The batch composition kernel: image rows of ``p * q`` (apply ``q`` first).

    Fancy-indexes each row of an ``(n, degree)`` image matrix ``ps`` by the
    matching row of ``qs`` (``axis=-1``).  :func:`compose_many` and the
    Cayley engine's :class:`_PermKernel` call through here; the scalar
    :func:`compose` computes the same images on tuples in plain Python.
    """
    return np.take_along_axis(ps, qs, axis=-1)


def _invert_images(ps: np.ndarray) -> np.ndarray:
    """Row-wise inverses: the argsort of a permutation's images is its inverse."""
    return np.argsort(ps, axis=-1, kind="stable")


def compose(p: Perm, q: Perm) -> Perm:
    """``p * q``: apply ``q`` first, then ``p`` (the entries are ``p``'s own)."""
    return tuple([p[i] for i in q])


def invert(p: Perm) -> Perm:
    """Inverse permutation (its entries are Python ints)."""
    inverse = [0] * len(p)
    for point, image in enumerate(p):
        inverse[image] = point
    return tuple(inverse)


def compose_many(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """Row-wise composition of two ``(n, degree)`` image matrices."""
    ps = np.asarray(ps, dtype=np.int64)
    qs = np.asarray(qs, dtype=np.int64)
    if ps.shape != qs.shape:
        raise GroupError("compose_many requires image matrices of equal shape")
    return _compose_images(ps, qs)


def invert_many(ps: np.ndarray) -> np.ndarray:
    """Row-wise inverses of an ``(n, degree)`` image matrix."""
    return _invert_images(np.asarray(ps, dtype=np.int64))


def permutation_from_cycles(degree: int, cycles: Sequence[Sequence[int]]) -> Perm:
    """Build a permutation of ``degree`` points from disjoint cycles."""
    images = list(range(degree))
    for cycle in cycles:
        if not cycle:
            continue
        for position, point in enumerate(cycle):
            if point < 0 or point >= degree:
                raise GroupError(f"cycle point {point} outside degree {degree}")
            images[point] = cycle[(position + 1) % len(cycle)]
    return tuple(images)


def cycle_decomposition(p: Perm) -> List[Tuple[int, ...]]:
    """Disjoint cycle decomposition (cycles of length >= 2, sorted by minimum)."""
    seen = [False] * len(p)
    cycles: List[Tuple[int, ...]] = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        current = p[start]
        while current != start:
            cycle.append(current)
            seen[current] = True
            current = p[current]
        cycles.append(tuple(cycle))
    return cycles


def permutation_order(p: Perm) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    order = 1
    for cycle in cycle_decomposition(p):
        length = len(cycle)
        order = order * length // gcd(order, length)
    return order


def permutation_sign(p: Perm) -> int:
    """Sign (+1/-1) of a permutation."""
    parity = sum(len(c) - 1 for c in cycle_decomposition(p))
    return -1 if parity % 2 else 1


class _PermKernel(DenseKernel):
    """Dense rows are the image vectors themselves: ``width == degree``."""

    def __init__(self, degree: int):
        self.width = degree
        self.radices = (degree,) * degree

    def encode_many(self, elements: Sequence[Perm]) -> np.ndarray:
        if not elements:
            return np.empty((0, self.width), dtype=np.int64)
        return np.asarray(list(elements), dtype=np.int64)

    def decode_many(self, rows: np.ndarray) -> List[Perm]:
        return [tuple(int(v) for v in row) for row in rows]

    def compose_many(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        return _compose_images(rows_a, rows_b)

    def inverse_many(self, rows: np.ndarray) -> np.ndarray:
        return _invert_images(rows)


# ---------------------------------------------------------------------------
# Schreier--Sims stabiliser chain
# ---------------------------------------------------------------------------


class SchreierSims:
    """Base and strong generating set for a permutation group.

    A deliberately simple deterministic Schreier--Sims: transversals for all
    levels are recomputed whenever the strong generating set grows.  For the
    moderate degrees used in the experiments (a few dozen points) this is far
    below the cost of anything else in the pipeline, and it keeps the
    invariants easy to audit.
    """

    def __init__(self, generators: Sequence[Perm], degree: int):
        self.degree = degree
        self.identity: Perm = tuple(range(degree))
        self.base: List[int] = []
        self.strong_gens: List[Perm] = [tuple(g) for g in generators if tuple(g) != self.identity]
        self.transversals: List[Dict[int, Perm]] = []
        self._build()

    # -- construction -------------------------------------------------------
    def _fixes(self, g: Perm, points: Sequence[int]) -> bool:
        return all(g[p] == p for p in points)

    def _gens_at_level(self, level: int) -> List[Perm]:
        prefix = self.base[:level]
        return [g for g in self.strong_gens if self._fixes(g, prefix)]

    def _orbit_transversal(self, point: int, gens: Sequence[Perm]) -> Dict[int, Perm]:
        transversal = {point: self.identity}
        frontier = [point]
        while frontier:
            nxt: List[int] = []
            for beta in frontier:
                for g in gens:
                    image = g[beta]
                    if image not in transversal:
                        transversal[image] = compose(g, transversal[beta])
                        nxt.append(image)
            frontier = nxt
        return transversal

    def _extend_base(self, g: Perm) -> None:
        for p in range(self.degree):
            if g[p] != p:
                self.base.append(p)
                return
        raise GroupError("cannot extend base with the identity permutation")

    def _recompute_transversals(self) -> None:
        self.transversals = [
            self._orbit_transversal(self.base[i], self._gens_at_level(i)) for i in range(len(self.base))
        ]

    def _strip(self, g: Perm, level: int = 0) -> Tuple[Perm, int]:
        """Sift ``g`` through the chain starting at ``level``.

        Returns ``(residue, drop_level)``; ``g`` is a member of the
        ``level``-th stabiliser iff the residue is the identity and
        ``drop_level == len(base)``.
        """
        current = g
        for i in range(level, len(self.base)):
            image = current[self.base[i]]
            transversal = self.transversals[i]
            if image not in transversal:
                return current, i
            current = compose(invert(transversal[image]), current)
        return current, len(self.base)

    def _build(self) -> None:
        for g in self.strong_gens:
            if self._fixes(g, self.base):
                self._extend_base(g)
        self._recompute_transversals()
        level = len(self.base) - 1
        while level >= 0:
            restart = False
            gens_here = self._gens_at_level(level)
            transversal = self.transversals[level]
            for beta, u_beta in list(transversal.items()):
                for g in gens_here:
                    image = g[beta]
                    u_image = transversal[image]
                    schreier_gen = compose(invert(u_image), compose(g, u_beta))
                    if schreier_gen == self.identity:
                        continue
                    residue, drop = self._strip(schreier_gen, level + 1)
                    if residue != self.identity:
                        self.strong_gens.append(residue)
                        if drop == len(self.base):
                            self._extend_base(residue)
                        self._recompute_transversals()
                        level = drop
                        restart = True
                        break
                if restart:
                    break
            if not restart:
                level -= 1

    # -- queries ---------------------------------------------------------------
    def order(self) -> int:
        size = 1
        for transversal in self.transversals:
            size *= len(transversal)
        return size

    def contains(self, g: Perm) -> bool:
        if len(g) != self.degree:
            return False
        residue, drop = self._strip(tuple(g))
        return residue == self.identity and drop == len(self.base)

    def random_element(self, rng: np.random.Generator) -> Perm:
        """Exactly uniform random element via the stabiliser chain."""
        g = self.identity
        for transversal in self.transversals:
            reps = list(transversal.values())
            g = compose(g, reps[int(rng.integers(0, len(reps)))])
        return g


# ---------------------------------------------------------------------------
# The group class
# ---------------------------------------------------------------------------


class PermutationGroup(FiniteGroup):
    """A permutation group of fixed degree given by generating permutations."""

    def __init__(self, generators: Sequence[Perm], degree: Optional[int] = None, name: str = "PermGroup"):
        generators = [tuple(g) for g in generators]
        if degree is None:
            if not generators:
                raise GroupError("degree is required for a trivial permutation group")
            degree = len(generators[0])
        for g in generators:
            if len(g) != degree or sorted(g) != list(range(degree)):
                raise GroupError(f"invalid permutation of degree {degree}: {g}")
        self.degree = degree
        self._generators = generators
        self.name = name
        self._chain: Optional[SchreierSims] = None

    # -- FiniteGroup interface -------------------------------------------------
    def identity(self) -> Perm:
        return tuple(range(self.degree))

    def multiply(self, a: Perm, b: Perm) -> Perm:
        return compose(a, b)

    def inverse(self, a: Perm) -> Perm:
        return invert(a)

    def generators(self) -> List[Perm]:
        return list(self._generators)

    def encode(self, a: Perm) -> bytes:
        return bytes(a) if self.degree < 256 else repr(a).encode()

    def decode(self, code: bytes) -> Perm:
        if self.degree < 256:
            return tuple(code)
        return tuple(eval(code.decode()))  # noqa: S307 - diagnostics only

    def dense_kernel(self) -> _PermKernel:
        return _PermKernel(self.degree)

    # -- structure ---------------------------------------------------------------
    @property
    def chain(self) -> SchreierSims:
        if self._chain is None:
            self._chain = SchreierSims(self._generators, self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def exponent_bound(self) -> int:
        return self.order()

    def element_order(self, a: Perm, exponent: Optional[int] = None) -> int:
        return permutation_order(a)

    def contains_permutation(self, g: Perm) -> bool:
        """Membership test via sifting through the stabiliser chain."""
        return self.chain.contains(tuple(g))

    def uniform_random_element(self, rng: np.random.Generator) -> Perm:
        return self.chain.random_element(rng)

    def is_transitive(self) -> bool:
        orbit = {0}
        frontier = [0]
        gens = self._generators + [invert(g) for g in self._generators]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    if g[p] not in orbit:
                        orbit.add(g[p])
                        nxt.append(g[p])
            frontier = nxt
        return len(orbit) == self.degree


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------


def symmetric_group(n: int) -> PermutationGroup:
    """The symmetric group ``S_n`` on ``{0, ..., n-1}``."""
    if n < 1:
        raise GroupError("symmetric_group requires n >= 1")
    if n == 1:
        return PermutationGroup([], degree=1, name="S_1")
    transposition = permutation_from_cycles(n, [(0, 1)])
    cycle = tuple(list(range(1, n)) + [0])
    return PermutationGroup([transposition, cycle], degree=n, name=f"S_{n}")


def alternating_group(n: int) -> PermutationGroup:
    """The alternating group ``A_n``."""
    if n < 3:
        return PermutationGroup([], degree=max(n, 1), name=f"A_{n}")
    three_cycle = permutation_from_cycles(n, [(0, 1, 2)])
    if n % 2 == 1:
        long_cycle = tuple(list(range(1, n)) + [0])
        gens = [three_cycle, long_cycle]
    else:
        rotated = permutation_from_cycles(n, [tuple(range(1, n))])
        gens = [three_cycle, rotated]
    return PermutationGroup(gens, degree=n, name=f"A_{n}")


def cyclic_permutation_group(n: int) -> PermutationGroup:
    """The cyclic group ``Z_n`` acting regularly on ``n`` points."""
    cycle = tuple(list(range(1, n)) + [0])
    return PermutationGroup([cycle], degree=n, name=f"Z_{n}(perm)")


def dihedral_group(n: int) -> PermutationGroup:
    """The dihedral group ``D_n`` of order ``2n`` acting on ``n`` vertices."""
    if n < 3:
        raise GroupError("dihedral_group requires n >= 3")
    rotation = tuple(list(range(1, n)) + [0])
    reflection = tuple((n - i) % n for i in range(n))
    return PermutationGroup([rotation, reflection], degree=n, name=f"D_{n}")
