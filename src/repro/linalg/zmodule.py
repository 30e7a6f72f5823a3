"""Subgroup arithmetic in finite Abelian groups ``Z_{s1} x ... x Z_{sr}``.

Elements are integer tuples, one coordinate per cyclic factor.  Subgroups are
handled through their generating sets; all structural questions (membership,
order, orthogonal/annihilator subgroups, cyclic decomposition) reduce to
Hermite/Smith normal form computations on small integer matrices.

This module is the classical heart of the Abelian HSP pipeline:

* Fourier sampling (``repro.quantum``) produces uniform samples of the
  annihilator ``H^perp``; :func:`annihilator` applied to those samples
  recovers ``H`` (Theorem 3 of the paper).
* :func:`member_coefficients` provides the *constructive* membership witness
  used in Theorem 6 to express a group element as a power product of
  commuting generators.
* :func:`cyclic_decomposition` realises the Cheung--Mosca decomposition
  (Theorem 1) once the relation lattice is known.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.linalg.hermite import hermite_normal_form, integer_kernel, lattice_index
from repro.linalg.modular import lcm_list
from repro.linalg.smith import smith_normal_form

__all__ = [
    "ZModule",
    "reduce_element",
    "annihilator",
    "kernel_mod",
    "member_coefficients",
    "subgroup_contains",
    "subgroup_contains_many",
    "subgroup_order",
    "canonical_generators",
    "cyclic_decomposition",
    "CosetReducer",
    "coset_representative",
    "coset_representative_many",
]

Vector = Tuple[int, ...]


def reduce_element(element: Sequence[int], moduli: Sequence[int]) -> Vector:
    """Reduce each coordinate modulo the corresponding cyclic order."""
    return tuple(int(x) % int(m) for x, m in zip(element, moduli))


def _stack_with_relations(generators: Sequence[Sequence[int]], moduli: Sequence[int]) -> List[List[int]]:
    """Rows of the generators together with the defining relations ``s_j e_j``."""
    r = len(moduli)
    rows = [list(map(int, g)) for g in generators]
    for j, s in enumerate(moduli):
        rows.append([int(s) if k == j else 0 for k in range(r)])
    return rows


def kernel_mod(rows: Sequence[Sequence[int]], modulus: int, moduli: Sequence[int]) -> List[Vector]:
    """Generators of ``{x in Z_{s1} x ... x Z_{sr} : rows @ x = 0 (mod modulus)}``.

    The congruence system is solved exactly over the integers: a vector ``x``
    is a solution iff there exists ``k`` with ``M x + modulus * k = 0``; the
    solution lattice is the projection of an integer kernel.
    """
    r = len(moduli)
    m = len(rows)
    if m == 0:
        return [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]
    augmented = [list(map(int, row)) + [modulus if i == j else 0 for j in range(m)] for i, row in enumerate(rows)]
    basis = integer_kernel(augmented)
    gens = [reduce_element(vec[:r], moduli) for vec in basis]
    gens = [g for g in gens if any(g)]
    return canonical_generators(gens, moduli)


def annihilator(generators: Sequence[Sequence[int]], moduli: Sequence[int]) -> List[Vector]:
    """Orthogonal subgroup ``H^perp`` of the subgroup generated by ``generators``.

    With the pairing ``<x, y> = sum_j x_j y_j / s_j  (mod 1)``, the
    annihilator is ``{y : <x, y> = 0 for all x in H}``.  The same routine is
    used in both directions of the Abelian HSP: Fourier samples live in
    ``H^perp`` and ``H = (H^perp)^perp``.
    """
    moduli = [int(s) for s in moduli]
    big = lcm_list(moduli)
    scaled = [[int(g[j]) * (big // moduli[j]) for j in range(len(moduli))] for g in generators]
    return kernel_mod(scaled, big, moduli)


def member_coefficients(
    generators: Sequence[Sequence[int]],
    target: Sequence[int],
    moduli: Sequence[int],
) -> Optional[List[int]]:
    """Express ``target`` as an integer combination of ``generators`` modulo ``moduli``.

    Returns coefficients ``alpha`` with ``sum_i alpha_i * generators[i] ==
    target`` in ``Z_{s1} x ... x Z_{sr}``, or ``None`` when ``target`` lies
    outside the generated subgroup.  This is the classical post-processing of
    the constructive membership test of Theorem 6.
    """
    r = len(moduli)
    m = len(generators)
    # Column j of the system corresponds to generator j; extra columns absorb
    # the relations s_j e_j.
    a = [[int(generators[i][row]) for i in range(m)] + [int(moduli[row]) if col == row else 0 for col in range(r)] for row in range(r)]
    t = [int(x) for x in target]
    d, u, v = smith_normal_form(a)
    n_cols = m + r
    # Solve D w = U t, then coefficients = V w.
    ut = [sum(u[i][k] * t[k] for k in range(r)) for i in range(r)]
    w = [0] * n_cols
    for i in range(r):
        di = d[i][i] if i < min(r, n_cols) else 0
        if di == 0:
            if ut[i] != 0:
                return None
        else:
            if ut[i] % di != 0:
                return None
            w[i] = ut[i] // di
    z = [sum(v[i][k] * w[k] for k in range(n_cols)) for i in range(n_cols)]
    return z[:m]


def subgroup_contains(generators: Sequence[Sequence[int]], element: Sequence[int], moduli: Sequence[int]) -> bool:
    """Membership test in the subgroup generated by ``generators``."""
    return member_coefficients(generators, element, moduli) is not None


def subgroup_contains_many(
    generators: Sequence[Sequence[int]],
    elements: Sequence[Sequence[int]],
    moduli: Sequence[int],
) -> List[bool]:
    """Batch membership test (one Smith normal form for the whole batch).

    Decisions are identical to ``subgroup_contains`` per element: the
    feasibility condition ``D w = U t`` is checked against the same Smith
    form the scalar routine computes.  When every intermediate product fits
    in int64 the divisibility checks run as one matrix product; otherwise
    the checks fall back to exact big-integer arithmetic (still reusing the
    one Smith form).
    """
    moduli = [int(s) for s in moduli]
    elements = [list(map(int, e)) for e in elements]
    if not elements:
        return []
    r = len(moduli)
    m = len(generators)
    a = [
        [int(generators[i][row]) for i in range(m)]
        + [int(moduli[row]) if col == row else 0 for col in range(r)]
        for row in range(r)
    ]
    d, u, _ = smith_normal_form(a)
    n_cols = m + r
    diag = [d[i][i] if i < min(r, n_cols) else 0 for i in range(r)]
    max_u = max((abs(v) for row in u for v in row), default=0)
    max_t = max((abs(v) for e in elements for v in e), default=0)
    if r * max_u * max_t < (1 << 62):
        t_arr = np.asarray(elements, dtype=np.int64)
        u_arr = np.asarray(u, dtype=np.int64)
        ut = t_arr @ u_arr.T
        ok = np.ones(len(elements), dtype=bool)
        for i in range(r):
            if diag[i] == 0:
                ok &= ut[:, i] == 0
            else:
                ok &= ut[:, i] % diag[i] == 0
        return [bool(v) for v in ok]
    out: List[bool] = []
    for t in elements:
        inside = True
        for i in range(r):
            ut_i = sum(u[i][k] * t[k] for k in range(r))
            if diag[i] == 0:
                if ut_i != 0:
                    inside = False
                    break
            elif ut_i % diag[i] != 0:
                inside = False
                break
        out.append(inside)
    return out


def subgroup_order(generators: Sequence[Sequence[int]], moduli: Sequence[int]) -> int:
    """Order of the subgroup of ``Z_{s1} x ... x Z_{sr}`` generated by ``generators``."""
    moduli = [int(s) for s in moduli]
    total = 1
    for s in moduli:
        total *= s
    if not generators:
        return 1
    rows = _stack_with_relations(generators, moduli)
    return total // lattice_index(rows)


def canonical_generators(generators: Sequence[Sequence[int]], moduli: Sequence[int]) -> List[Vector]:
    """A canonical (HNF-derived) generating set for the generated subgroup.

    Two generating sets generate the same subgroup iff their canonical
    generating sets coincide, which gives a cheap equality test for subgroups.
    """
    moduli = [int(s) for s in moduli]
    rows = _stack_with_relations(generators, moduli)
    hnf = hermite_normal_form(rows)
    out = []
    for row in hnf:
        reduced = reduce_element(row, moduli)
        if any(reduced):
            out.append(reduced)
    return out


class CosetReducer:
    """Canonical coset representatives modulo one subgroup ``<generators>``.

    The subgroup lattice (including the relations ``s_j e_j``) has full rank,
    so reducing a point against the Hermite normal form of that lattice,
    pivot by pivot, yields a unique representative per coset.  The pivoted
    Hermite form is computed once, here; every later point costs one floor
    division and one row update per pivot.  This gives a *polynomial-time*
    coset labelling for Abelian groups — the hiding functions of the
    Abelian HSP instances label their whole domain through one reducer, so
    a single oracle query costs neither ``|H|`` group operations nor a
    fresh Hermite form.
    """

    def __init__(self, generators: Sequence[Sequence[int]], moduli: Sequence[int]):
        moduli = [int(s) for s in moduli]
        hnf = hermite_normal_form(_stack_with_relations(generators, moduli))
        self._pivoted = [(row, next(j for j, v in enumerate(row) if v != 0)) for row in hnf]
        self._max_row = max((abs(v) for row in hnf for v in row), default=0)

    def __call__(self, element: Sequence[int]) -> Vector:
        """The canonical representative of ``element + <generators>``."""
        x = [int(v) for v in element]
        for row, pivot_col in self._pivoted:
            q = x[pivot_col] // row[pivot_col]
            if q:
                x = [xi - q * ri for xi, ri in zip(x, row)]
        return tuple(x)

    def many(self, elements: Sequence[Sequence[int]]) -> List[Vector]:
        """Batch reduction, a column of points at a time.

        Performs the scalar call's floor divisions against the same rows, so
        every output tuple is identical to ``self(element)``.  The int64
        fast path bails out to the exact big-integer scalar call the moment
        a reduction step could overflow.
        """
        elements = [[int(v) for v in e] for e in elements]
        if not elements:
            return []
        max_elem = max((abs(v) for e in elements for v in e), default=0)
        if max_elem < (1 << 31) and self._max_row < (1 << 31):
            arr = np.asarray(elements, dtype=np.int64)
            for row, pivot_col in self._pivoted:
                row_arr = np.asarray(row, dtype=np.int64)
                q = arr[:, pivot_col] // row[pivot_col]
                row_bound = max(abs(v) for v in row)
                if int(np.abs(q).max()) * row_bound + int(np.abs(arr).max()) >= (1 << 62):
                    break  # a later step could overflow: finish exactly below
                arr = arr - q[:, None] * row_arr
            else:
                return [tuple(int(v) for v in r) for r in arr]
            elements = [[int(v) for v in r] for r in arr]
        return [self(x) for x in elements]


def coset_representative(
    element: Sequence[int],
    generators: Sequence[Sequence[int]],
    moduli: Sequence[int],
) -> Vector:
    """Canonical representative of the coset ``element + <generators>``.

    A one-point :class:`CosetReducer`; callers labelling many points of one
    subgroup should build the reducer once instead.
    """
    return CosetReducer(generators, moduli)(element)


def coset_representative_many(
    elements: Sequence[Sequence[int]],
    generators: Sequence[Sequence[int]],
    moduli: Sequence[int],
) -> List[Vector]:
    """Batch coset labelling: :meth:`CosetReducer.many` on a one-batch reducer.

    Every output tuple is identical to :func:`coset_representative`'s.
    """
    return CosetReducer(generators, moduli).many(elements)


def cyclic_decomposition(
    generators: Sequence[Sequence[int]],
    moduli: Sequence[int],
) -> List[Tuple[Vector, int]]:
    """Decompose the generated subgroup into a direct sum of cyclic groups.

    Returns a list of ``(generator, order)`` pairs with ``order > 1`` such
    that the subgroup is the internal direct sum of the cyclic groups they
    generate and the orders form a divisibility chain.  This is the classical
    core of the Cheung--Mosca algorithm (Theorem 1 of the paper); the quantum
    part of that algorithm is responsible for producing the relation lattice,
    which here is computed from the generators directly.
    """
    moduli = [int(s) for s in moduli]
    gens = [list(map(int, g)) for g in generators if any(int(x) % m for x, m in zip(g, moduli))]
    if not gens:
        return []
    m = len(gens)
    r = len(moduli)
    # Relation lattice R = {alpha in Z^m : sum alpha_i g_i = 0 in A}.
    system = [[gens[i][row] for i in range(m)] + [moduli[row] if col == row else 0 for col in range(r)] for row in range(r)]
    kernel = integer_kernel(system)
    relations = [vec[:m] for vec in kernel]
    if not relations:
        relations = [[0] * m]
    d, _, v = smith_normal_form(relations)
    from repro.linalg.smith import unimodular_inverse

    v_inv = unimodular_inverse(v)
    # With U R V = D (rows of R spanning the relation lattice), the new
    # generators are g'_j = sum_i (V^{-1})[j][i] g_i: the relation lattice
    # becomes diagonal in the new coordinates, so the subgroup is the direct
    # sum of <g'_j> with |<g'_j>| = d_j.
    out: List[Tuple[Vector, int]] = []
    num_rel = len(relations)
    for j in range(m):
        dj = d[j][j] if j < min(num_rel, m) else 0
        new_gen = [0] * r
        for i in range(m):
            coeff = v_inv[j][i]
            if coeff:
                for k in range(r):
                    new_gen[k] += coeff * gens[i][k]
        new_gen_t = reduce_element(new_gen, moduli)
        if dj == 0:
            # No relation would mean infinite order, impossible in a finite
            # group; it indicates the generator is trivial modulo the others.
            if any(new_gen_t):
                raise RuntimeError("inconsistent relation lattice for a finite group")
            continue
        if dj > 1:
            out.append((new_gen_t, dj))
    return out


class ZModule:
    """The finite Abelian group ``Z_{s1} x ... x Z_{sr}`` with tuple elements.

    This lightweight value class gives the Abelian HSP layer a uniform handle
    on the ambient group: element arithmetic, iteration, subgroup helpers and
    the pairing used for Fourier sampling.
    """

    def __init__(self, moduli: Sequence[int]):
        if any(int(m) <= 0 for m in moduli):
            raise ValueError("all cyclic orders must be positive")
        self.moduli: Tuple[int, ...] = tuple(int(m) for m in moduli)

    # -- basic structure ----------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        total = 1
        for m in self.moduli:
            total *= m
        return total

    @property
    def exponent(self) -> int:
        return lcm_list(self.moduli)

    def identity(self) -> Vector:
        return tuple(0 for _ in self.moduli)

    def reduce(self, element: Sequence[int]) -> Vector:
        return reduce_element(element, self.moduli)

    # -- arithmetic ----------------------------------------------------------
    def add(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        return tuple((int(x) + int(y)) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a: Sequence[int]) -> Vector:
        return tuple((-int(x)) % m for x, m in zip(a, self.moduli))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> Vector:
        return self.add(a, self.neg(b))

    def scalar(self, k: int, a: Sequence[int]) -> Vector:
        return tuple((int(k) * int(x)) % m for x, m in zip(a, self.moduli))

    def element_order(self, a: Sequence[int]) -> int:
        order = 1
        for x, m in zip(a, self.moduli):
            from math import gcd

            order_coord = m // gcd(int(x) % m, m) if int(x) % m else 1
            from repro.linalg.modular import lcm

            order = lcm(order, order_coord)
        return order

    # -- iteration / sampling -------------------------------------------------
    def elements(self) -> Iterator[Vector]:
        """Iterate over all elements (use only for small groups)."""

        def rec(prefix: Tuple[int, ...], idx: int) -> Iterator[Vector]:
            if idx == len(self.moduli):
                yield prefix
                return
            for x in range(self.moduli[idx]):
                yield from rec(prefix + (x,), idx + 1)

        yield from rec(tuple(), 0)

    def random_element(self, rng) -> Vector:
        return tuple(int(rng.integers(0, m)) for m in self.moduli)

    # -- subgroup helpers ------------------------------------------------------
    def subgroup_order(self, generators: Sequence[Sequence[int]]) -> int:
        return subgroup_order(generators, self.moduli)

    def subgroup_contains(self, generators: Sequence[Sequence[int]], element: Sequence[int]) -> bool:
        return subgroup_contains(generators, element, self.moduli)

    def annihilator(self, generators: Sequence[Sequence[int]]) -> List[Vector]:
        return annihilator(generators, self.moduli)

    def canonical(self, generators: Sequence[Sequence[int]]) -> List[Vector]:
        return canonical_generators(generators, self.moduli)

    def subgroups_equal(self, gens_a: Sequence[Sequence[int]], gens_b: Sequence[Sequence[int]]) -> bool:
        return self.canonical(gens_a) == self.canonical(gens_b)

    def subgroup_elements(self, generators: Sequence[Sequence[int]]) -> List[Vector]:
        """Enumerate the subgroup generated by ``generators`` (small subgroups)."""
        seen = {self.identity()}
        frontier = [self.identity()]
        gens = [self.reduce(g) for g in generators]
        while frontier:
            current = frontier.pop()
            for g in gens:
                nxt = self.add(current, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return sorted(seen)

    # -- pairing ----------------------------------------------------------------
    def pairing_phase(self, x: Sequence[int], y: Sequence[int]) -> Tuple[int, int]:
        """The character pairing ``<x, y>`` as an exact fraction ``(num, den)``.

        ``chi_y(x) = exp(2 pi i * num / den)`` with ``den`` the group exponent.
        """
        den = self.exponent
        num = 0
        for xj, yj, mj in zip(x, y, self.moduli):
            num += (int(xj) * int(yj) % mj) * (den // mj)
        return num % den, den

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ZModule{self.moduli}"

    def __eq__(self, other) -> bool:
        return isinstance(other, ZModule) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)
