"""Power-product oracles: the Abelian HSP instances built inside the paper's algorithms.

Every non-Abelian algorithm in the paper reduces its quantum work to Abelian
HSP instances of a specific shape: pick commuting elements (or elements that
commute *modulo* a normal subgroup), form the homomorphism

``phi(a_1, ..., a_r) = h_1^{a_1} ... h_r^{a_r}``      (Theorems 1, 6)
``phi(a_1, ..., a_r, a) = f(h_1^{a_1} ... h_r^{a_r} g^{-a})``  (Theorems 6, 7)
``phi(i, a_1, ..., a_m) = f(n_1^{a_1} ... n_m^{a_m} z^i)``      (Theorem 13)

and find its kernel by Fourier sampling.  This module builds those oracles.

Kernel declaration (simulation honesty): the analytic sampling backend needs
the coset structure of the oracle.  For a *pure* power product into an
Abelian tuple group the kernel is a lattice kernel and is declared
explicitly (polynomial time, no cheating — it is classical linear algebra).
For oracles that involve the hiding function ``f`` the kernel is *not*
declared; the sampler falls back to domain enumeration (the statevector-cost
simulation of one superposition query), bounded by ``max_enumeration``.

That enumeration is the simulation's hot loop, so when the group is a
counted black box whose Cayley engine is also the one ``f`` is keyed on, the
whole domain scan stays in engine ids: one uncounted power table per
element, one bulk product per factor and one batched evaluation of ``f``.
It charges exactly what the per-point loop charges — the binary
exponentiation of every power plus the fold product — so query reports do
not depend on the route.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.oracle import DenseBlackBoxGroup, HidingOracle, QueryCounter, shared_dense_view
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.base import FiniteGroup
from repro.linalg.hermite import integer_kernel
from repro.linalg.zmodule import canonical_generators
from repro.quantum.sampling import TupleFunctionOracle

__all__ = [
    "power_product_oracle",
    "hidden_power_product_oracle",
    "linear_kernel_of_power_product",
]

Vector = Tuple[int, ...]


def linear_kernel_of_power_product(
    group: AbelianTupleGroup,
    elements: Sequence,
    moduli: Sequence[int],
) -> List[Vector]:
    """Kernel of ``alpha -> sum_i alpha_i * x_i`` for elements of an Abelian tuple group.

    Pure linear algebra over the integers: ``alpha`` is in the kernel iff
    ``sum_i alpha_i x_i = 0`` in ``Z_{t1} x ... x Z_{tk}``, i.e. iff the
    stacked system with the relations ``t_j e_j`` has an integer solution.
    """
    ambient = group.moduli
    r = len(elements)
    k = len(ambient)
    # Columns: one per alpha_i, then one per ambient relation.
    rows = [
        [int(elements[i][row]) for i in range(r)] + [int(ambient[row]) if col == row else 0 for col in range(k)]
        for row in range(k)
    ]
    kernel = integer_kernel(rows)
    projected = [vec[:r] for vec in kernel]
    return canonical_generators(projected, moduli)


def power_product_oracle(
    group: FiniteGroup,
    elements: Sequence,
    orders: Sequence[int],
    counter: Optional[QueryCounter] = None,
    description: str = "power product",
    max_enumeration: int = 1 << 18,
) -> TupleFunctionOracle:
    """The oracle ``alpha -> h_1^{a_1} ... h_r^{a_r}`` over ``Z_{s1} x ... x Z_{sr}``.

    The elements must commute pairwise (the constructive membership setting
    of Theorem 6); ``orders`` are their element orders, which define the
    domain moduli.  When the ambient group is an Abelian tuple group the
    kernel is declared via exact linear algebra so the analytic sampling
    backend runs in polynomial time.
    """
    elements = list(elements)
    orders = [int(s) for s in orders]

    def label(alpha: Vector):
        product = group.identity()
        for element, exponent in zip(elements, alpha):
            product = group.multiply(product, group.power(element, int(exponent)))
        return group.encode(product)

    declared = None
    if isinstance(group, AbelianTupleGroup):
        declared = linear_kernel_of_power_product(group, elements, orders)
    return TupleFunctionOracle(
        orders,
        label,
        declared_kernel=declared,
        counter=counter,
        description=description,
        max_enumeration=max_enumeration,
    )


def hidden_power_product_oracle(
    group: FiniteGroup,
    hiding: HidingOracle,
    elements: Sequence,
    orders: Sequence[int],
    counter: Optional[QueryCounter] = None,
    description: str = "power product mod hidden subgroup",
    max_enumeration: int = 1 << 18,
) -> TupleFunctionOracle:
    """The oracle ``alpha -> f(h_1^{a_1} ... h_r^{a_r})`` (Theorems 7, 11, 13).

    The elements must commute *modulo the hidden subgroup* of ``f`` (e.g.
    because the factor group is Abelian); the hidden subgroup of this oracle
    is then the set of exponent tuples whose power product lands inside the
    subgroup hidden by ``f``.
    """
    elements = list(elements)
    orders = [int(s) for s in orders]

    def label(alpha: Vector):
        product = group.identity()
        for element, exponent in zip(elements, alpha):
            product = group.multiply(product, group.power(element, int(exponent)))
        return hiding(product)

    dense = shared_dense_view(group, hiding)
    label_many = None if dense is None else _bulk_power_product_labeller(dense, hiding, elements, orders)
    return TupleFunctionOracle(
        orders,
        label,
        declared_kernel=None,
        counter=counter if counter is not None else hiding.counter,
        description=description,
        max_enumeration=max_enumeration,
        label_many=label_many,
    )


def _power_charge(exponent: int) -> int:
    """Group multiplications the per-point loop spends on one factor ``h^a``.

    :meth:`~repro.groups.base.FiniteGroup.power` on a counted black box
    multiplies once per set bit and squares once per bit of ``a``; the fold
    into the running product is one more.
    """
    return bin(exponent).count("1") + exponent.bit_length() + 1


def _bulk_power_product_labeller(
    dense: DenseBlackBoxGroup,
    hiding: HidingOracle,
    elements: Sequence,
    orders: Sequence[int],
) -> Callable[[np.ndarray], np.ndarray]:
    """Batched twin of the per-point ``f(h_1^{a_1} ... h_r^{a_r})`` labeller.

    Power tables and products run uncounted in the engine; the counter is
    charged :func:`_power_charge` per factor of every point, the per-point
    loop's total, and ``f`` is asked once for the whole batch.  Points come
    as an int64 exponent matrix; the labels go back as ``f``'s label
    array.
    """
    engine = dense.engine
    # h^a is the cycle [1, h, ..., h^(ord h - 1)] at a mod ord h: one batched
    # chain walk cut at each factor's order, tiled up to it.
    chains = engine.cyclic_ids([engine.intern(h) for h in elements], orders)
    tables = [np.resize(np.append(engine.identity_id, chain), s) for chain, s in zip(chains, orders)]
    charges = [np.asarray([_power_charge(a) for a in range(s)], dtype=np.int64) for s in orders]

    def label_many(points: np.ndarray) -> np.ndarray:
        exponents = np.asarray(points, dtype=np.int64).reshape(len(points), len(tables))
        product = np.full(len(points), engine.identity_id, dtype=np.int64)
        charged = 0
        for j, (table, charge) in enumerate(zip(tables, charges)):
            column = exponents[:, j]
            product = table[column] if j == 0 else engine.mul_many(product, table[column])
            charged += int(charge[column].sum())
        dense.counter.group_multiplications += charged
        return hiding.evaluate_ids(product)

    return label_many
