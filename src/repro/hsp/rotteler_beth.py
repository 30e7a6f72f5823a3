"""The Rötteler--Beth algorithm for the wreath products ``Z_2^k wr Z_2``.

Rötteler and Beth [24] gave the first polynomial-time quantum HSP algorithm
for a family of non-Abelian groups: the wreath products
``Z_2^k wr Z_2 = (Z_2^k x Z_2^k) : Z_2``.  The paper's Theorem 13 strictly
generalises that result (any elementary Abelian normal 2-subgroup with
cyclic factor group); ``tests/test_integration_end_to_end.py`` runs both
solvers on the same wreath instances to confirm they agree.

The implementation below is the wreath-specialised algorithm: the hidden
subgroup is determined by (a) a Simon-style run over the Abelian base group
``N = Z_2^{2k}`` to find ``H ∩ N`` and (b) a second Simon-style run over
``Z_2 x N`` to decide whether ``H`` contains an element of the non-trivial
coset ``sN`` (``s`` the coordinate swap) and to produce one if so — all
post-processing is GF(2) linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.instances import HSPInstance
from repro.blackbox.oracle import BlackBoxGroup
from repro.quantum.sampling import FourierSampler, TupleFunctionOracle
from repro.hsp.abelian import solve_abelian_hsp

__all__ = ["RottelerBethResult", "rotteler_beth_wreath"]


@dataclass
class RottelerBethResult:
    """Outcome of the wreath-product special-case solver."""

    generators: List
    base_intersection_generators: List
    swap_coset_generator: Optional[object]
    query_report: Dict[str, int] = field(default_factory=dict)


def rotteler_beth_wreath(
    instance: HSPInstance,
    sampler: Optional[FourierSampler] = None,
) -> RottelerBethResult:
    """Solve the HSP in ``Z_2^k wr Z_2`` with the Rötteler--Beth approach.

    The instance's group must be the semidirect-product wreath group produced
    by :func:`repro.groups.products.wreath_product_z2` (elements are pairs
    ``(vector, swap_bit)``).
    """
    sampler = sampler if sampler is not None else FourierSampler()
    group = instance.group
    base_group = group.group if isinstance(group, BlackBoxGroup) else group
    oracle = instance.oracle

    # Recover the base-group rank from the identity element's shape.
    identity_vector, identity_bit = base_group.identity()
    m = len(identity_vector)

    def embed(vector: Sequence[int], bit: int = 0):
        return (tuple(int(v) % 2 for v in vector), (bit % 2,) + identity_bit[1:] if len(identity_bit) > 1 else (bit % 2,))

    # -- step 1: H ∩ N by a Simon-style run over N = Z_2^m ---------------------
    base_oracle = TupleFunctionOracle(
        [2] * m,
        lambda alpha: oracle(embed(alpha, 0)),
        counter=oracle.counter,
        description="Rötteler-Beth base restriction",
    )
    base_result = solve_abelian_hsp(base_oracle, sampler=sampler)
    base_generators = [embed(alpha, 0) for alpha in base_result.generators]

    # -- step 2: does H meet the swap coset sN? --------------------------------
    swap = embed([0] * m, 1)
    extended_oracle = TupleFunctionOracle(
        [2] * (m + 1),
        lambda alpha: oracle(
            base_group.multiply(embed(alpha[1:], 0), swap if alpha[0] % 2 else base_group.identity())
        ),
        counter=oracle.counter,
        description="Rötteler-Beth swap-coset run",
    )
    extended_result = solve_abelian_hsp(extended_oracle, sampler=sampler)
    swap_generator = None
    for generator in extended_result.generators:
        if generator[0] % 2 == 1:
            u = embed(generator[1:], 0)
            candidate = base_group.multiply(base_group.inverse(u), swap)
            swap_generator = candidate
            break

    generators = list(base_generators)
    if swap_generator is not None:
        generators.append(swap_generator)
    if not generators:
        generators = []
    return RottelerBethResult(
        generators=generators,
        base_intersection_generators=base_generators,
        swap_coset_generator=swap_generator,
        query_report=oracle.counter.snapshot(),
    )
