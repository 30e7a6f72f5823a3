"""The HSP in groups with an elementary Abelian normal 2-subgroup (Theorem 13).

Setting: ``G`` is a black-box group with unique encoding and ``N`` is a
normal elementary Abelian 2-subgroup given by generators (part of the input).
Theorem 13: the HSP in ``G`` is solvable in quantum time polynomial in
``input size + |G/N|``; when ``G/N`` is *cyclic* the running time is fully
polynomial.  The class covers the wreath products ``Z_2^k wr Z_2`` of
Rötteler--Beth and the characteristic-2 affine matrix groups of the paper's
Section 6.

The algorithm (proof of Theorem 13), for a hidden subgroup ``H``:

1. ``H ∩ N`` is found by an Abelian HSP run over ``N`` (Theorem 3); because
   ``N`` is given by ``m`` generators of order two this is a Simon-style
   instance over ``Z_2^m``.
2. A set ``V`` of coset representatives of ``N`` is built such that for every
   subgroup ``M <= G/N`` (in particular ``M = HN/N``) ``V`` contains a
   generating set of ``M``:

   * cyclic ``G/N``: ``V = {x_p^{p^j}}`` for generators ``x_p`` of the Sylow
     subgroups of ``G/N`` (found via the Theorem 10 toolkit) —
     ``|V| = O(log |G/N|)``;
   * general case: ``V`` is a full transversal of ``N`` computed by
     breadth-first search with the membership test of ``N`` — ``|V| = |G/N|``.

3. For every ``z in V \\ N`` the function ``F(i, x) = f(x z^i)`` on
   ``Z_2 x N`` hides either ``{0} x (H ∩ N)`` (when ``zN`` misses ``H``) or
   its extension by ``(1, u)`` with ``u in zH ∩ N``; a Simon-style run
   recovers the generator of type ``(1, u)`` if it exists and yields the
   element ``u^{-1} z`` of ``H``.
4. The collected elements together with ``H ∩ N`` generate ``H``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.oracle import BlackBoxGroup, DenseBlackBoxGroup, HidingOracle, QueryCounter
from repro.core.factor_group import GeneratedQuotient
from repro.groups.base import FiniteGroup, GroupError
from repro.hsp.abelian import solve_abelian_hsp
from repro.obs import span as obs_span
from repro.quantum.sampling import FourierSampler, TupleFunctionOracle

__all__ = ["ElementaryAbelianTwoResult", "solve_hsp_elementary_abelian_two"]

Vector = Tuple[int, ...]


@dataclass
class ElementaryAbelianTwoResult:
    """Outcome of the Theorem 13 solver."""

    generators: List
    intersection_generators: List = field(default_factory=list)
    coset_generators: List = field(default_factory=list)
    representatives_used: int = 0
    cyclic_path: bool = False
    query_report: Dict[str, int] = field(default_factory=dict)


def _validate_normal_subgroup(group: FiniteGroup, normal_generators: Sequence) -> None:
    # Batched like the Theorem 8/11 scans: the squares and the commuting
    # checks are each one bulk product call, which counts exactly the
    # multiplications of the scalar double loop (one per square, two per
    # unordered pair) and is Cayley-engine accelerated when available.  On a
    # *failing* validation the whole batch is counted before the GroupError,
    # where the scalar loop stopped at the first offender — the run aborts
    # either way, so only success-path totals are contractual.
    gens = list(normal_generators)
    if not gens:
        return
    squares = group.multiply_many(gens, gens)
    for square in squares:
        if not group.is_identity(square):
            raise GroupError("Theorem 13 requires every generator of N to have order dividing 2")
    lefts = [a for i, a in enumerate(gens) for _ in gens[i + 1 :]]
    rights = [b for i, _ in enumerate(gens) for b in gens[i + 1 :]]
    if not lefts:
        return
    forward = group.multiply_many(lefts, rights)
    backward = group.multiply_many(rights, lefts)
    for ab, ba in zip(forward, backward):
        if not group.equal(ab, ba):
            raise GroupError("Theorem 13 requires N to be Abelian")


def solve_hsp_elementary_abelian_two(
    group: FiniteGroup,
    oracle: HidingOracle,
    normal_generators: Sequence,
    sampler: Optional[FourierSampler] = None,
    counter: Optional[QueryCounter] = None,
    cyclic_quotient: Optional[bool] = None,
    quotient_bound: int = 1 << 12,
    max_enumeration: int = 1 << 18,
    validate: bool = True,
) -> ElementaryAbelianTwoResult:
    """Solve the HSP hidden by ``oracle`` given the normal 2-subgroup ``N`` (Theorem 13).

    Parameters
    ----------
    normal_generators:
        Generators of the elementary Abelian normal 2-subgroup ``N`` (part of
        the input, as in the paper).
    cyclic_quotient:
        ``True`` to use the fully polynomial cyclic-factor-group path,
        ``False`` to force the general transversal path, ``None`` to detect:
        the cyclic path is attempted when the images of the group generators
        commute modulo ``N``.
    quotient_bound:
        Cap on ``|G/N|`` for the general path (the theorem's running time is
        polynomial in this quantity).

    When ``group`` is a counted :class:`~repro.blackbox.oracle.BlackBoxGroup`
    whose Cayley engine is the one ``oracle`` is keyed on, the domain scans
    of the restriction to ``N`` and of every ``Z_2 x N`` probe run through
    :func:`_bulk_embed_labeller` (uncounted engine products, one batched
    call to ``f``, the scalar loop's multiplication count).  Otherwise each
    point is labelled through the scalar ``embed`` loop; the query report
    is the same on both routes.
    """
    sampler = sampler if sampler is not None else FourierSampler()
    counter = counter if counter is not None else oracle.counter
    normal_generators = [n for n in normal_generators if not group.is_identity(n)]
    if validate:
        _validate_normal_subgroup(group, normal_generators)

    identity_label = oracle(group.identity())
    m = len(normal_generators)

    def embed(alpha: Sequence[int]):
        element = group.identity()
        for generator, bit in zip(normal_generators, alpha):
            if int(bit) % 2:
                element = group.multiply(element, generator)
        return element

    # The domain scans of both oracles below stay in engine ids when the
    # group is a counted black box keyed on the same engine as f.
    dense = None
    if oracle.dense_engine is not None and isinstance(group, BlackBoxGroup):
        dense = group.dense_view()
        if dense is not None and dense.engine is not oracle.dense_engine:
            dense = None

    # -- step 1: H ∩ N (Simon-style run over Z_2^m) ---------------------------------
    with obs_span("elementary_abelian_two.intersection") as intersection_span:
        if m:
            base_oracle = TupleFunctionOracle(
                [2] * m,
                lambda alpha: oracle(embed(alpha)),
                counter=counter,
                description="Theorem 13: restriction of f to N",
                max_enumeration=max_enumeration,
                label_many=None if dense is None else _bulk_embed_labeller(dense, oracle, normal_generators),
            )
            base_result = solve_abelian_hsp(base_oracle, sampler=sampler)
            intersection = [embed(alpha) for alpha in base_result.generators]
            intersection = [x for x in intersection if not group.is_identity(x)]
        else:
            intersection = []
        intersection_span.add("generators", len(intersection))

    # -- step 2: coset representatives V -----------------------------------------------
    with obs_span("elementary_abelian_two.representatives") as representatives_span:
        quotient = GeneratedQuotient(group, normal_generators, counter=counter)
        use_cyclic = cyclic_quotient
        if use_cyclic is None:
            # Detection: the cyclic path is only sound when G/N really is cyclic.
            # Abelianity is checked on generator commutators; cyclicity is then
            # verified by testing that every generator image is a power of the
            # assembled maximal-order element (a scan of at most |G/N| coset
            # identity tests — the promise parameter avoids this cost entirely).
            use_cyclic = quotient.is_abelian() and _quotient_is_cyclic(group, quotient)
        if use_cyclic:
            representatives = quotient.cyclic_prime_power_representatives()
            cyclic_path = True
        else:
            representatives = _transversal(group, quotient, quotient_bound)
            cyclic_path = False
        representatives_span.add("representatives", len(representatives))
        representatives_span.set(cyclic=cyclic_path)

    # -- step 3: probe each representative's coset --------------------------------------
    coset_generators: List = []
    with obs_span("elementary_abelian_two.coset_probes") as probe_span:
        for z in representatives:
            if quotient.in_kernel(z):
                continue
            probe_span.add("probes")
            extended_oracle = TupleFunctionOracle(
                [2] + [2] * m,
                lambda alpha, _z=z: oracle(
                    group.multiply(embed(alpha[1:]), _z) if int(alpha[0]) % 2 else embed(alpha[1:])
                ),
                counter=counter,
                description="Theorem 13: Z_2 x N probe",
                max_enumeration=max_enumeration,
                label_many=None if dense is None else _bulk_embed_labeller(dense, oracle, normal_generators, z),
            )
            probe_result = solve_abelian_hsp(extended_oracle, sampler=sampler)
            for generator in probe_result.generators:
                if int(generator[0]) % 2 == 1:
                    u = embed(generator[1:])
                    candidate = group.multiply(group.inverse(u), z)
                    if oracle(candidate) == identity_label and not group.is_identity(candidate):
                        coset_generators.append(candidate)
                    break

    generators = coset_generators + intersection
    return ElementaryAbelianTwoResult(
        generators=generators,
        intersection_generators=intersection,
        coset_generators=coset_generators,
        representatives_used=len(representatives),
        cyclic_path=cyclic_path,
        query_report=counter.snapshot(),
    )


def _bulk_embed_labeller(
    dense: DenseBlackBoxGroup,
    oracle: HidingOracle,
    normal_generators: Sequence,
    z=None,
) -> Callable[[Sequence[Vector]], List]:
    """Batched twin of the per-point ``f(embed(alpha))`` labeller.

    Without ``z`` a point is ``alpha`` in ``Z_2^m``; with ``z`` it is
    ``(i, alpha)`` in ``Z_2 x Z_2^m`` and labels ``f(embed(alpha) z^i)``.
    The normal generators of each point's set bits are folded left to right
    in index order with uncounted engine products, ``z`` is multiplied on
    the right of the points with odd ``i``, and ``f`` is asked once for the
    whole batch.  The counter is charged one multiplication per set bit and
    one per ``z`` factor, exactly what the scalar ``embed`` loop charges.
    """
    engine = dense.engine
    generator_ids = [int(g) for g in dense.intern_many(list(normal_generators))]
    z_id = None if z is None else dense.intern(z)
    offset = 0 if z is None else 1
    width = offset + len(generator_ids)

    def fold(product: np.ndarray, mask: np.ndarray, element_id: int) -> None:
        if mask.any():
            product[mask] = engine.mul_many(product[mask], np.full(int(mask.sum()), element_id, dtype=np.int64))

    def label_many(points: Sequence[Vector]) -> List:
        bits = np.asarray(points, dtype=np.int64).reshape(len(points), width) % 2 == 1
        product = np.full(len(points), engine.identity_id, dtype=np.int64)
        for j, generator_id in enumerate(generator_ids):
            fold(product, bits[:, offset + j], generator_id)
        if z_id is not None:
            fold(product, bits[:, 0], z_id)
        dense.counter.group_multiplications += int(bits.sum())
        return oracle.evaluate_ids(product)

    return label_many


def _quotient_is_cyclic(group: FiniteGroup, quotient: GeneratedQuotient, scan_limit: int = 1 << 12) -> bool:
    """Whether the Abelian factor group ``G/N`` is cyclic.

    Builds the candidate generator ``w`` (product of maximal prime-power
    parts of the generator images) and checks that every generator image is a
    power of ``wN`` by scanning the at most ``|G/N|`` powers of ``w``.
    """
    gens = [g for g in group.generators() if not quotient.in_kernel(g)]
    if not gens:
        return True
    orders = [quotient.order_modulo(g) for g in gens]
    from repro.linalg.modular import lcm

    candidate_order = 1
    for o in orders:
        candidate_order = lcm(candidate_order, o)
    if candidate_order > scan_limit:
        return False
    representatives = quotient.cyclic_prime_power_representatives(generators=gens)
    if not representatives:
        return True
    w = representatives[0]
    # representatives[0] is the full Sylow generator for the largest prime
    # only; rebuild the maximal-order element explicitly instead.
    w = group.identity()
    from repro.linalg.modular import factorint

    for prime, exponent in sorted(factorint(candidate_order).items()):
        target = prime**exponent
        index = next(i for i, o in enumerate(orders) if o % target == 0)
        w = group.multiply(w, group.power(gens[index], orders[index] // target))
    powers = []
    current = group.identity()
    for _ in range(candidate_order):
        powers.append(current)
        current = group.multiply(current, w)
    for g in gens:
        if not any(quotient.coset_equal(g, p) for p in powers):
            return False
    return True


def _transversal(group: FiniteGroup, quotient: GeneratedQuotient, bound: int) -> List:
    """A full left transversal of ``N`` in ``G`` (general case of Theorem 13).

    Breadth-first search over the generators; a candidate opens a new coset
    iff it is not ``N``-equivalent to any representative found so far.  Cost
    ``O(|G/N|^2)`` membership tests, polynomial in the theorem's ``|G/N|``
    parameter.  Each BFS level computes its frontier-times-generators
    products in one ``multiply_many`` call — the same products, in the same
    (v-major, g-minor) order, as the scalar double loop, so query totals are
    unchanged; the short-circuiting coset-membership scans stay scalar for
    the same reason.
    """
    gens = group.generators()
    representatives: List = [group.identity()]
    frontier = [group.identity()]
    while frontier:
        next_frontier: List = []
        lefts = [v for v in frontier for _ in gens]
        rights = gens * len(frontier)
        candidates = group.multiply_many(lefts, rights)
        for candidate in candidates:
            if not any(quotient.coset_equal(candidate, w) for w in representatives):
                representatives.append(candidate)
                next_frontier.append(candidate)
                if len(representatives) > bound:
                    raise GroupError(f"|G/N| exceeds the bound {bound} supplied to the general path")
        frontier = next_frontier
    return representatives
