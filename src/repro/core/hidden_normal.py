"""Finding hidden normal subgroups (Theorem 8).

Setting: ``G`` is a black-box group (not necessarily uniquely encoded), ``N``
is a *normal* subgroup of ``G`` hidden by the function ``f``.  Theorem 8
states that generators for ``N`` can be found in quantum time polynomial in
``input size + nu(G/N)`` — in particular for solvable groups and permutation
groups — without any non-Abelian Fourier transform.

The paper's method: compute a presentation of ``G/N`` with the Theorem 7
toolkit, substitute the original generators into the relators (obtaining
elements of ``N``), add the correction terms ``S_0`` when the presentation
generators only generate ``G`` modulo ``N``, and take the normal closure.

This reproduction implements the method in the two regimes exercised by the
experiment suite (see DESIGN.md for the scope discussion):

* **Abelian factor group** — the presentation is the Abelian presentation of
  Theorem 7 (orders of generators modulo ``N`` + the kernel of the exponent
  map + commutator relators); this is the path Theorem 11 relies on and it
  requires no bound on ``|G/N|``.
* **Bounded factor group** — when ``G/N`` is non-Abelian but its order is
  promised to be polynomially bounded, the coset transversal of ``N`` is
  constructed with ``f`` as the coset identity test and ``N`` is generated by
  the Schreier generators of the resulting coset table.  This realises the
  same presentation-and-relators structure with a brute-force presentation of
  the small factor group; the fully general Beals--Babai presentation
  machinery for unbounded non-Abelian factor groups is out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.blackbox.oracle import HidingOracle, QueryCounter, shared_dense_view
from repro.core.factor_group import HiddenQuotient
from repro.groups.base import FiniteGroup, GroupError
from repro.groups.subgroup import normal_closure
from repro.obs import span as obs_span
from repro.quantum.sampling import FourierSampler

__all__ = ["HiddenNormalResult", "find_hidden_normal_subgroup"]


@dataclass
class HiddenNormalResult:
    """Outcome of a hidden-normal-subgroup computation."""

    generators: List
    method: str
    quotient_order: Optional[int] = None
    relator_count: int = 0
    query_report: Dict[str, int] = field(default_factory=dict)


def find_hidden_normal_subgroup(
    group: FiniteGroup,
    oracle: HidingOracle,
    sampler: Optional[FourierSampler] = None,
    counter: Optional[QueryCounter] = None,
    quotient_bound: Optional[int] = None,
    max_enumeration: int = 1 << 18,
    confidence: Optional[int] = None,
) -> HiddenNormalResult:
    """Find generators of the normal subgroup hidden by ``oracle`` (Theorem 8).

    Parameters
    ----------
    group:
        The ambient black-box group.
    oracle:
        The hiding function ``f``; the hidden subgroup must be normal.
    quotient_bound:
        Optional promise that ``|G/N|`` does not exceed this bound; enables
        the transversal/Schreier path when ``G/N`` is not Abelian.
    confidence:
        Stopping-rule override for the Abelian-presentation Fourier sampling
        (Theorem 7): the number of consecutive non-enlarging samples required
        before the dual subgroup is accepted.  ``None`` keeps the default;
        small values trade success probability for sampling rounds.
    """
    sampler = sampler if sampler is not None else FourierSampler()
    counter = counter if counter is not None else oracle.counter
    quotient = HiddenQuotient(group, oracle, counter=counter)

    if quotient.is_abelian():
        return _abelian_quotient_path(
            group, oracle, quotient, sampler, counter, max_enumeration, confidence=confidence
        )
    if quotient_bound is not None:
        return _bounded_quotient_path(group, oracle, quotient, counter, quotient_bound)
    raise GroupError(
        "find_hidden_normal_subgroup: the factor group is non-Abelian and no quotient_bound "
        "promise was supplied; the general Beals-Babai presentation machinery is outside the "
        "scope of this reproduction (see DESIGN.md)"
    )


# ---------------------------------------------------------------------------
# Abelian factor group: presentation -> relators -> normal closure
# ---------------------------------------------------------------------------


def _abelian_quotient_path(
    group: FiniteGroup,
    oracle: HidingOracle,
    quotient: HiddenQuotient,
    sampler: FourierSampler,
    counter: QueryCounter,
    max_enumeration: int,
    confidence: Optional[int] = None,
) -> HiddenNormalResult:
    with obs_span("hidden_normal.presentation") as presentation_span:
        presentation = quotient.abelian_presentation(
            sampler=sampler, max_enumeration=max_enumeration, confidence=confidence
        )
        relators = presentation.relator_elements(group)
        # Generators of G that are already in N do not appear in the presentation
        # but are themselves elements of N; include them as relators (this is the
        # S_0 correction of Theorem 8 specialised to the Abelian case, where every
        # original generator is either a presentation generator or lies in N).
        for g in group.generators():
            if quotient.in_kernel(g) and not group.is_identity(g):
                relators.append(g)
        relators = [r for r in relators if not group.is_identity(r)]
        presentation_span.add("relators", len(relators))
    with obs_span("hidden_normal.normal_closure") as closure_span:
        generators = normal_closure(group, relators) if relators else []
        closure_span.add("generators", len(generators))
    return HiddenNormalResult(
        generators=generators,
        method="abelian-quotient",
        quotient_order=presentation.quotient_order(),
        relator_count=len(relators),
        query_report=counter.snapshot(),
    )


# ---------------------------------------------------------------------------
# Bounded factor group: coset table -> Schreier generators
# ---------------------------------------------------------------------------


def _bounded_quotient_path(
    group: FiniteGroup,
    oracle: HidingOracle,
    quotient: HiddenQuotient,
    counter: QueryCounter,
    quotient_bound: int,
) -> HiddenNormalResult:
    """Transversal + Schreier generators; cost polynomial in ``|G/N|``.

    A breadth-first search over the generators of ``G`` builds a left
    transversal of ``N`` using ``f`` as the coset identity test (two elements
    represent the same coset iff their ``f``-values agree).  By Schreier's
    lemma the elements ``v g (rep(v g))^{-1}`` generate ``N``.

    When the oracle is dense-attached to the same Cayley engine as the
    counted group, the whole search stays in int64 id arrays (the element
    conversion happens once, at the Schreier-generator boundary); counting
    is loop-equivalent, so the query report is route-independent.
    """
    dense = shared_dense_view(group, oracle)
    if dense is not None:
        return _bounded_quotient_path_ids(group, oracle, dense, counter, quotient_bound)
    gens = group.generators()
    identity = group.identity()
    representatives: List = [identity]
    labels: Dict[object, int] = {oracle(identity): 0}
    frontier = [identity]
    # Each BFS level is one batch: the frontier-times-generators products and
    # their oracle labels are computed through the bulk APIs (identical query
    # totals to the scalar loop, amortised Python dispatch, Cayley-engine
    # acceleration when one is installed on the group).
    with obs_span("hidden_normal.transversal") as transversal_span:
        while frontier:
            next_frontier: List = []
            lefts = [v for v in frontier for _ in gens]
            rights = gens * len(frontier)
            candidates = group.multiply_many(lefts, rights)
            candidate_labels = oracle.evaluate_many(candidates)
            for candidate, label in zip(candidates, candidate_labels):
                if label not in labels:
                    labels[label] = len(representatives)
                    representatives.append(candidate)
                    next_frontier.append(candidate)
                    if len(representatives) > quotient_bound:
                        raise GroupError(
                            f"factor group exceeds the promised bound {quotient_bound}"
                        )
            frontier = next_frontier
        transversal_span.add("cosets", len(representatives))

    with obs_span("hidden_normal.schreier") as schreier_span:
        lefts = [v for v in representatives for _ in gens]
        rights = gens * len(representatives)
        products = group.multiply_many(lefts, rights)
        chosen = [
            representatives[labels[label]] for label in oracle.evaluate_many(products)
        ]
        elements = group.multiply_many(products, group.inverse_many(chosen))
        schreier_generators: List = [e for e in elements if not group.is_identity(e)]
        schreier_span.add("generators", len(schreier_generators))
    return HiddenNormalResult(
        generators=schreier_generators,
        method="bounded-quotient-schreier",
        quotient_order=len(representatives),
        relator_count=len(schreier_generators),
        query_report=counter.snapshot(),
    )


def _bounded_quotient_path_ids(
    group: FiniteGroup,
    oracle: HidingOracle,
    dense,
    counter: QueryCounter,
    quotient_bound: int,
) -> HiddenNormalResult:
    """The id-native twin of :func:`_bounded_quotient_path`.

    Same BFS/Schreier structure, same candidate order (``repeat`` over the
    frontier, ``tile`` over the generators — exactly the scalar list
    comprehensions), same counted operations per step; only the currency
    changes from elements to engine ids.
    """
    gen_ids = dense.intern_many(group.generators())
    rep_ids: List[int] = [dense.identity_id]
    labels: Dict[object, int] = {oracle.evaluate_ids([dense.identity_id]).item(0): 0}
    frontier = np.asarray([dense.identity_id], dtype=np.int64)
    with obs_span("hidden_normal.transversal") as transversal_span:
        while frontier.size:
            candidates = dense.multiply_ids(
                np.repeat(frontier, gen_ids.size), np.tile(gen_ids, frontier.size)
            )
            candidate_labels = oracle.evaluate_ids(candidates)
            next_ids: List[int] = []
            for candidate, label in zip(candidates.tolist(), candidate_labels.tolist()):
                if label not in labels:
                    labels[label] = len(rep_ids)
                    rep_ids.append(candidate)
                    next_ids.append(candidate)
                    if len(rep_ids) > quotient_bound:
                        raise GroupError(
                            f"factor group exceeds the promised bound {quotient_bound}"
                        )
            frontier = np.asarray(next_ids, dtype=np.int64)
        transversal_span.add("cosets", len(rep_ids))

    with obs_span("hidden_normal.schreier") as schreier_span:
        rep_arr = np.asarray(rep_ids, dtype=np.int64)
        products = dense.multiply_ids(
            np.repeat(rep_arr, gen_ids.size), np.tile(gen_ids, rep_arr.size)
        )
        chosen = rep_arr[
            np.asarray([labels[label] for label in oracle.evaluate_ids(products).tolist()], dtype=np.int64)
        ]
        element_ids = dense.multiply_ids(products, dense.inverse_ids(chosen))
        keep = ~dense.is_identity_ids(element_ids)
        schreier_generators = dense.elements_of(element_ids[keep])
        schreier_span.add("generators", len(schreier_generators))
    return HiddenNormalResult(
        generators=schreier_generators,
        method="bounded-quotient-schreier",
        quotient_order=len(rep_ids),
        relator_count=len(schreier_generators),
        query_report=counter.snapshot(),
    )
