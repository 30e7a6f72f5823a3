"""Classical baselines for the hidden subgroup problem.

The paper's motivation is the gap between quantum and classical query
complexity: no classical algorithm is known that solves the HSP in time
polynomial in ``log |G|``; the generic classical approach needs on the order
of ``|G|`` oracle evaluations (or ``sqrt(|G/H|)`` for collision-style
searches).  These baselines realise that cost so the benchmark harness can
plot the crossover against the quantum solvers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.blackbox.oracle import BlackBoxGroup, HidingOracle
from repro.blackbox.instances import HSPInstance
from repro.groups.base import FiniteGroup
from repro.groups.subgroup import generate_subgroup_elements, make_membership_tester

__all__ = [
    "ClassicalHSPResult",
    "classical_exhaustive_hsp",
    "classical_collision_hsp",
    "classical_adaptive_hsp",
]


@dataclass
class ClassicalHSPResult:
    """Outcome and cost of a classical HSP baseline run."""

    generators: List
    oracle_queries: int
    group_operations: int
    method: str
    query_report: Dict[str, int] = field(default_factory=dict)


def classical_exhaustive_hsp(instance: HSPInstance, max_elements: int = 1 << 22) -> ClassicalHSPResult:
    """Solve the HSP by exhaustive search: ``H = {g : f(g) = f(1)}``.

    The whole group is enumerated from its generators, and the oracle is
    evaluated on every element — ``Theta(|G|)`` oracle queries, exponential
    in the encoding length.  This is the contrast baseline of the
    ``strategy-crossover`` sweep.
    """
    group = instance.group
    oracle = instance.oracle
    base_group = group.group if isinstance(group, BlackBoxGroup) else group
    elements = base_group.element_list()
    if len(elements) > max_elements:
        raise ValueError("group is too large for the exhaustive classical baseline")
    identity_label = oracle(base_group.identity())
    members = [g for g in elements if oracle(g) == identity_label]
    return ClassicalHSPResult(
        generators=members,
        oracle_queries=len(elements),
        group_operations=len(elements),
        method="exhaustive",
        query_report=oracle.counter.snapshot(),
    )


def classical_adaptive_hsp(
    instance: HSPInstance, max_elements: int = 1 << 22
) -> ClassicalHSPResult:
    """An *adaptive* classical baseline: a deterministic coset sieve.

    Unlike :func:`classical_collision_hsp` — which peeks at the instance's
    declared hidden generators to know when to stop — this baseline is an
    honest algorithm: it never reads the ground truth and certifies its own
    answer purely from oracle responses.  It walks the group's canonical
    element order, skipping any element already known to lie in a covered
    coset ``rep * <found>`` (that is the adaptivity: earlier answers prune
    later queries).  Each collision ``f(g) = f(rep)`` proves
    ``rep^{-1} g in H`` and enlarges the known subgroup ``<found>``, which
    retroactively widens the covered region.

    The stopping certificate is sound without any promise: ``<found>`` is
    always a subgroup of ``H``, and distinct labels correspond to distinct
    ``H``-cosets, so ``len(reps) <= [G:H] <= [G:<found>]``.  The moment
    ``len(reps) * |<found>| == |G|`` both inequalities are tight and
    ``<found> = H``.  Against a *corrupted* oracle the certificate may
    simply never fire; the sieve then degrades to full enumeration and
    returns its (possibly wrong) candidate for external verification — it
    terminates for every ``epsilon``, including 1.
    """
    group = instance.group
    oracle = instance.oracle
    base_group = group.group if isinstance(group, BlackBoxGroup) else group
    elements = base_group.element_list()
    if len(elements) > max_elements:
        raise ValueError("group is too large for the adaptive classical baseline")
    order = len(elements)

    found: List = []
    subgroup = [base_group.identity()]
    reps: Dict[object, object] = {}
    covered = set()
    queries = 0
    operations = 0

    for g in elements:
        if base_group.encode(g) in covered:
            continue
        label = oracle(g)
        queries += 1
        rep = reps.get(label)
        if rep is None:
            reps[label] = g
            for s in subgroup:
                covered.add(base_group.encode(base_group.multiply(g, s)))
                operations += 1
            if len(reps) * len(subgroup) == order:
                break
            continue
        h = base_group.multiply(base_group.inverse(rep), g)
        operations += 2
        if base_group.is_identity(h):
            continue
        found.append(h)
        subgroup = generate_subgroup_elements(base_group, found)
        operations += len(subgroup)
        covered = set()
        for r in reps.values():
            for s in subgroup:
                covered.add(base_group.encode(base_group.multiply(r, s)))
                operations += 1
        if len(reps) * len(subgroup) == order:
            break

    return ClassicalHSPResult(
        generators=found,
        oracle_queries=queries,
        group_operations=operations,
        method="adaptive",
        query_report=oracle.counter.snapshot(),
    )


def classical_collision_hsp(
    instance: HSPInstance,
    rng: Optional[np.random.Generator] = None,
    max_queries: int = 1 << 20,
) -> ClassicalHSPResult:
    """A birthday-paradox classical baseline.

    Samples random elements until two of them collide under ``f``; each
    collision ``f(a) = f(b)`` yields the element ``a^{-1} b`` of ``H``.  The
    expected number of queries is ``O(sqrt(|G/H|) + |H-generators|)`` — still
    exponential in the encoding length, but quadratically better than the
    exhaustive baseline; included so the benchmark shows both classical
    curves.
    """
    rng = rng if rng is not None else np.random.default_rng()
    group = instance.group
    oracle = instance.oracle
    base_group = group.group if isinstance(group, BlackBoxGroup) else group
    seen: Dict[object, object] = {}
    found: List = []
    queries = 0
    operations = 0
    identity_label = oracle(base_group.identity())
    queries += 1
    truth = instance.hidden_generators
    truth_member = make_membership_tester(base_group, truth) if truth is not None else None
    while queries < max_queries:
        g = base_group.random_element(rng)
        label = oracle(g)
        queries += 1
        if label in seen:
            h = base_group.multiply(base_group.inverse(seen[label]), g)
            operations += 2
            if not base_group.is_identity(h):
                found.append(h)
        elif label == identity_label and not base_group.is_identity(g):
            found.append(g)
        else:
            seen[label] = g
        if truth_member is not None and found:
            candidate_member = make_membership_tester(base_group, found)
            if all(candidate_member(t) for t in truth):
                break
    return ClassicalHSPResult(
        generators=found,
        oracle_queries=queries,
        group_operations=operations,
        method="collision",
        query_report=oracle.counter.snapshot(),
    )
