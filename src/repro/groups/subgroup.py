"""Subgroup machinery: closure, membership, normal closure, transversals.

These classical routines are the glue of the paper's algorithms:

* the *normal closure* algorithm (reference [1] of the paper, Babai et al.)
  turns the relator values produced by Theorem 8 into generators of the
  hidden normal subgroup;
* commutator subgroups (normal closures of generator commutators) define the
  scope of Theorem 11;
* left transversals provide the coset representatives ``V`` used in the
  general case of Theorem 13.

Membership testing adapts to the structure of the subgroup's ambient group:
permutation groups use a Schreier--Sims chain, Abelian tuple groups use exact
lattice arithmetic, and generic black-box style groups fall back to
enumeration (only ever used on small subgroups in tests and instance
builders).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.groups.abelian import AbelianTupleGroup
from repro.groups.base import FiniteGroup, GroupError
from repro.groups.perm import PermutationGroup, SchreierSims
from repro.linalg.zmodule import member_coefficients

__all__ = [
    "SubgroupView",
    "generate_subgroup_elements",
    "subgroup_order",
    "make_membership_tester",
    "is_subgroup_member",
    "normal_closure",
    "commutator_subgroup_generators",
    "derived_subgroup_elements",
    "is_normal_subgroup",
    "center_elements",
    "left_transversal",
    "coset_representative_map",
]


class SubgroupView(FiniteGroup):
    """A subgroup of an ambient group, viewed as a group in its own right.

    Operations delegate to the ambient group; only the generating set
    changes.  This is how derived series and the Beals--Babai recursion treat
    subgroups without re-encoding elements.
    """

    def __init__(self, parent: FiniteGroup, generators: Sequence, name: Optional[str] = None):
        self.parent = parent
        self._generators = list(generators)
        self.name = name or f"<{len(self._generators)} gens> <= {parent.name}"

    def identity(self):
        return self.parent.identity()

    def multiply(self, a, b):
        return self.parent.multiply(a, b)

    def inverse(self, a):
        return self.parent.inverse(a)

    def generators(self) -> List:
        return list(self._generators)

    def encode(self, a) -> bytes:
        return self.parent.encode(a)

    def equal(self, a, b) -> bool:
        return self.parent.equal(a, b)

    def exponent_bound(self) -> Optional[int]:
        return self.parent.exponent_bound()


def generate_subgroup_elements(group: FiniteGroup, generators: Sequence, limit: Optional[int] = None) -> List:
    """All elements of the subgroup generated by ``generators`` (BFS closure).

    ``limit`` aborts the enumeration once more than ``limit`` elements have
    been found (used to guard against accidentally enumerating a huge group).
    """
    gens = [g for g in generators if not group.is_identity(g)]
    gens = gens + [group.inverse(g) for g in gens]
    seen: Dict = {group.identity(): None}
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = group.multiply(x, g)
                if y not in seen:
                    seen[y] = None
                    nxt.append(y)
                    if limit is not None and len(seen) > limit:
                        raise GroupError(f"subgroup enumeration exceeded limit {limit}")
        frontier = nxt
    return list(seen)


def subgroup_order(group: FiniteGroup, generators: Sequence) -> int:
    """Order of the generated subgroup, using structure where available."""
    if isinstance(group, PermutationGroup):
        gens = [g for g in generators if not group.is_identity(g)]
        if not gens:
            return 1
        return SchreierSims(gens, group.degree).order()
    if isinstance(group, AbelianTupleGroup):
        return group.subgroup_order(list(generators))
    return len(generate_subgroup_elements(group, generators))


def _id_mask(ids: np.ndarray, size: int) -> np.ndarray:
    """A boolean mask of length ``size`` that is True exactly at ``ids``."""
    mask = np.zeros(size, dtype=bool)
    mask[ids] = True
    return mask


def _mask_tester(mask: np.ndarray, intern: Callable[[object], int]) -> Callable[[object], bool]:
    """Membership through a mask over every engine id."""

    def contains(x) -> bool:
        return bool(mask[intern(x)])

    return contains


def make_membership_tester(group: FiniteGroup, generators: Sequence) -> Callable[[object], bool]:
    """A membership test for the subgroup generated by ``generators``.

    The returned callable decides membership of arbitrary group elements.
    Structure-aware fast paths, tried in this order:

    * permutation groups: sifting through a Schreier--Sims chain,
    * Abelian tuple groups: exact integer-lattice membership,
    * groups carrying a Cayley engine: one vectorised id closure, then a
      boolean mask over engine ids,
    * counted black-box groups with a ``dense_view``: the same mask, built
      from the counted :meth:`~repro.blackbox.oracle.DenseBlackBoxGroup.closure_ids`,
    * anything else: enumeration of the subgroup (small subgroups only).
    """
    gens = [g for g in generators if not group.is_identity(g)]
    if isinstance(group, PermutationGroup):
        if not gens:
            identity = group.identity()
            return lambda x: x == identity
        chain = SchreierSims(gens, group.degree)
        return chain.contains
    if isinstance(group, AbelianTupleGroup):
        moduli = group.moduli
        gen_rows = [list(g) for g in gens]
        return lambda x: member_coefficients(gen_rows, list(x), moduli) is not None
    engine = getattr(group, "_cayley_engine", None)
    if engine is not None:
        # Installed Cayley engine: one vectorised subgroup closure over ids,
        # then O(1) mask membership per test.  Only engaged on groups that
        # carry an engine themselves — counted black-box wrappers keep the
        # counted path so their query accounting is undisturbed.
        member_ids = engine.subgroup_ids(engine.intern_many(gens))
        return _mask_tester(_id_mask(member_ids, engine.interned_count), engine.intern)
    dense_factory = getattr(group, "dense_view", None)
    dense = dense_factory() if dense_factory is not None else None
    if dense is not None:
        # Counted black-box group with a dense facade: ``closure_ids``
        # charges exactly what the scalar enumeration would (one identity
        # test and one inverse per generator, one multiplication per
        # member-generator pair) and computes the member set through the
        # engine's vectorised closure.
        member_ids = dense.closure_ids(dense.intern_many(gens))
        return _mask_tester(_id_mask(member_ids, dense.engine.interned_count), dense.intern)
    elements = set(generate_subgroup_elements(group, gens))
    return lambda x: x in elements


def is_subgroup_member(group: FiniteGroup, generators: Sequence, element) -> bool:
    """One-off membership test (builds the tester and discards it)."""
    return make_membership_tester(group, generators)(element)


def normal_closure(
    group: FiniteGroup,
    generators: Sequence,
    ambient_generators: Optional[Sequence] = None,
    max_generators: int = 10_000,
) -> List:
    """Generators of the normal closure of ``<generators>`` in ``group``.

    Deterministic conjugation closure: repeatedly conjugate the current
    generating set by the ambient generators and keep every conjugate that is
    not yet a member.  Membership uses :func:`make_membership_tester`, so for
    permutation and Abelian ambient groups the whole procedure is polynomial;
    this mirrors the Monte Carlo normal closure algorithm of Babai et al.
    (reference [1] of the paper) in a deterministic form adequate for the
    instance sizes of the experiment suite.
    """
    ambient = list(ambient_generators) if ambient_generators is not None else group.generators()
    ambient = ambient + [group.inverse(g) for g in ambient]
    closure: List = [g for g in generators if not group.is_identity(g)]
    if not closure:
        return []
    engine = getattr(group, "_cayley_engine", None)
    if engine is not None:
        return _normal_closure_engine(group, engine, closure, ambient, max_generators)
    tester = make_membership_tester(group, closure)
    frontier = list(closure)
    while frontier:
        new_elements: List = []
        for h in frontier:
            for g in ambient:
                conjugate = group.multiply(group.multiply(g, h), group.inverse(g))
                if not tester(conjugate):
                    closure.append(conjugate)
                    if len(closure) > max_generators:
                        raise GroupError("normal closure generator count exceeded limit")
                    tester = make_membership_tester(group, closure)
                    new_elements.append(conjugate)
        frontier = new_elements
    return closure


def _normal_closure_engine(group, engine, closure, ambient, max_generators: int) -> List:
    """Engine-backed conjugation closure (same semantics as the scalar loop).

    Membership is tested against the subgroup generated by the *current*
    closure list, exactly as the scalar path does by rebuilding its tester
    after every addition; here the subgroup recomputation is one vectorised
    id-closure per added generator and membership is a boolean id mask.
    Members only accumulate, so a conjugate already inside when its batch
    is formed is skipped without a re-test.
    """
    ambient_ids = engine.intern_many(ambient)
    closure_ids = [int(i) for i in engine.intern_many(closure)]
    member_arr = engine.subgroup_ids(np.asarray(closure_ids, dtype=np.int64))
    member = _id_mask(member_arr, engine.interned_count)
    frontier = list(closure_ids)
    while frontier:
        new_ids: List[int] = []
        frontier_arr = np.asarray(frontier, dtype=np.int64)
        conjugates = engine.conj_many(
            np.tile(ambient_ids, frontier_arr.size), np.repeat(frontier_arr, ambient_ids.size)
        )
        for conjugate in conjugates[~member[conjugates]].tolist():
            if member[conjugate]:
                continue
            closure_ids.append(conjugate)
            if len(closure_ids) > max_generators:
                raise GroupError("normal closure generator count exceeded limit")
            # Incremental re-closure: seeding with the current members
            # makes the orbit converge in O(1) vectorised levels instead
            # of re-walking the subgroup from the identity.
            member_arr = engine.subgroup_ids(np.append(member_arr, conjugate), memoize=False)
            member[member_arr] = True
            new_ids.append(conjugate)
        frontier = new_ids
    return engine.elements_of(closure_ids)


def commutator_subgroup_generators(group: FiniteGroup, generators: Optional[Sequence] = None) -> List:
    """Generators of the commutator subgroup ``G'``.

    ``G'`` is the normal closure of the commutators of the generators
    (Section 5 of the paper uses exactly this to enumerate ``G'`` when it is
    small).
    """
    gens = list(generators) if generators is not None else group.generators()
    commutators = []
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            c = group.commutator(a, b)
            if not group.is_identity(c):
                commutators.append(c)
    if not commutators:
        return []
    return normal_closure(group, commutators, ambient_generators=gens)


def derived_subgroup_elements(group: FiniteGroup, limit: Optional[int] = None) -> List:
    """All elements of ``G'`` (enumerated); poly in ``input size + |G'|``."""
    gens = commutator_subgroup_generators(group)
    if not gens:
        return [group.identity()]
    return generate_subgroup_elements(group, gens, limit=limit)


def is_normal_subgroup(group: FiniteGroup, generators: Sequence, ambient_generators: Optional[Sequence] = None) -> bool:
    """Whether the generated subgroup is normal in ``group``."""
    ambient = list(ambient_generators) if ambient_generators is not None else group.generators()
    tester = make_membership_tester(group, generators)
    for h in generators:
        for g in ambient:
            if not tester(group.conjugate(g, h)):
                return False
            if not tester(group.conjugate(group.inverse(g), h)):
                return False
    return True


def center_elements(group: FiniteGroup) -> List:
    """The center of a *small* group, by enumeration against the generators."""
    gens = group.generators()
    out = []
    for x in group.element_list():
        if all(group.equal(group.multiply(x, g), group.multiply(g, x)) for g in gens):
            out.append(x)
    return out


def left_transversal(
    group: FiniteGroup,
    subgroup_generators: Sequence,
    max_index: Optional[int] = None,
) -> List:
    """Representatives of the left cosets ``gH`` of the generated subgroup.

    Breadth-first search over the ambient generators; two elements represent
    the same coset iff ``x^{-1} y`` is a member of the subgroup.  This is the
    "standard method" the proof of Theorem 13 uses to construct the set ``V``
    of coset representatives of ``G/N`` in the general (small factor) case.
    """
    member = make_membership_tester(group, subgroup_generators)
    ambient = group.generators()
    ambient = ambient + [group.inverse(g) for g in ambient]
    representatives: List = [group.identity()]
    frontier = [group.identity()]
    while frontier:
        nxt = []
        for v in frontier:
            for g in ambient:
                candidate = group.multiply(v, g)
                if not any(member(group.multiply(group.inverse(w), candidate)) for w in representatives):
                    representatives.append(candidate)
                    nxt.append(candidate)
                    if max_index is not None and len(representatives) > max_index:
                        raise GroupError(f"coset transversal exceeded limit {max_index}")
        frontier = nxt
    return representatives


def coset_representative_map(group: FiniteGroup, subgroup_elements: Iterable) -> Callable[[object], bytes]:
    """A canonical labelling of left cosets ``g <subgroup>``.

    Returns a function mapping ``g`` to the lexicographically smallest
    encoding among ``{g h : h in subgroup}``.  This is the generic way test
    instances construct a hiding function from a known subgroup: the label is
    constant exactly on left cosets.
    """
    subgroup = list(subgroup_elements)

    def label(g) -> bytes:
        return min(group.encode(group.multiply(g, h)) for h in subgroup)

    return label
