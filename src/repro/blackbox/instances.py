"""Hidden subgroup problem instances.

An :class:`HSPInstance` bundles a (counted) black-box group, a hiding oracle,
and — strictly for verification and reporting — the ground-truth hidden
subgroup it was built from.  Solvers receive the group and the oracle;
the experiment harness uses the ground truth to check the answer and the
structural promises (e.g. "this normal subgroup is elementary Abelian of
index 2") that the paper's theorems require as part of the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.blackbox.oracle import BlackBoxGroup, HidingOracle, QueryCounter
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.base import FiniteGroup
from repro.groups.engine import maybe_engine
from repro.groups.subgroup import (
    generate_subgroup_elements,
    make_membership_tester,
    coset_representative_map,
)
# ``coset_representative`` is kept bound here: perfbench's alias test
# (perfbench/tests/test_perfbench_trace.py) pins it as this module's name.
from repro.linalg.zmodule import CosetReducer, coset_representative  # noqa: F401

__all__ = [
    "HSPInstance",
    "subgroup_coset_label",
    "hiding_oracle_from_subgroup",
    "random_abelian_hsp_instance",
]


def subgroup_coset_label(group: FiniteGroup, subgroup_generators: Sequence) -> Callable[[Any], Any]:
    """A left-coset labelling function for the subgroup generated by ``subgroup_generators``.

    For Abelian tuple groups the label is the canonical lattice representative,
    reduced against one Hermite normal form computed when the labeller is
    built (polynomial time per query, no Hermite form per query).  For other
    groups with a usable Cayley engine the label is the minimum interned id
    over the coset ``x H``: a fully enumerated engine (table or kernel mode)
    computes that minimum for every element at once on the first query,
    ``k |G|`` products for ``k`` generators of ``H``, and then answers each
    query by a table lookup; a sparse engine takes one batched row of
    ``|H|`` memoized products per uncached query.  The engine-less fallback
    is the minimum encoding over the enumerated subgroup.  Either way this
    is instance-construction cost, not solver cost: the hiding oracle counts
    its queries, not the simulation's group operations.
    """
    label, _engine, _label_ids = _coset_label_parts(group, subgroup_generators)
    return label


#: Chunk bound for vectorized coset labelling: one products block is at most
#: this many id entries, so label batches never materialise huge matrices.
_LABEL_BLOCK_ENTRIES = 1 << 20


def _whole_group_coset_labels(engine, generator_ids: np.ndarray) -> np.ndarray:
    """The minimum id of ``x H`` for every id ``x`` of a fully enumerated engine.

    The left cosets of ``H = <h_1, ..., h_k>`` are the components of the
    graph with edges ``x -> x h_j``.  Each generator's edges form a
    permutation ``P`` of the ids, and pointer doubling
    (``L = min(L, L[P]); P = P[P]``) spreads the running minimum ``L`` over
    every cycle of ``P`` in ``O(log ord h_j)`` rounds; a round that changes
    nothing means ``L`` is already constant on those cycles.  Passes over
    the generators repeat until one changes nothing, which makes ``L``
    constant on components, i.e. the coset minimum, for any ``H``.
    """
    everything = np.arange(engine.interned_count, dtype=np.int64)
    steps = [
        engine.mul_many(everything, np.full(everything.size, h, dtype=np.int64))
        for h in np.unique(generator_ids).tolist()
        if h != engine.identity_id
    ]
    labels = everything
    changed = True
    while changed:
        changed = False
        for pointer in steps:
            while True:
                merged = np.minimum(labels, labels[pointer])
                if np.array_equal(merged, labels):
                    break
                labels = merged
                changed = True
                pointer = pointer[pointer]
    return labels


def _coset_label_parts(group: FiniteGroup, subgroup_generators: Sequence):
    """``(label, engine, label_ids)`` for a subgroup's coset labelling.

    ``engine``/``label_ids`` are ``None`` unless the engine-backed min-id
    labelling is in effect; when present, ``label_ids`` is the vectorized
    twin of ``label`` (same values, computed a block of ids at a time) used
    for :meth:`~repro.blackbox.oracle.HidingOracle.evaluate_ids`.
    """
    if isinstance(group, AbelianTupleGroup):
        # One Hermite form per subgroup, shared by every oracle built from
        # this labeller (including fresh counted views of the same instance).
        return CosetReducer([list(g) for g in subgroup_generators], group.moduli), None, None
    engine = maybe_engine(group)
    if engine is not None and engine.mode == "kernel":
        generator_ids = engine.intern_many(list(subgroup_generators))
        # Computed on the first query and shared by every oracle built from
        # this closure (including fresh counted views of the same instance).
        table: Optional[np.ndarray] = None

        def labels() -> np.ndarray:
            nonlocal table
            if table is None:
                table = _whole_group_coset_labels(engine, generator_ids)
            return table

        def label(x):
            return int(labels()[engine.intern(x)])

        def label_ids(ids):
            return labels()[ids].tolist()

        return label, engine, label_ids
    if engine is not None:
        subgroup_ids = engine.subgroup_ids(engine.intern_many(subgroup_generators))
        # Label values are memoized on the instance side: oracles built from
        # this closure (including fresh counted views of the same instance)
        # still count every one of *their* uncached queries, but the
        # simulation computes each coset minimum only once.
        memo: Dict[Any, int] = {}

        def label(x):
            found = memo.get(x)
            if found is None:
                found = engine.coset_label(engine.intern(x), subgroup_ids)
                memo[x] = found
            return found

        def label_ids(ids):
            # Same min-id values as `label`, one chunked products block at a
            # time; plain ints so label objects are identical either way.
            block = max(1, _LABEL_BLOCK_ENTRIES // max(1, int(subgroup_ids.size)))
            values: List[int] = []
            for start in range(0, len(ids), block):
                chunk = ids[start : start + block]
                values.extend(int(v) for v in engine.coset_label_many(chunk, subgroup_ids))
            return values

        return label, engine, label_ids
    subgroup_elements = generate_subgroup_elements(group, subgroup_generators)
    return coset_representative_map(group, subgroup_elements), None, None


def hiding_oracle_from_subgroup(
    group: FiniteGroup,
    subgroup_generators: Sequence,
    counter: Optional[QueryCounter] = None,
    description: Optional[str] = None,
) -> HidingOracle:
    """Build the hiding oracle ``f`` for a known subgroup ``H`` of ``group``.

    When the engine-backed labelling is in effect the oracle comes back
    *dense-attached*: its cache is keyed by engine ids and
    :meth:`~repro.blackbox.oracle.HidingOracle.evaluate_ids` resolves whole
    id blocks through the vectorized labeller.  Query accounting is
    loop-equivalent either way.
    """
    label, engine, label_ids = _coset_label_parts(group, subgroup_generators)
    oracle = HidingOracle(
        label,
        counter=counter,
        hidden_subgroup_generators=list(subgroup_generators),
        description=description or f"coset label of H <= {group.name}",
    )
    if engine is not None:
        oracle.attach_dense(engine, label_ids)
    return oracle


@dataclass
class HSPInstance:
    """A hidden subgroup problem instance.

    Attributes
    ----------
    group:
        The ambient group, wrapped as a counted black-box group.
    oracle:
        The hiding function ``f`` (counted).
    hidden_generators:
        Ground-truth generators of ``H`` — used only by :meth:`verify` and by
        the analytic sampling backend as the instance's declared coset
        structure; solver code never touches it.
    promises:
        Structural side information that the paper's theorems take as part of
        the input (e.g. ``normal_generators`` for Theorem 13, ``commutator_bound``
        for Theorem 11).
    """

    group: BlackBoxGroup
    oracle: HidingOracle
    hidden_generators: Optional[List] = None
    promises: Dict[str, Any] = field(default_factory=dict)
    name: str = "hsp-instance"

    # -- construction ---------------------------------------------------------
    @classmethod
    def from_subgroup(
        cls,
        group: FiniteGroup,
        subgroup_generators: Sequence,
        promises: Optional[Dict[str, Any]] = None,
        name: Optional[str] = None,
    ) -> "HSPInstance":
        """Wrap a concrete group and known subgroup into a solver-facing instance."""
        counter = QueryCounter()
        black_box = group if isinstance(group, BlackBoxGroup) else BlackBoxGroup(group, counter)
        oracle = hiding_oracle_from_subgroup(black_box.group, subgroup_generators, counter=counter)
        return cls(
            group=black_box,
            oracle=oracle,
            hidden_generators=list(subgroup_generators),
            promises=dict(promises or {}),
            name=name or f"HSP in {group.name}",
        )

    # -- verification -------------------------------------------------------------
    def verify(self, candidate_generators: Sequence) -> bool:
        """Whether ``candidate_generators`` generate exactly the hidden subgroup.

        Uses the *uncounted* concrete group so that verification does not
        distort the reported query statistics.
        """
        if self.hidden_generators is None:
            raise ValueError("instance has no ground truth to verify against")
        base_group = self.group.group if isinstance(self.group, BlackBoxGroup) else self.group
        truth_member = make_membership_tester(base_group, self.hidden_generators)
        candidate_member = make_membership_tester(base_group, list(candidate_generators))
        return all(truth_member(g) for g in candidate_generators) and all(
            candidate_member(g) for g in self.hidden_generators
        )

    @property
    def counter(self) -> QueryCounter:
        return self.oracle.counter

    def query_report(self) -> Dict[str, int]:
        """Combined query statistics of the oracle and group black box."""
        report = dict(self.oracle.counter.snapshot())
        if isinstance(self.group, BlackBoxGroup) and self.group.counter is not self.oracle.counter:
            for key, value in self.group.counter.snapshot().items():
                report[key] = report.get(key, 0) + value
        return report


def random_abelian_hsp_instance(
    moduli: Sequence[int],
    rng: np.random.Generator,
    max_generators: int = 2,
) -> HSPInstance:
    """A random hidden subgroup instance in ``Z_{n1} x ... x Z_{nk}``.

    The hidden subgroup is generated by ``max_generators`` uniform random
    elements; the hiding oracle labels cosets by their canonical lattice
    representative, so one query costs polynomially many word operations and
    the instance scales to groups far beyond enumeration size.
    """
    group = AbelianTupleGroup(moduli)
    generators = [group.module.random_element(rng) for _ in range(max_generators)]
    return HSPInstance.from_subgroup(group, generators, name=f"random HSP in {group.name}")
