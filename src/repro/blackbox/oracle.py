"""Oracle wrappers with query accounting.

Complexity statements in the paper are phrased in terms of oracle uses:
multiplications performed by the group oracle ``U_G`` and evaluations of the
hiding function ``f``.  Wrapping both behind counting proxies makes the
benchmark harness report query counts that are independent of how the
underlying simulation chooses to realise the quantum subroutines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.groups.base import FiniteGroup
from repro.linalg.modular import order_trial_exponents

__all__ = ["QueryCounter", "BlackBoxGroup", "DenseBlackBoxGroup", "HidingOracle", "shared_dense_view"]


@dataclass
class QueryCounter:
    """Mutable counters for oracle usage.

    Field semantics (the accounting contract of the whole benchmark suite):

    ``classical_queries``
        Ordinary (non-superposition) evaluations of a hiding function ``f``.
        Cached re-evaluations are free: only the *first* evaluation of each
        element counts, and the batch API
        (:meth:`HidingOracle.evaluate_many`) counts exactly the uncached
        elements, so a batch reports the same total as the equivalent scalar
        loop.
    ``quantum_queries``
        Superposition queries: one per Fourier-sampling round, regardless of
        how expensive the round is to simulate classically and of which
        sampling backend ran it.  A batched request for ``k`` rounds counts
        ``k``.
    ``group_multiplications``
        Uses of the group-multiplication oracle ``U_G``.  Batch products of
        ``k`` pairs (:meth:`BlackBoxGroup.multiply_many`) count ``k``, the
        same as ``k`` scalar calls; memoisation *inside* the Cayley engine is
        invisible here because the count is bumped before the engine runs.
    ``group_inversions``
        Uses of the inversion oracle; bulk accounting mirrors
        ``group_multiplications`` (:meth:`BlackBoxGroup.inverse_many`).
    ``identity_tests``
        Equality/identity tests performed through the black-box interface.
    ``extra``
        Free-form named counters (``bump``) for algorithm-specific events,
        e.g. ``theorem11_retries`` or ``order_oracle_calls``.
    """

    classical_queries: int = 0
    quantum_queries: int = 0
    group_multiplications: int = 0
    group_inversions: int = 0
    identity_tests: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def bump(self, key: str, amount: int = 1) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount

    #: The named (non-``extra``) counter fields, in snapshot order.
    FIELDS = (
        "classical_queries",
        "quantum_queries",
        "group_multiplications",
        "group_inversions",
        "identity_tests",
    )

    def snapshot(self) -> Dict[str, int]:
        data = {
            "classical_queries": self.classical_queries,
            "quantum_queries": self.quantum_queries,
            "group_multiplications": self.group_multiplications,
            "group_inversions": self.group_inversions,
            "identity_tests": self.identity_tests,
        }
        data.update(self.extra)
        return data

    @classmethod
    def from_snapshot(cls, data: Dict[str, int]) -> "QueryCounter":
        """Rebuild a counter from a :meth:`snapshot` dictionary.

        The round-trip ``QueryCounter.from_snapshot(c.snapshot())`` preserves
        every counter (named fields and ``extra`` alike), which is what lets
        the experiment harness merge the per-run JSON reports of worker
        processes back into one aggregate with ``+`` / :func:`sum`.
        """
        counter = cls()
        for key, value in data.items():
            if key in cls.FIELDS:
                setattr(counter, key, int(value))
            else:
                counter.extra[key] = int(value)
        return counter

    def reset(self) -> None:
        self.classical_queries = 0
        self.quantum_queries = 0
        self.group_multiplications = 0
        self.group_inversions = 0
        self.identity_tests = 0
        self.extra.clear()

    def __add__(self, other: "QueryCounter") -> "QueryCounter":
        merged = QueryCounter(
            classical_queries=self.classical_queries + other.classical_queries,
            quantum_queries=self.quantum_queries + other.quantum_queries,
            group_multiplications=self.group_multiplications + other.group_multiplications,
            group_inversions=self.group_inversions + other.group_inversions,
            identity_tests=self.identity_tests + other.identity_tests,
        )
        for key in set(self.extra) | set(other.extra):
            merged.extra[key] = self.extra.get(key, 0) + other.extra.get(key, 0)
        return merged

    def __radd__(self, other) -> "QueryCounter":
        # ``sum(counters)`` starts from the int 0; fold it into a fresh copy.
        if other == 0:
            return QueryCounter() + self
        return NotImplemented


class BlackBoxGroup(FiniteGroup):
    """A concrete group seen only through the Babai--Szemerédi oracle interface.

    Every multiplication, inversion and identity test is counted.  The
    wrapped group's element encoding is exposed through :meth:`encode`, so
    callers can treat elements as opaque strings exactly as the model
    prescribes.  The wrapper is itself a :class:`FiniteGroup`, which lets the
    whole algorithm stack run unchanged over counted or uncounted groups.
    """

    def __init__(self, group: FiniteGroup, counter: Optional[QueryCounter] = None, name: Optional[str] = None):
        self.group = group
        self.counter = counter if counter is not None else QueryCounter()
        self.name = name or f"BlackBox({group.name})"

    # -- oracle operations -------------------------------------------------------
    def identity(self):
        return self.group.identity()

    def multiply(self, a, b):
        self.counter.group_multiplications += 1
        return self.group.multiply(a, b)

    def inverse(self, a):
        self.counter.group_inversions += 1
        return self.group.inverse(a)

    def multiply_many(self, elements_a, elements_b) -> List:
        """Batch products; counts ``len(elements_a)`` multiplications in bulk.

        Totals equal those of the scalar loop ``[self.multiply(a, b) ...]``;
        the arithmetic is delegated to the wrapped group, whose default batch
        implementation is engine-accelerated when a Cayley engine is
        installed (:mod:`repro.groups.engine`).
        """
        elements_a = list(elements_a)
        elements_b = list(elements_b)
        if len(elements_a) != len(elements_b):
            raise ValueError("multiply_many requires sequences of equal length")
        self.counter.group_multiplications += len(elements_a)
        return self.group.multiply_many(elements_a, elements_b)

    def inverse_many(self, elements) -> List:
        """Batch inverses; counts ``len(elements)`` inversions in bulk."""
        elements = list(elements)
        self.counter.group_inversions += len(elements)
        return self.group.inverse_many(elements)

    def equal(self, a, b) -> bool:
        self.counter.identity_tests += 1
        return self.group.equal(a, b)

    def generators(self) -> List:
        return self.group.generators()

    def encode(self, a) -> bytes:
        return self.group.encode(a)

    def decode(self, code: bytes):
        return self.group.decode(code)

    def exponent_bound(self) -> Optional[int]:
        return self.group.exponent_bound()

    def element_order(self, a, exponent: Optional[int] = None) -> int:
        """Order of ``a``, charged what the scalar counted route spends.

        Without an engine for the wrapped group this is
        :meth:`FiniteGroup.element_order` over the counted operations.  With
        one (:func:`~repro.groups.engine.maybe_engine`) the order is the
        engine's, and the counter is charged the scalar route's totals
        without running it: one identity test up front, then, for every
        trial exponent ``k`` of
        :func:`~repro.linalg.modular.order_trial_exponents`, the
        ``popcount(k) + bit_length(k)`` multiplications of a binary power
        and one identity test; with no exponent bound, the ``order - 1``
        multiplications and ``order`` identity tests of the power walk.
        """
        from repro.groups.engine import maybe_engine

        engine = maybe_engine(self.group)
        if engine is None:
            return super().element_order(a, exponent)
        order = engine.element_order(engine.intern(a))
        bound = exponent if exponent is not None else self.exponent_bound()
        if bound is not None and bound % order:
            # Not a multiple of the order: only the scalar route knows its answer.
            return super().element_order(a, exponent)
        counter = self.counter
        counter.identity_tests += 1
        if order == 1:
            return 1
        if bound is None:
            counter.group_multiplications += order - 1
            counter.identity_tests += order
        else:
            trials = order_trial_exponents(order, bound)
            counter.group_multiplications += sum(bin(k).count("1") + k.bit_length() for k in trials)
            counter.identity_tests += len(trials)
        return order

    def order(self) -> int:
        # Order queries are structural information; concrete groups may know
        # their own order cheaply.  The HSP solvers only use this through the
        # quantum order-finding layer, which does its own accounting.
        return self.group.order()

    def uniform_random_element(self, rng: np.random.Generator):
        return self.group.random_element(rng)

    @property
    def encoding_length(self) -> int:
        """Length (in bits) of the longest generator encoding — the ``n`` of the model."""
        gens = self.group.generators() or [self.group.identity()]
        return max(len(self.group.encode(g)) for g in gens) * 8

    def dense_view(self) -> Optional["DenseBlackBoxGroup"]:
        """An id-native counted facade over this group, or ``None``.

        Available when a Cayley engine exists for the wrapped group (see
        :func:`repro.groups.engine.maybe_engine`); hot consumers use it to
        stay in int64 id arrays across calls while this wrapper's counter
        keeps the loop-equivalent totals.
        """
        from repro.groups.engine import maybe_engine

        engine = maybe_engine(self.group)
        if engine is None:
            return None
        return DenseBlackBoxGroup(self, engine)


class DenseBlackBoxGroup:
    """Counted group oracle over dense int64 ids.

    The id-native twin of :class:`BlackBoxGroup`: every operation bumps the
    same counter by the same amount as the equivalent element-level batch
    call, then delegates to the (uncounted) Cayley engine.  Converting
    between elements and ids (``intern_many`` / ``elements_of``) is free —
    the paper's oracle model charges for group operations, not for how the
    simulation names elements.
    """

    def __init__(self, black_box: BlackBoxGroup, engine):
        self.black_box = black_box
        self.engine = engine
        self.counter = black_box.counter
        self.identity_id = engine.identity_id

    # -- free conversions -------------------------------------------------------
    def intern(self, element) -> int:
        return self.engine.intern(element)

    def intern_many(self, elements: Sequence) -> np.ndarray:
        return self.engine.intern_many(elements)

    def element_of(self, element_id: int):
        return self.engine.element_of(element_id)

    def elements_of(self, ids: Sequence) -> List:
        return self.engine.elements_of(ids)

    # -- counted id operations --------------------------------------------------
    def multiply_ids(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> np.ndarray:
        """Componentwise id products; counts ``len(ids_a)`` multiplications."""
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        if ids_a.shape != ids_b.shape:
            raise ValueError("multiply_ids requires id arrays of equal length")
        self.counter.group_multiplications += int(ids_a.size)
        return self.engine.mul_many(ids_a, ids_b)

    def inverse_ids(self, ids: Sequence[int]) -> np.ndarray:
        """Componentwise id inverses; counts ``len(ids)`` inversions."""
        ids = np.asarray(ids, dtype=np.int64)
        self.counter.group_inversions += int(ids.size)
        return self.engine.inv_many(ids)

    def is_identity_ids(self, ids: Sequence[int]) -> np.ndarray:
        """Componentwise identity tests; counts ``len(ids)`` identity tests."""
        ids = np.asarray(ids, dtype=np.int64)
        self.counter.identity_tests += int(ids.size)
        return ids == self.identity_id

    def closure_ids(self, generator_ids: Sequence[int]) -> np.ndarray:
        """Ids of the generated subgroup, counted like the scalar BFS.

        The scalar enumeration (``generate_subgroup_elements``) tests each
        generator against the identity, inverts the ``k`` non-identity
        generators, and multiplies every discovered member by each of the
        ``2k`` extended generators exactly once — ``|H| * 2k`` products in
        total, independent of the BFS level structure, because every member
        enters the frontier exactly once.  Those totals are charged here up
        front and the member set itself comes from the engine's vectorised
        closure, which is orders of magnitude faster than a counted
        per-level walk.
        """
        ids = np.asarray(generator_ids, dtype=np.int64)
        keep = ids[~self.is_identity_ids(ids)]
        self.counter.group_inversions += int(keep.size)
        member = self.engine.subgroup_ids(keep)
        self.counter.group_multiplications += int(member.size) * 2 * int(keep.size)
        return member


def shared_dense_view(group, oracle: "HidingOracle") -> Optional[DenseBlackBoxGroup]:
    """The counted id facade of ``group`` when ``oracle`` is keyed on its engine.

    ``None`` unless ``group`` is a :class:`BlackBoxGroup` and ``oracle`` is
    dense-attached to the engine of the wrapped group: only then can an id
    route charge the group's counter and query ``oracle`` with the same ids.
    """
    if oracle.dense_engine is None or not isinstance(group, BlackBoxGroup):
        return None
    dense = group.dense_view()
    return dense if dense is not None and dense.engine is oracle.dense_engine else None


def _label_array(values) -> np.ndarray:
    """Labels as an int64 array when every label is an int64 integer, else object."""
    if isinstance(values, np.ndarray):
        if values.dtype.kind == "i":
            return values.astype(np.int64, copy=False)
        if values.dtype == object:
            return values
    values = list(values)
    if all(isinstance(v, (int, np.integer)) for v in values):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            pass  # integers past int64 stay Python ints
    return np.fromiter(values, dtype=object, count=len(values))


class HidingOracle:
    """The hiding function ``f : G -> X`` with query accounting.

    ``label(g)`` must return a hashable label constant on left cosets of the
    hidden subgroup and distinct across cosets.  The optional
    ``hidden_subgroup_generators`` are carried for *verification only*:
    solvers must never read them (tests assert this by construction), but the
    experiment harness uses them to check solver output and the analytic
    sampling backend may use them as the declared coset structure of
    top-level instances.

    The query cache is keyed by element until :meth:`attach_dense`; a
    dense-attached oracle caches in a label array plus a boolean ``seen``
    mask, both indexed by engine id.

    A ``label`` with a ``many_array`` method (the Abelian coset labeller,
    :class:`~repro.linalg.zmodule.CosetReducer`) labels int64 tuple
    elements in bulk: an ``(n, r)`` int64 element array in, ``(n, r')``
    int64 label rows out.  :meth:`evaluate_many` hands it an element
    array's uncached points.
    """

    def __init__(
        self,
        label: Callable[[Any], Any],
        counter: Optional[QueryCounter] = None,
        hidden_subgroup_generators: Optional[Sequence] = None,
        description: str = "f",
    ):
        self._label = label
        self._label_many: Optional[Callable[[np.ndarray], np.ndarray]] = getattr(label, "many_array", None)
        self.counter = counter if counter is not None else QueryCounter()
        self.hidden_subgroup_generators = list(hidden_subgroup_generators) if hidden_subgroup_generators is not None else None
        self.description = description
        self._cache: Dict[Any, Any] = {}
        self._engine = None
        self._label_ids: Optional[Callable[[np.ndarray], Sequence]] = None
        self._seen: Optional[np.ndarray] = None
        self._labels: Optional[np.ndarray] = None
        self.noise = None

    @property
    def dense_engine(self):
        """The Cayley engine this oracle is id-keyed on, or ``None``."""
        return self._engine

    def attach_dense(self, engine, label_ids: Optional[Callable[[np.ndarray], Sequence]] = None) -> None:
        """Key the query cache by dense engine ids and enable :meth:`evaluate_ids`.

        ``label_ids`` is an optional vectorized labeller (an int64 id array
        in, one label per id out) used for uncached ids; without it the
        scalar ``label`` runs per fresh id.  The cache becomes a label array
        plus a boolean ``seen`` mask, both sized once by
        ``engine.interned_count`` (every id of the group).  The label array
        is int64 while every label is an integer (both coset-min labellers)
        and object otherwise (e.g. Theorem 11's frozenset bundles).
        Interning is a bijection, so the set of counted (uncached) queries
        is identical to the element-keyed cache — accounting is unchanged.
        Existing cache entries are migrated.
        """
        migrated = self._cache
        ids = engine.intern_many(list(migrated))
        self._engine = engine
        self._label_ids = label_ids
        self._cache = {}
        self._seen = np.zeros(engine.interned_count, dtype=bool)
        self._labels = None
        if migrated:
            self._store(ids, list(migrated.values()))
        if (
            self.noise is not None
            and label_ids is not None
            and not getattr(label_ids, "_noise_wrapped", False)
        ):
            self._label_ids = self._wrap_label_ids(label_ids)

    def _store(self, ids: np.ndarray, values) -> None:
        """Cache ``values`` under ``ids``."""
        values = _label_array(values)
        if self._labels is None:
            self._labels = np.zeros(self._seen.size, dtype=values.dtype)
        elif values.dtype != self._labels.dtype:
            if values.dtype == object:
                self._labels = self._labels.astype(object)
            else:
                values = values.astype(object)
        self._labels[ids] = values
        self._seen[ids] = True

    def apply_noise(self, channel) -> None:
        """Install an oracle corruption channel *below* the cache and counter.

        ``channel.replacements(elements)`` decides, deterministically per
        element, whether the answer for ``element`` is replaced by the true
        label of another element (a uniformly random coset label for the
        ``oracle-flip`` channel).  The wrap sits below :meth:`__call__`'s
        cache and counter, so query accounting and cache behaviour are
        byte-identical to the honest oracle — only answers change.  The
        element-keyed decision makes every query path (scalar, batch,
        dense-id, :meth:`fresh_view` copies) corrupt identically.
        """
        if self.noise is not None:
            raise ValueError("a noise channel is already installed on this oracle")
        self.noise = channel
        honest_label = self._label
        self._honest_label = honest_label

        def noisy_label(element):
            (replacement,) = channel.replacements([element])
            return honest_label(element if replacement is None else replacement)

        self._label = noisy_label
        if self._label_ids is not None:
            self._label_ids = self._wrap_label_ids(self._label_ids)
        if self._label_many is not None:
            self._label_many = self._wrap_label_many(self._label_many)

    def _wrap_label_ids(self, base_label_ids: Callable[[np.ndarray], Sequence]):
        """The noisy twin of a vectorized labeller: same ids, corrupted answers."""
        channel = self.noise
        engine = self._engine
        honest_label = self._honest_label

        def noisy_label_ids(ids):
            values = _label_array(base_label_ids(ids)).copy()
            replacements = channel.replacements(engine.elements_of(ids))
            for position, replacement in enumerate(replacements):
                if replacement is not None:
                    values[position] = honest_label(replacement)
            return values

        noisy_label_ids._noise_wrapped = True
        return noisy_label_ids

    def _wrap_label_many(self, base_label_many: Callable[[np.ndarray], np.ndarray]):
        """The noisy twin of an element-array labeller: same points, corrupted answers."""
        channel = self.noise
        honest_label = self._honest_label

        def noisy_label_many(points):
            values = np.array(base_label_many(points), dtype=np.int64)
            replacements = channel.replacements([tuple(x) for x in points.tolist()])
            for position, replacement in enumerate(replacements):
                if replacement is not None:
                    values[position] = honest_label(replacement)
            return values

        return noisy_label_many

    def __call__(self, element) -> Any:
        """A classical query to ``f`` (cached; the first evaluation counts)."""
        if self._engine is None:
            if element in self._cache:
                return self._cache[element]
            self.counter.classical_queries += 1
            value = self._label(element)
            self._cache[element] = value
            return value
        i = self._engine.intern(element)
        if self._seen[i]:
            return self._labels.item(i)
        self.counter.classical_queries += 1
        value = self._label(element)
        # One scalar write when the label fits the array; _store allocates
        # the array on first use and widens it to object when needed.
        labels = self._labels
        if labels is not None and (labels.dtype == object or isinstance(value, (int, np.integer))):
            labels[i] = value
            self._seen[i] = True
        else:
            self._store(np.asarray([i], dtype=np.int64), [value])
        return value

    def evaluate_many(self, elements: Sequence) -> List:
        """Batch classical queries to ``f``.

        Exactly the uncached elements are counted (and evaluated, in input
        order), so the reported ``classical_queries`` total is identical to
        the equivalent scalar loop ``[self(x) for x in elements]`` —
        including when the input contains duplicates.  An ``(n, r)`` int64
        array stands for its rows as tuples; on an engine-less oracle whose
        label has ``many_array`` it is answered as an int64 array of label
        rows, its distinct uncached points labelled in one batch.
        """
        if isinstance(elements, np.ndarray):
            if self._label_many is not None and self._engine is None:
                return self._evaluate_points(elements)
            elements = [tuple(x) for x in elements.tolist()]
        if self._engine is not None:
            return self.evaluate_ids(self._engine.intern_many(list(elements))).tolist()
        values = []
        for element in elements:
            if element in self._cache:
                values.append(self._cache[element])
                continue
            self.counter.classical_queries += 1
            value = self._label(element)
            self._cache[element] = value
            values.append(value)
        return values

    def _evaluate_points(self, points: np.ndarray) -> np.ndarray:
        """:meth:`evaluate_many` on an int64 element array, through the label's ``many_array``."""
        keys = [tuple(x) for x in points.tolist()]
        cache = self._cache
        fresh = {}
        for position, key in enumerate(keys):
            if key not in cache and key not in fresh:
                fresh[key] = position
        if fresh:
            self.counter.classical_queries += len(fresh)
            values = self._label_many(points[list(fresh.values())])
            cache.update(zip(fresh, (tuple(x) for x in values.tolist())))
            if len(fresh) == len(keys):
                return values
        return np.asarray([cache[key] for key in keys], dtype=np.int64).reshape(len(keys), -1)

    def evaluate_ids(self, ids: Sequence[int]) -> np.ndarray:
        """Batch classical queries addressed by dense engine ids.

        Returns one label per id as an ndarray: int64 when the labels are
        integers (both coset-min labellers), object otherwise.  A fully
        cached call is one ``seen`` mask read.  Otherwise the distinct
        uncached ids are labelled once each, in first-occurrence input
        order, and counted — interning is a bijection, so this equals the
        scalar loop's total over the decoded elements (duplicates and all).
        Uncached labels come from the vectorized ``label_ids`` when
        attached, else from the scalar labeller per id.  Requires a prior
        :meth:`attach_dense`.
        """
        if self._engine is None:
            raise ValueError("evaluate_ids requires attach_dense")
        ids = np.asarray(ids, dtype=np.int64)
        pending = ids[~self._seen[ids]]
        if pending.size:
            _, first = np.unique(pending, return_index=True)
            fresh = pending[np.sort(first)]
            self.counter.classical_queries += int(fresh.size)
            if self._label_ids is not None:
                values = self._label_ids(fresh)
                if len(values) != fresh.size:
                    raise ValueError(
                        f"{self.description}: vectorized labeller returned {len(values)} "
                        f"labels for {fresh.size} ids"
                    )
            else:
                values = [self._label(element) for element in self._engine.elements_of(fresh)]
            self._store(fresh, values)
        if self._labels is None:
            return np.empty(0, dtype=np.int64)
        return self._labels[ids]

    def quantum_query(self, count: int = 1) -> None:
        """Account for ``count`` superposition queries (Fourier-sampling rounds)."""
        self.counter.quantum_queries += count

    def fresh_view(self) -> "HidingOracle":
        """A new oracle sharing the labelling function but with fresh counters.

        A dense attachment (engine keying + vectorized labeller) carries
        over, as does an installed noise channel (the shared labelling
        closures are already the corrupted ones); the cache does not, so the
        new view counts its own queries.
        """
        view = HidingOracle(self._label, QueryCounter(), self.hidden_subgroup_generators, self.description)
        view.noise = self.noise
        if self.noise is not None:
            view._honest_label = self._honest_label
            view._label_many = self._label_many
        if self._engine is not None:
            view.attach_dense(self._engine, self._label_ids)
        return view

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HidingOracle({self.description})"
