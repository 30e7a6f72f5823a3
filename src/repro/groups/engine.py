"""Vectorized dense-id group engine.

The paper states its complexity bounds in oracle queries, but the wall-clock
cost of the *simulation* is dominated by per-element Python group arithmetic
in the Fourier-sampling and coset-enumeration hot paths.  This module provides
a :class:`CayleyBackend` that

* is *id-native*: it builds only for a group of known order at most
  :data:`DEFAULT_INTERN_LIMIT` that exposes a dense kernel, and an
  element's id is its rank under the kernel's row <-> rank bijection
  (:meth:`~repro.groups.base.DenseKernel.ids_of`), the identity 0.  On
  the exact box (dihedral, metacyclic, Heisenberg, Abelian and wreath
  groups) the rank is the row's mixed-radix coordinate key, so a product
  row resolves by a range check and one dot product; a permutation row
  ranks by sifting through its group's stabiliser chain.  Nothing is
  enumerated, and elements are decoded only on demand at the API edges,
* exposes batch operations — :meth:`mul_many`, :meth:`inv_many`,
  :meth:`conj_many`, :meth:`cyclic_ids` and the Dimino closure
  :meth:`subgroup_ids`, which multiplies only coset representatives by
  generators — that amortise Python dispatch over whole id arrays, and
* memoizes structure queries (:meth:`is_abelian`, the commutator subgroup,
  element orders) that the solvers ask for repeatedly.

A build holds the rank-ordered row table, range-checked whole, and the
generators' cyclic chains, which it walks as its guard and keeps: generator
chains and orders cost no kernel call afterwards.  It holds no inverse
table; inverses are one kernel pass over the rows asked for.

The engine is *mathematically transparent*: every operation agrees with the
scalar :class:`~repro.groups.base.FiniteGroup` interface of the wrapped group
(the test-suite checks this property-based).  Query accounting is **not**
done here — counted groups (:class:`~repro.blackbox.oracle.BlackBoxGroup`)
bump their counters in bulk *before* delegating to the engine, so batch and
scalar executions report identical totals.

Use :func:`get_engine` to build-and-install an engine on a group instance
(subsequent ``multiply_many`` calls on the group are then engine-accelerated
automatically) and :func:`maybe_engine` for the guarded variant that returns
``None`` for every other group (no dense kernel, unknown or huge order),
which keeps the per-element code path as the fallback.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.base import FiniteGroup, GroupError
from repro.obs import span as obs_span

__all__ = [
    "CayleyBackend",
    "get_engine",
    "maybe_engine",
]

#: The single size ceiling: an engine holds a row for every element, so
#: only groups of known order up to this (with a dense kernel) get one;
#: larger groups take the per-element route.
DEFAULT_INTERN_LIMIT = 1 << 16


def _cheap_order(group: FiniteGroup) -> Optional[int]:
    """The group order if it is available without a fresh full enumeration.

    ``None`` means "unknown without enumeration": the base-class ``order``
    falls back to BFS over the whole group, which the engine must not trigger
    on a group that might be huge.  An already-populated element cache counts
    as cheap (the enumeration has been paid for).
    """
    cached = getattr(group, "_element_cache", None)
    if cached is not None:
        return len(cached)
    if type(group).order is not FiniteGroup.order:
        try:
            return int(group.order())
        except Exception:
            return None
    return None


def _kernel_and_order(group: FiniteGroup) -> Optional[Tuple[object, int]]:
    """``(kernel, order)`` when ``group`` admits an engine, else ``None``.

    An engine holds the whole group through its dense kernel, so it
    needs a :class:`~repro.groups.base.DenseKernel` and an order that is
    known without enumeration (:func:`_cheap_order`) and at most
    :data:`DEFAULT_INTERN_LIMIT`.
    """
    order = _cheap_order(group)
    if order is None or order > DEFAULT_INTERN_LIMIT:
        return None
    factory = getattr(group, "dense_kernel", None)
    kernel = factory() if factory is not None else None
    return None if kernel is None else (kernel, order)


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of an id array, sorted: one ``np.sort`` and a neighbour mask."""
    ids = np.sort(ids)
    keep = np.empty(ids.size, dtype=bool)
    keep[:1] = True
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


class CayleyBackend:
    """Dense-id engine over a :class:`~repro.groups.base.FiniteGroup`.

    Parameters
    ----------
    group:
        The wrapped group.  It must expose a
        :class:`~repro.groups.base.DenseKernel` and an order known without
        enumeration and at most :data:`DEFAULT_INTERN_LIMIT`; any other
        group raises :class:`GroupError` (:func:`maybe_engine` returns
        ``None`` for it instead).

    The engine holds no element objects, only one kernel row per id, and
    has one id rule: id ``i`` is the element of rank ``i`` under the
    kernel's row <-> rank bijection (:meth:`DenseKernel.ids_of`, whose
    size must equal the order), so the identity is id 0.  On the exact box
    the rank is the row's mixed-radix key; a permutation row ranks through
    its stabiliser chain.  The build takes the rank-ordered row table
    (:meth:`DenseKernel.row_table`), range-checks it whole and walks the
    generators' cyclic chains, keeping them read-only for
    :meth:`cyclic_ids` and :meth:`element_order`; nothing is enumerated
    and there is no inverse table.  Products and inverses are computed
    array-at-a-time by the kernel and resolve to ids by ranking their
    rows, :meth:`element_of` and
    :meth:`elements_of` decode just the requested rows, and :meth:`intern`
    and :meth:`intern_many` encode their elements and rank the rows (a
    foreign element raises :class:`GroupError`).
    """

    #: Every engine is id-native; the name stays for build reports.
    mode = "kernel"

    #: The identity's id: every kernel ranks it 0.
    identity_id = 0

    def __init__(self, group: FiniteGroup):
        basis = _kernel_and_order(group)
        if basis is None:
            raise GroupError(
                f"no Cayley engine for {group.name}: it needs a dense kernel and an order "
                f"known without enumeration, at most {DEFAULT_INTERN_LIMIT}"
            )
        self.group = group
        self.kernel, self.group_order = basis
        self._ids: Dict = {}
        self._mul_cache: Dict[Tuple[int, int], int] = {}
        self._order_cache: Dict[int, int] = {}
        self._generator_chains: Dict[int, np.ndarray] = {}
        self._is_abelian: Optional[bool] = None
        self._commutator_ids: Optional[np.ndarray] = None
        self._subgroup_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        with obs_span("engine.build", group=group.name, mode=self.mode) as build_span:
            size = self.kernel.size
            if size != self.group_order:
                raise GroupError(
                    f"dense kernel of {group.name} ranks {size} rows, "
                    f"but the group has order {self.group_order}"
                )
            self._kernel_rows = self.kernel.row_table()
            # Range-check every row: a kernel whose radices miss its own
            # rows fails here, naming the column.
            self._row_ids(self._kernel_rows)
            if self.intern(group.identity()) != self.identity_id:
                raise GroupError(f"dense kernel of {group.name} does not rank the identity 0")
            # The generators' cyclic chains must close: a kernel that is not
            # a group fails here instead of in some later product.  The
            # chains are kept: cyclic_ids and element_order read them.
            gen_ids = self.intern_many(group.generators())
            for g, chain in zip(gen_ids.tolist(), self.cyclic_ids(gen_ids)):
                chain.flags.writeable = False
                self._generator_chains[g] = chain
                self._order_cache[g] = chain.size + 1
            build_span.add("interned", self.interned_count)

    # -- interning ------------------------------------------------------------
    def intern(self, element) -> int:
        """The id of ``element``: the rank of its kernel row.

        The element is encoded and its row ranked; the id is memoized per
        element, so repeated scalar queries stay dict lookups.
        """
        found = self._ids.get(element)
        if found is None:
            found = int(self._lookup_elements([element])[0])
            self._ids[element] = found
        return found

    def intern_many(self, elements: Iterable) -> np.ndarray:
        if isinstance(elements, np.ndarray):
            # Already an id array: the id-native fast path is a no-op.
            if elements.dtype == np.int64:
                return elements
            if np.issubdtype(elements.dtype, np.integer):
                return elements.astype(np.int64)
        elements = list(elements)
        if not elements:
            return np.empty(0, dtype=np.int64)
        return self._lookup_elements(elements)

    def _lookup_elements(self, elements: List) -> np.ndarray:
        """Ids of ``elements``: one bulk encode and rank."""
        try:
            return self._row_ids(np.asarray(self.kernel.encode_many(elements), dtype=np.int64))
        except (GroupError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise GroupError(f"element not in the group {self.group.name}") from exc

    def element_of(self, element_id: int):
        i = int(element_id)
        return self.kernel.decode_many(self._kernel_rows[i : i + 1])[0]

    def elements_of(self, ids: Iterable) -> List:
        if not isinstance(ids, np.ndarray):
            ids = list(ids)
        rows = np.take(self._kernel_rows, np.asarray(ids, dtype=np.int64), axis=0)
        return self.kernel.decode_many(rows)

    @property
    def interned_count(self) -> int:
        """The number of ids: the group order."""
        return self._kernel_rows.shape[0]

    # -- bulk kernel primitives ------------------------------------------------
    def _row_ids(self, rows: np.ndarray) -> np.ndarray:
        """Ids of a block of kernel rows: their ranks, range- and membership-checked."""
        try:
            return self.kernel.ids_of(rows)
        except GroupError as exc:
            raise GroupError(f"dense kernel of {self.group.name} {exc}") from None

    def _bulk_products(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Products of id arrays through the dense kernel (no scalar multiply)."""
        rows = self._kernel_rows
        return self._row_ids(
            self.kernel.compose_many(np.take(rows, ids_a, axis=0), np.take(rows, ids_b, axis=0))
        )

    # -- scalar primitives ----------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        """Product of two ids, memoized."""
        key = (int(a), int(b))
        value = self._mul_cache.get(key)
        if value is None:
            value = int(
                self._bulk_products(
                    np.asarray(key[:1], dtype=np.int64), np.asarray(key[1:], dtype=np.int64)
                )[0]
            )
            self._mul_cache[key] = value
        return value

    def inv(self, a: int) -> int:
        return int(self.inv_many([a])[0])

    def power(self, a: int, k: int) -> int:
        """``a**k`` by binary exponentiation over ids."""
        if k < 0:
            return self.power(self.inv(a), -k)
        result = self.identity_id
        base = int(a)
        while k:
            if k & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            k >>= 1
        return result

    # -- batch operations ------------------------------------------------------
    def mul_many(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> np.ndarray:
        """Componentwise products ``a_i * b_i`` of two id arrays."""
        ids_a = np.asarray(ids_a, dtype=np.int64)
        ids_b = np.asarray(ids_b, dtype=np.int64)
        if ids_a.shape != ids_b.shape:
            raise ValueError("mul_many requires id arrays of equal length")
        if ids_a.size > 8:
            return self._bulk_products(ids_a, ids_b)
        # Tiny batches (deep BFS levels degenerate to a few pairs) are
        # overhead-bound in the kernel: the memoized scalar path wins.
        return np.fromiter(
            (self.mul(a, b) for a, b in zip(ids_a, ids_b)), dtype=np.int64, count=len(ids_a)
        )

    def inv_many(self, ids: Sequence[int]) -> np.ndarray:
        """Componentwise inverses of an id array: one kernel pass over their rows."""
        ids = np.asarray(ids, dtype=np.int64)
        if not ids.size:
            return ids.copy()
        rows = np.take(self._kernel_rows, ids, axis=0)
        return self._row_ids(self.kernel.inverse_many(rows))

    def conj_many(self, ids_g: Sequence[int], ids_h: Sequence[int]) -> np.ndarray:
        """Componentwise conjugates ``g_i h_i g_i^{-1}``."""
        ids_g = np.asarray(ids_g, dtype=np.int64)
        return self.mul_many(self.mul_many(ids_g, ids_h), self.inv_many(ids_g))

    def orbit_closure(
        self,
        seed_ids: Sequence[int],
        generator_ids: Optional[Sequence[int]] = None,
        include_inverses: bool = True,
        limit: Optional[int] = None,
    ) -> np.ndarray:
        """Closure of ``seed_ids`` under right multiplication by the generators.

        With ``seed_ids == [identity]`` this is the subgroup generated by the
        generator ids.  Returns the sorted id array of the closure.  ``limit``
        aborts (``GroupError``) once the closure exceeds that many elements —
        the same guard the scalar BFS helpers use.
        """
        if generator_ids is None:
            generator_ids = self.intern_many(self.group.generators())
        gen_ids = np.asarray(generator_ids, dtype=np.int64)
        if include_inverses and gen_ids.size:
            gen_ids = np.unique(np.concatenate([gen_ids, self.inv_many(gen_ids)]))
        seed = np.unique(np.asarray(seed_ids, dtype=np.int64))
        # Dense membership: one boolean flag per group element, one
        # vectorised product block per BFS level.
        member = np.zeros(self.interned_count, dtype=bool)
        member[seed] = True
        frontier = seed
        while frontier.size and gen_ids.size:
            products = np.unique(
                self.mul_many(np.repeat(frontier, gen_ids.size), np.tile(gen_ids, frontier.size))
            )
            fresh = products[~member[products]]
            member[fresh] = True
            if limit is not None and int(member.sum()) > limit:
                raise GroupError(f"orbit closure exceeded limit {limit}")
            frontier = fresh
        return np.flatnonzero(member).astype(np.int64)

    def cyclic_ids(self, ids: Sequence[int], caps: Optional[Sequence[int]] = None) -> List[np.ndarray]:
        """``[g, g^2, ..., g^{ord g - 1}]`` for every id ``g``, cut after ``caps[i] - 1`` powers.

        Shift doubling over one ``(ids x powers)`` id stack: with ``powers =
        [g^0 .. g^{k-1}]`` and ``pivot = g^k`` per id, one kernel call per
        level appends every unfinished id's next ``k`` powers and squares
        its pivot (the extra last column).  A chain ends at its first power
        equal to the identity, or after ``caps[i] - 1`` powers when ``caps``
        is given, so the whole batch costs ``O(log max ord g)`` kernel
        calls, and a batch of one costs what one chain costs.  A generator's
        chain is the one the build walked, cut and read-only, at no call.
        """
        ids = np.asarray(ids, dtype=np.int64)
        chains: List[np.ndarray] = [ids[:0]] * ids.size
        if not ids.size:
            return chains
        if caps is None:
            cut = np.full(ids.size, np.iinfo(np.int64).max)
        else:
            cut = np.asarray(caps, dtype=np.int64) - 1
        # g^1 = g needs no product: the identity's chain is empty, and a cut of 1 keeps [g].
        unit = ids == self.identity_id
        settled = unit | (cut <= 1)
        for i in settled.nonzero()[0].tolist():
            chains[i] = ids[i : i + 1][: 0 if unit[i] else cut[i]]
        # A generator's chain was walked by the build: cut it, walk nothing.
        for i, g in enumerate(ids.tolist()):
            chain = self._generator_chains.get(g)
            if chain is not None:
                chains[i], settled[i] = chain[: max(int(cut[i]), 0)], True
        active = (~settled).nonzero()[0]
        if not active.size:
            return chains
        powers = np.full((active.size, 1), self.identity_id, dtype=np.int64)
        pivot = ids[active]
        while True:
            live, k = powers.shape
            left = np.concatenate([powers, pivot[:, None]], axis=1).ravel()
            block = self._bulk_products(left, pivot.repeat(k + 1)).reshape(live, k + 1)
            # block[:, j] = g^(k+j): the first of them equal to the identity is g^ord.
            hit = block == self.identity_id
            closed = hit.any(axis=1)
            ended = closed | (cut[active] <= 2 * k)
            if ended.any():
                lengths = np.minimum(np.where(closed, k - 1 + hit.argmax(axis=1), 2 * k), cut[active])
                done = ended.nonzero()[0].tolist()
                for i in done:
                    chains[active[i]] = np.concatenate([powers[i, 1:], block[i]])[: lengths[i]]
                if len(done) == live:
                    return chains
                keep = ~ended
                active, powers, block = active[keep], powers[keep], block[keep]
            if 2 * k > self.group_order:
                # Distinct powers of a group element never outnumber the group.
                raise GroupError(f"dense kernel of {self.group.name}: a cyclic chain outgrew the group order")
            powers = np.concatenate([powers, block[:, :k]], axis=1)
            pivot = block[:, k]

    def subgroup_ids(
        self, generator_ids: Sequence[int], limit: Optional[int] = None, memoize: bool = True
    ) -> np.ndarray:
        """Sorted ids of the subgroup generated by ``generator_ids``.

        Dimino closure over ids: the first generator's chain
        (:meth:`cyclic_ids`) is ``K = <g>``, and each later generator
        outside ``K`` extends it by right cosets of ``C``, the subgroup
        before it.  A queued representative ``r`` still
        outside ``K`` adds ``C r^j`` for every power whose coset is new and
        probes those powers with the generators used so far, in one bulk
        product; probes outside ``K`` are the next representatives, whose
        chains are computed a batch at a time.  Blocks hold only new cosets,
        so the member mask is the whole dedup and a running count enforces
        ``limit`` (:class:`GroupError` past it, from the memo too).
        ``memoize=False`` skips the closure cache, for one-off generating
        sets such as a member set plus one element.
        """
        gen_ids = np.asarray(generator_ids, dtype=np.int64)
        key = tuple(_distinct(gen_ids).tolist()) if memoize else None
        cached = self._subgroup_cache.get(key)
        if cached is not None:
            if limit is not None and cached.size > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            return cached
        member = np.zeros(self.interned_count, dtype=bool)
        member[self.identity_id] = True
        count = 1
        gens = gen_ids[:0]  # the generators used so far
        pending = gen_ids[~member[gen_ids]]
        while pending.size:
            queue, pending = pending[:1], pending[1:]
            gens = np.append(gens, queue)
            base, in_base = np.flatnonzero(member), member.copy()
            while queue.size:
                reps = _distinct(queue[~member[queue]])
                found: List[np.ndarray] = []
                for rep, chain in zip(reps.tolist(), self.cyclic_ids(reps)):
                    if member[rep]:
                        continue
                    if gens.size == 1:
                        # A cyclic group is closed: the chain is all of the first K.
                        block, probes = chain, chain[:0]
                    else:
                        # C r^j repeats from the first power of r inside C on.
                        inside = np.flatnonzero(in_base[chain])
                        powers = chain[: inside[0]] if inside.size else chain
                        powers = powers[~member[powers]]
                        split = base.size * powers.size
                        products = self._bulk_products(
                            np.concatenate([np.repeat(base, powers.size), np.repeat(powers, gens.size)]),
                            np.concatenate([np.tile(powers, base.size), np.tile(gens, powers.size)]),
                        )
                        block, probes = products[:split], products[split:]
                    member[block] = True
                    count += block.size
                    if limit is not None and count > limit:
                        raise GroupError(f"subgroup closure exceeded limit {limit}")
                    found.append(probes[~member[probes]])
                queue = np.concatenate(found) if found else reps[:0]
            pending = pending[~member[pending]]
        current = np.flatnonzero(member)
        if key is not None:
            self._subgroup_cache[key] = current
        return current

    # -- element-level conveniences --------------------------------------------
    def multiply_elements(self, elements_a: Sequence, elements_b: Sequence) -> List:
        ids = self.mul_many(self.intern_many(elements_a), self.intern_many(elements_b))
        return self.elements_of(ids)

    def inverse_elements(self, elements: Sequence) -> List:
        return self.elements_of(self.inv_many(self.intern_many(elements)))

    # -- memoized structure queries ---------------------------------------------
    def is_abelian(self) -> bool:
        """Whether the group is Abelian (generator-pairwise, memoized)."""
        if self._is_abelian is None:
            gen_ids = self.intern_many(self.group.generators())
            pairs_a = np.repeat(gen_ids, gen_ids.size)
            pairs_b = np.tile(gen_ids, gen_ids.size)
            self._is_abelian = bool(
                np.array_equal(self.mul_many(pairs_a, pairs_b), self.mul_many(pairs_b, pairs_a))
            )
        return self._is_abelian

    def commutator_subgroup_ids(self, limit: Optional[int] = None) -> np.ndarray:
        """Ids of the full commutator subgroup ``G'`` (memoized).

        ``G'`` is the normal closure of the generator commutators: the
        computation alternates subgroup closure with conjugation by the group
        generators until stable, entirely over id arrays.  ``limit`` raises
        :class:`GroupError` once ``G'`` has more elements, from the memo too.
        """
        if self._commutator_ids is not None:
            if limit is not None and self._commutator_ids.size > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            return self._commutator_ids
        gen_ids = self.intern_many(self.group.generators())
        inverses = self.inv_many(gen_ids).tolist()
        commutators = []
        for i in range(gen_ids.size):
            for j in range(i + 1, gen_ids.size):
                a, b = int(gen_ids[i]), int(gen_ids[j])
                c = self.mul(self.mul(a, b), self.mul(inverses[i], inverses[j]))
                if c != self.identity_id:
                    commutators.append(c)
        closure = self.subgroup_ids(np.asarray(commutators, dtype=np.int64), limit=limit)
        # The closure only grows, so one mask takes each round's members.
        member = np.zeros(self.interned_count, dtype=bool)
        while True:
            member[closure] = True
            pairs_g = np.repeat(gen_ids, closure.size)
            pairs_h = np.tile(closure, gen_ids.size)
            conjugates = self.conj_many(pairs_g, pairs_h)
            fresh = conjugates[~member[conjugates]]
            if not fresh.size:
                break
            # A one-off generating set: the closure's member mask drops repeats.
            closure = self.subgroup_ids(np.concatenate([closure, fresh]), limit=limit, memoize=False)
        self._commutator_ids = closure
        return closure

    def commutator_subgroup_elements(self, limit: Optional[int] = None) -> List:
        return self.elements_of(self.commutator_subgroup_ids(limit=limit))

    def element_order(self, element_id: int) -> int:
        """Multiplicative order of an element id: its chain's length plus one (memoized).

        A generator's order is known from the build; any other element's
        chain is walked once (``O(log ord)`` kernel calls).
        """
        element_id = int(element_id)
        cached = self._order_cache.get(element_id)
        if cached is not None:
            return cached
        order = self.cyclic_ids([element_id])[0].size + 1
        self._order_cache[element_id] = order
        return order

    # -- coset helpers -----------------------------------------------------------
    def coset_label_many(self, element_ids: Sequence[int], subgroup_ids: np.ndarray) -> np.ndarray:
        """The minimum id of each left coset ``g H``, for a block of ids ``g``.

        Constant exactly on left cosets of the subgroup, so it is a valid
        hiding-function value.  One products block of shape
        ``(len(element_ids), len(subgroup_ids))`` followed by a row-wise
        minimum; callers chunk when the block would be large.
        """
        element_ids = np.asarray(element_ids, dtype=np.int64)
        subgroup_ids = np.asarray(subgroup_ids, dtype=np.int64)
        if element_ids.size == 0:
            return np.empty(0, dtype=np.int64)
        products = self.mul_many(
            np.repeat(element_ids, subgroup_ids.size),
            np.tile(subgroup_ids, element_ids.size),
        )
        return products.reshape(element_ids.size, subgroup_ids.size).min(axis=1)

    # -- diagnostics ---------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Cache-occupancy statistics (used by tests and the benchmark report)."""
        return {
            "interned": self.interned_count,
            "cached_products": len(self._mul_cache),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CayleyBackend {self.group.name} mode={self.mode} interned={self.interned_count}>"


def get_engine(group: FiniteGroup) -> CayleyBackend:
    """The engine installed on ``group``, building (and installing) one if absent.

    Installation makes the group's default ``multiply_many``/``inverse_many``
    batch methods engine-accelerated (see :class:`~repro.groups.base.FiniteGroup`).
    """
    engine = getattr(group, "_cayley_engine", None)
    if engine is None:
        engine = CayleyBackend(group)
        group._cayley_engine = engine
    return engine


def maybe_engine(group: FiniteGroup) -> Optional[CayleyBackend]:
    """A guarded :func:`get_engine`: ``None`` for a group that admits no engine.

    The engine engages only when the group exposes a dense kernel and its
    order is known without a fresh full enumeration (a concrete ``order()``
    override or an already-cached element list) and fits under
    :data:`DEFAULT_INTERN_LIMIT`.  Every other group takes the per-element
    route.  Counted black-box wrappers are unwrapped so that the engine runs
    the *uncounted* arithmetic — the wrapper keeps doing the (bulk)
    accounting.
    """
    inner = getattr(group, "group", None)
    if isinstance(inner, FiniteGroup):
        group = inner
    existing = getattr(group, "_cayley_engine", None)
    if existing is not None:
        return existing
    if _kernel_and_order(group) is None:
        return None
    return get_engine(group)
