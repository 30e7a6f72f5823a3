"""Vectorized dense-id group engine.

The paper states its complexity bounds in oracle queries, but the wall-clock
cost of the *simulation* is dominated by per-element Python group arithmetic
in the Fourier-sampling and coset-enumeration hot paths.  This module provides
a :class:`CayleyBackend` that

* is *id-native*: it builds only for a group of known order at most
  :data:`DEFAULT_INTERN_LIMIT` that exposes a dense kernel.  Where the
  kernel's radix product equals the order (the *exact box*: dihedral,
  metacyclic, Heisenberg, Abelian and wreath groups) an element's id is its
  mixed-radix coordinate key, so nothing is enumerated and a product row
  resolves to its id by a range check and one dot product; any other group
  is enumerated in row space and its ids are the enumeration's row indices,
  resolved through an integer-keyed row index.  Elements are decoded only
  on demand at the API edges,
* exposes batch operations — :meth:`mul_many`, :meth:`inv_many`,
  :meth:`conj_many`, :meth:`subgroup_ids` — that amortise Python dispatch
  over whole id arrays, and
* memoizes structure queries (:meth:`is_abelian`, the commutator subgroup,
  element orders) that the solvers ask for repeatedly.

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

#: The single size ceiling: an engine holds a row and an inverse for every
#: element, so only groups of known order up to this (with a dense kernel)
#: get one; larger groups take the per-element route.
DEFAULT_INTERN_LIMIT = 1 << 16

#: Largest pair count of one quadratic-doubling level in
#: :meth:`CayleyBackend.subgroup_ids`; past it the closure takes linear
#: generator steps.
_PAIR_BUDGET = 1 << 17

#: Generators per batch of cyclic chains in :meth:`CayleyBackend.subgroup_ids`:
#: a batch holds every power of each of its generators at once.
_CHAIN_BATCH = 32


class _RowKeys:
    """Mixed-radix int64 keys of kernel rows over the kernel's declared radices.

    One key function serves every row -> id resolution, the enumeration's
    dedup and its cyclic chains: ``key(row) = row @ strides`` with strides
    computed once from :attr:`DenseKernel.radices` (the last column least
    significant), so every row in range has a distinct key in
    ``[0, prod(radices))``.  :attr:`path` names how keys are used, and
    follows from the radix product and the element count alone:

    * ``"coordinates"`` — the product equals the count (the *exact box*:
      dihedral, metacyclic, Heisenberg, Abelian and wreath groups, direct
      products of them and the V4 semidirect): every row in range is a
      group element, so the key *is* the id and :meth:`box_rows` decodes
      every id to its row arithmetically;
    * ``"sorted"`` — int64 keys over a sparse range (small symmetric groups:
      S_5 has 5^5 keys for 120 elements): the group is enumerated, and
      membership is a set of Python ints and the row index a
      ``searchsorted`` over the sorted keys;
    * ``"bytes"`` — the product overflows int64 (permutations of degree
      >= 16): rows are keyed as opaque byte strings through a void view.
    """

    def __init__(self, radices: Sequence[int], count: int, name: str):
        self.name = name
        self.count = count
        radices = [int(r) for r in radices]
        self.width = len(radices)
        strides = []
        size = 1
        for radix in reversed(radices):
            strides.append(size)
            size *= radix
        self.size = size
        self.strides: Optional[np.ndarray] = None
        if size > np.iinfo(np.int64).max:
            self.path = "bytes"
            self._void = np.dtype((np.void, 8 * self.width))
        else:
            self.strides = np.asarray(strides[::-1], dtype=np.int64)
            self._radices = np.asarray(radices, dtype=np.int64)
            self.path = "coordinates" if size == count else "sorted"
        # Maximal column runs of one radix: the range check is one max per run.
        self._runs: List[Tuple[int, int, int]] = []
        for j, radix in enumerate(radices):
            if self._runs and self._runs[-1][2] == radix:
                self._runs[-1] = (self._runs[-1][0], j + 1, radix)
            else:
                self._runs.append((j, j + 1, radix))

    def keys(self, rows: np.ndarray) -> np.ndarray:
        """Keys of a contiguous int64 row block; rows out of range may alias."""
        if self.strides is None:
            return rows.view(self._void).ravel()
        return rows @ self.strides

    def box_rows(self) -> np.ndarray:
        """Every row in range, in key order: row ``k`` is the row with key ``k``.

        Column ``j`` of the key-ordered box counts through its radix once per
        ``strides[j]`` keys, so each column is one broadcast fill.
        """
        rows = np.empty((self.size, self.width), dtype=np.int64)
        for j, (radix, stride) in enumerate(zip(self._radices, self.strides)):
            rows.reshape(-1, radix, stride, self.width)[..., j] = np.arange(radix)[:, None]
        return rows

    def checked_keys(self, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(rows, keys)`` for a kernel-computed block, range-checked first.

        A value outside its column's radix would alias another row's key,
        so it raises :class:`GroupError` naming the group and the column
        instead.  On the ``"coordinates"`` path every row in range is a
        group element, so the check is all that resolving a row takes.
        """
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.width:
            raise GroupError(
                f"dense kernel of {self.name} emitted rows of shape {rows.shape}, "
                f"but declares {self.width} radices"
            )
        if rows.shape[0]:
            # Negative values wrap to huge unsigned ones: one max covers both ends.
            unsigned = rows.view(np.uint64)
            for lo, hi, radix in self._runs:
                if unsigned[:, lo:hi].max() >= radix:
                    bad = unsigned[:, lo:hi] >= radix
                    column = lo + int(np.argmax(bad.any(axis=0)))
                    value = int(rows[bad[:, column - lo], column][0])
                    raise GroupError(
                        f"dense kernel of {self.name} emitted {value} in column {column}, "
                        f"outside its declared radix range [0, {radix})"
                    )
        return rows, self.keys(rows)


class _RowIndex:
    """Row -> id lookup over the ``(n, w)`` int64 rows of an enumeration.

    Takes the rows' :class:`_RowKeys` keys as the enumeration computed them,
    so a whole block of kernel-computed product rows resolves to ids with
    one ``searchsorted`` over the sorted keys (int64 or byte keys).  A query
    row outside the kernel's radices can alias the key of an indexed row,
    so every lookup ends with a full row-equality check: unknown rows (a
    kernel bug, or a foreign element) raise :class:`GroupError`.
    """

    def __init__(self, rows: np.ndarray, keys: np.ndarray, space: _RowKeys):
        self._rows = rows
        self._space = space
        self._order = np.argsort(keys)
        self._sorted = keys[self._order]

    def lookup(self, query: np.ndarray) -> np.ndarray:
        query = np.ascontiguousarray(query, dtype=np.int64)
        if query.ndim != 2 or query.shape[1] != self._rows.shape[1]:
            raise GroupError(f"row block of shape {query.shape} does not match the enumerated rows")
        if query.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        pos = np.searchsorted(self._sorted, self._space.keys(query))
        ids = self._order[np.minimum(pos, len(self._sorted) - 1)]
        if not (self._rows[ids] == query).all():
            raise GroupError("row outside the enumerated group")
        return ids


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


def _cyclic_chains(
    kernel, space: _RowKeys, identity_row: np.ndarray, identity_key, reps: np.ndarray
) -> List[np.ndarray]:
    """``[r, r^2, ..., r^{ord r - 1}]`` for every row ``r`` of ``reps``.

    Shift doubling over one ``(reps x powers)`` row stack, entirely in row
    space (the enumeration runs it before any id exists): with ``powers =
    [r^0 .. r^{k-1}]`` and ``pivot = r^k`` per rep, one kernel call per
    level appends every unfinished rep's next ``k`` powers and squares its
    pivot (the extra last row).  A chain ends at its first power equal to
    the identity, so the whole batch costs ``O(log max ord r)`` kernel
    calls, and a batch of one costs what one chain costs.
    """
    count, width = reps.shape
    chains: List[np.ndarray] = [reps[:0]] * count
    if not count:
        return chains
    active = np.arange(count)
    powers = identity_row[None, None, :].repeat(count, axis=0)
    pivot = reps
    while True:
        live, k = powers.shape[:2]
        left = np.concatenate([powers, pivot[:, None, :]], axis=1).reshape(-1, width)
        block, keys = space.checked_keys(kernel.compose_many(left, pivot.repeat(k + 1, axis=0)))
        block = block.reshape(live, k + 1, width)
        # block[:, j] = r^(k+j): the first of them equal to the identity is r^ord.
        hit = keys.reshape(live, k + 1) == identity_key
        if hit.any():
            ended = hit.any(axis=1)
            done = ended.nonzero()[0].tolist()
            for i in done:
                chains[active[i]] = np.concatenate([powers[i, 1:], block[i, : int(hit[i].argmax())]])
            if len(done) == live:
                return chains
            keep = ~ended
            active, powers, block = active[keep], powers[keep], block[keep]
        if 2 * k > space.count:
            # Distinct powers of a group element never outnumber the group.
            raise GroupError(f"dense kernel of {space.name}: a cyclic chain outgrew the group order")
        powers = np.concatenate([powers, block[:, :k]], axis=1)
        pivot = block[:, k]


def _kernel_enumerate_rows(
    kernel, space: _RowKeys, identity_row: np.ndarray, identity_key, gen_rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Enumerate the group generated by ``gen_rows`` entirely in row space.

    Only groups off the exact box (:class:`_RowKeys` path ``"sorted"`` or
    ``"bytes"``) are enumerated; the identity and generator rows come in
    range-checked.

    Dimino-style closure: every generator extends the current subgroup
    ``K`` coset by coset — each new representative ``r`` contributes the
    whole block ``K @ powers(r)`` in bulk, and its powers are probed with
    every generator processed so far, breadth-first, so no coset of the
    closure is missed.  The representative queue is drained a batch at a
    time: the queue's still-unseen distinct representatives get their cyclic
    chains together (:func:`_cyclic_chains`, one kernel call per doubling
    level), then the batch is walked in queue order, skipping any rep an
    earlier one absorbed, and each other rep's block and probes are one
    combined kernel call.  ``seen`` only grows, so filtering a rep when its
    batch forms is what filtering it when it is reached would do; the walk
    is the same as popping reps one at a time.  No scalar ``multiply`` is
    ever called; the output order is deterministic (identity first), which
    fixes the dense id assignment.

    Rows are deduplicated on a set of their ``space`` keys, keeping each
    block's first occurrences in block order.  Returns ``(rows, keys)``; the
    keys feed :class:`_RowIndex`.  Every kernel-computed block is
    range-checked against the kernel's radices first
    (:meth:`_RowKeys.checked_keys`).
    """
    row_blocks: List[np.ndarray] = []
    key_blocks: List[np.ndarray] = []
    seen: set = set()

    def absorb(rows: np.ndarray, keys: np.ndarray) -> None:
        fresh = []
        for i, key in enumerate(keys.tolist()):
            if key not in seen:
                seen.add(key)
                fresh.append(i)
        if fresh:
            row_blocks.append(rows[fresh])
            key_blocks.append(keys[fresh])

    absorb(identity_row[None, :], space.keys(identity_row[None, :]))
    gen_keys = space.keys(gen_rows)
    for g_idx, gen_key in enumerate(gen_keys.tolist()):
        if gen_key in seen:
            continue
        base = np.concatenate(row_blocks)
        gen_stack = gen_rows[: g_idx + 1]
        pending_rows, pending_keys = gen_rows[g_idx : g_idx + 1], gen_keys[g_idx : g_idx + 1]
        while True:
            # The batch: distinct reps in queue order, none seen yet.
            firsts: Dict = {}
            for i, key in enumerate(pending_keys.tolist()):
                if key not in firsts and key not in seen:
                    firsts[key] = i
            if not firsts:
                break
            batch = pending_rows[list(firsts.values())]
            next_rows: List[np.ndarray] = []
            next_keys: List[np.ndarray] = []
            chains = _cyclic_chains(kernel, space, identity_row, identity_key, batch)
            for rep_key, shifts in zip(firsts, chains):
                if rep_key in seen:
                    continue
                # shifts = [r, r^2, ...]: the whole stack of cosets
                # K r^j is one block, and every power is probed with every
                # processed generator; block and probes are one kernel call.
                count = shifts.shape[0]
                split = base.shape[0] * count
                products = kernel.compose_many(
                    np.concatenate([base.repeat(count, axis=0), shifts.repeat(gen_stack.shape[0], axis=0)]),
                    np.concatenate([np.tile(shifts, (base.shape[0], 1)), np.tile(gen_stack, (count, 1))]),
                )
                rows, keys = space.checked_keys(products)
                absorb(rows[:split], keys[:split])
                probes = keys[split:].tolist()
                fresh = np.fromiter((k not in seen for k in probes), dtype=bool).nonzero()[0]
                if fresh.size:
                    next_rows.append(rows[split:][fresh])
                    next_keys.append(keys[split:][fresh])
            if not next_keys:
                break
            pending_rows, pending_keys = np.concatenate(next_rows), np.concatenate(next_keys)
    return np.concatenate(row_blocks), np.concatenate(key_blocks)


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

    The engine holds no element objects, only one kernel row per id.  On
    the exact box (radix product equal to the order, :class:`_RowKeys` path
    ``"coordinates"``) id ``i`` is the element whose row has mixed-radix key
    ``i``: the row table is decoded arithmetically, nothing is enumerated,
    and a kernel-computed row resolves to its id by the range check of
    :meth:`_RowKeys.checked_keys`.  Off the box the whole group is
    enumerated in row space, id ``i`` is row ``i`` of the enumeration
    (identity first) and rows resolve through the row index.  Either way
    products are computed array-at-a-time by the kernel, every inverse is
    filled at build, :meth:`element_of` and :meth:`elements_of` decode just
    the requested rows, and :meth:`intern` and :meth:`intern_many` encode
    their elements and resolve the rows (a foreign element raises
    :class:`GroupError`).
    """

    #: Every engine is id-native; the name stays for build reports.
    mode = "kernel"

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
        self._is_abelian: Optional[bool] = None
        self._commutator_ids: Optional[np.ndarray] = None
        self._subgroup_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        with obs_span("engine.build", group=group.name, mode=self.mode) as build_span:
            space = _RowKeys(self.kernel.radices, self.group_order, group.name)
            build_span.set(key_path=space.path)
            self._space = space
            identity_rows, identity_keys = space.checked_keys(
                self.kernel.encode_many([group.identity()])
            )
            self._identity_row, self._identity_key = identity_rows[0], identity_keys[0]
            gen_rows, _ = space.checked_keys(self.kernel.encode_many(group.generators()))
            self._row_index: Optional[_RowIndex] = None
            if space.path == "coordinates":
                # The box holds exactly |G| rows and the |G| elements encode
                # to distinct rows inside it, so every row in range is an
                # element and its key is its id.  The generators' cyclic
                # chains must still close: a kernel that is not a group
                # fails here instead of in some later product.
                _cyclic_chains(self.kernel, space, self._identity_row, self._identity_key, gen_rows)
                self._kernel_rows = space.box_rows()
            else:
                # Row-space enumeration by bulk kernel calls: the enumerated
                # rows are the id space, id ``i`` is row ``i`` (identity first).
                rows, keys = _kernel_enumerate_rows(
                    self.kernel, space, self._identity_row, self._identity_key, gen_rows
                )
                if rows.shape[0] != self.group_order:
                    raise GroupError(
                        f"kernel enumeration found {rows.shape[0]} elements "
                        f"of {group.name}, expected {self.group_order}"
                    )
                self._kernel_rows = rows
                self._row_index = _RowIndex(rows, keys, space)
            # Every inverse in one bulk kernel pass.
            self._inv_table = self._row_ids(self.kernel.inverse_many(self._kernel_rows))
            self.identity_id = self.intern(group.identity())
            build_span.add("interned", self.interned_count)

    # -- interning ------------------------------------------------------------
    def intern(self, element) -> int:
        """The id of ``element``: its coordinate key, or its enumeration row.

        The element is encoded and its row resolved; the id is memoized per
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
        """Ids of ``elements``: one bulk encode and row resolve."""
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
        return self.kernel.decode_many(self._kernel_rows[np.asarray(ids, dtype=np.int64)])

    @property
    def interned_count(self) -> int:
        """The number of ids: the group order."""
        return self._kernel_rows.shape[0]

    # -- bulk kernel primitives ------------------------------------------------
    def _row_ids(self, rows: np.ndarray) -> np.ndarray:
        """Ids of a block of kernel rows: their keys on the exact box, else a row-index lookup."""
        if self._row_index is None:
            return self._space.checked_keys(rows)[1]
        return self._row_index.lookup(rows)

    def _bulk_products(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Products of id arrays through the dense kernel (no scalar multiply)."""
        return self._row_ids(
            self.kernel.compose_many(self._kernel_rows[ids_a], self._kernel_rows[ids_b])
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
        return int(self._inv_table[int(a)])

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
        """Componentwise inverses of an id array."""
        return self._inv_table[np.asarray(ids, dtype=np.int64)]

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

    def subgroup_ids(
        self, generator_ids: Sequence[int], limit: Optional[int] = None, memoize: bool = True
    ) -> np.ndarray:
        """Ids of the subgroup generated by ``generator_ids``.

        Seeds every generator's cyclic subgroup with batched shift-doubling
        chains in row space (:func:`_cyclic_chains`, ``O(log max ord)``
        kernel calls per batch), then finishes with budgeted doubling and a
        linear generator-step tail.  ``memoize=False``
        skips the closure cache — use it for one-off generating sets (e.g.
        incremental re-closures seeded with a whole member set) whose keys
        would never be hit again.
        """
        gen_ids = np.unique(np.asarray(generator_ids, dtype=np.int64))
        if gen_ids.size == 0:
            return np.asarray([self.identity_id], dtype=np.int64)
        key = tuple(int(i) for i in gen_ids) if memoize else None
        if key is not None:
            cached = self._subgroup_cache.get(key)
            if cached is not None:
                if limit is not None and cached.size > limit:
                    raise GroupError(f"subgroup closure exceeded limit {limit}")
                return cached
        gens_ext = np.unique(np.concatenate([gen_ids, self.inv_many(gen_ids)]))
        member = np.zeros(self.interned_count, dtype=bool)
        member[self.identity_id] = True
        # Seed with the cyclic subgroup of every generator, so near-cyclic
        # subgroups — hidden rotation subgroups are the common case — close
        # in a couple of further levels instead of a quadratic cascade.
        # Chains run in batches, and a generator already inside an earlier
        # batch's chains is skipped: its cyclic group is inside them too.
        # Each ``<g>`` holds g and its inverse, so ``gens_ext`` ends up seeded.
        pending = gen_ids[~member[gen_ids]]
        while pending.size:
            batch = pending[:_CHAIN_BATCH]
            chains = _cyclic_chains(
                self.kernel,
                self._space,
                self._identity_row,
                self._identity_key,
                self._kernel_rows[batch],
            )
            member[self._row_ids(np.concatenate(chains))] = True
            if limit is not None and int(member.sum()) > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            pending = pending[_CHAIN_BATCH:]
            pending = pending[~member[pending]]
        current = np.flatnonzero(member).astype(np.int64)
        frontier = current
        # Doubling closes in O(log |H|) levels but its total pair count is
        # quadratic in |H|, so each level must fit a pair budget; past it
        # the closure switches to generator-step BFS, whose total pair
        # count is |H| * |gens_ext|.  The switch is complete: every member
        # outside the live frontier was already multiplied by all of
        # ``gens_ext`` (a subset of ``current`` since level 0).  Every pair is
        # recomputed through the batch kernel plus a row lookup, so the
        # budget is modest.
        while frontier.size and frontier.size * current.size * 2 <= _PAIR_BUDGET:
            # Both orders: a pair (a, b) with b discovered after a is covered
            # at b's level, where a is in `current` — a*b by the second block
            # and b*a by the first.
            left = self.mul_many(np.repeat(frontier, current.size), np.tile(current, frontier.size))
            right = self.mul_many(np.repeat(current, frontier.size), np.tile(frontier, current.size))
            products = np.unique(np.concatenate([left, right]))
            fresh = products[~member[products]]
            member[fresh] = True
            current = np.flatnonzero(member).astype(np.int64)
            if limit is not None and current.size > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            frontier = fresh
        while frontier.size:
            products = np.unique(
                self.mul_many(np.repeat(frontier, gens_ext.size), np.tile(gens_ext, frontier.size))
            )
            fresh = products[~member[products]]
            member[fresh] = True
            if limit is not None and int(member.sum()) > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
            frontier = fresh
        current = np.flatnonzero(member).astype(np.int64)
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
        generators until stable, entirely over id arrays.
        """
        if self._commutator_ids is not None:
            return self._commutator_ids
        gen_ids = self.intern_many(self.group.generators())
        commutators = []
        for i in range(gen_ids.size):
            for j in range(i + 1, gen_ids.size):
                a, b = int(gen_ids[i]), int(gen_ids[j])
                c = self.mul(self.mul(a, b), self.mul(self.inv(a), self.inv(b)))
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
            fresh = np.unique(conjugates[~member[conjugates]])
            if not fresh.size:
                break
            closure = self.subgroup_ids(np.concatenate([closure, fresh]), limit=limit)
        self._commutator_ids = closure
        return closure

    def commutator_subgroup_elements(self, limit: Optional[int] = None) -> List:
        return self.elements_of(self.commutator_subgroup_ids(limit=limit))

    def element_order(self, element_id: int) -> int:
        """Multiplicative order of an element id (memoized)."""
        element_id = int(element_id)
        cached = self._order_cache.get(element_id)
        if cached is not None:
            return cached
        bound = self.group.exponent_bound()
        if bound is not None:
            # Divide primes out of the exponent bound instead of walking the
            # powers (O(log) muls).
            from repro.linalg.modular import element_order_from_exponent

            order = element_order_from_exponent(
                lambda k: self.power(element_id, k),
                lambda i: int(i) == self.identity_id,
                bound,
            )
            self._order_cache[element_id] = order
            return order
        order = 1
        current = element_id
        while current != self.identity_id:
            current = self.mul(current, element_id)
            order += 1
            if order > self.group_order:
                raise GroupError("element order exceeds enumeration limit")
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
            "cached_inverses": self._inv_table.size,
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
