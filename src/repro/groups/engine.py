"""Vectorized Cayley-table group engine.

The paper states its complexity bounds in oracle queries, but the wall-clock
cost of the *simulation* is dominated by per-element Python group arithmetic
in the Fourier-sampling and coset-enumeration hot paths.  This module provides
a :class:`CayleyBackend` that

* names group elements by dense integer ids (a bijection between the
  elements touched so far and ``0..n-1``),
* memoizes products and inverses in a lazily filled NumPy Cayley table when
  the group is small enough (``order <= table_limit``); larger groups with a
  dense kernel are *id-native* (``mode == "kernel"``): ids are the indices
  of the enumerated kernel rows, products are computed row-at-a-time by the
  kernel and resolved back to ids through an integer-keyed row index, and
  elements are decoded only on demand at the API edges; other groups fall
  back to a sparse pair-cache,
* exposes batch operations — :meth:`mul_many`, :meth:`inv_many`,
  :meth:`conj_many`, :meth:`orbit_closure` — that amortise Python dispatch
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
``None`` for groups without a usable dense encoding (unknown or huge order),
which keeps the per-element code path as the fallback.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.groups.base import FiniteGroup, GroupError
from repro.obs import metrics as obs_metrics
from repro.obs import span as obs_span

__all__ = [
    "CayleyBackend",
    "get_engine",
    "maybe_engine",
    "engine_disabled",
    "kernel_disabled",
]

#: Largest group order for which the dense (lazily filled) Cayley table is used.
DEFAULT_TABLE_LIMIT = 4096

#: Largest group order for which :func:`maybe_engine` engages at all; beyond
#: this the sparse pair-cache would still be correct but interning whole
#: orbits may not fit comfortably in memory.
DEFAULT_INTERN_LIMIT = 1 << 16

#: Safety cap for element-order iteration in sparse mode.
_ORDER_ITERATION_LIMIT = 10**7


class _RowIndex:
    """Row -> id lookup over an ``(n, w)`` int64 row matrix.

    Each row is keyed by one int64 mixed-radix value over the per-column
    ranges ``[min, max]`` of the indexed rows (the last column least
    significant), so a whole block of kernel-computed product rows resolves
    to ids with one integer lookup: a direct-address table when the key
    range is at most ``4 n`` — true of the dihedral, metacyclic and
    Heisenberg row spaces — and a ``searchsorted`` over the sorted keys
    otherwise.  Rows whose range product overflows int64 (e.g. permutations
    of degree >= 16) are keyed as opaque byte strings through a void view
    instead.  A query row outside the indexed ranges can alias the key of an
    indexed row, so every lookup ends with a full row-equality check: unknown
    rows (a kernel bug, or a foreign element) raise :class:`GroupError`.
    """

    #: Largest ``key range / n`` ratio served by the direct-address table.
    DIRECT_SLACK = 4

    def __init__(self, rows: np.ndarray):
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        self._rows = rows
        self._lo = rows.min(axis=0)
        strides = []
        span = 1
        for width in reversed((rows.max(axis=0) - self._lo + 1).tolist()):
            strides.append(span)
            span *= width
        self._strides: Optional[np.ndarray] = None
        self._direct: Optional[np.ndarray] = None
        if span <= np.iinfo(np.int64).max:
            self._strides = np.asarray(strides[::-1], dtype=np.int64)
        else:
            self._void = np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
        keys = self._keys(rows)
        n = rows.shape[0]
        if self._strides is not None and span <= self.DIRECT_SLACK * n:
            self._direct = np.zeros(span, dtype=np.int64)
            self._direct[keys] = np.arange(n, dtype=np.int64)
        else:
            self._order = np.argsort(keys)
            self._sorted = keys[self._order]

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        if self._strides is None:
            return rows.view(self._void).ravel()
        return (rows - self._lo) @ self._strides

    def lookup(self, query: np.ndarray) -> np.ndarray:
        query = np.ascontiguousarray(query, dtype=np.int64)
        if query.ndim != 2 or query.shape[1] != self._rows.shape[1]:
            raise GroupError(f"row block of shape {query.shape} does not match the enumerated rows")
        if query.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        keys = self._keys(query)
        if self._direct is not None:
            # Out-of-range keys clip to an end slot; the equality check
            # rejects them like any other aliased key.
            ids = self._direct.take(keys, mode="clip")
        else:
            pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
            ids = self._order[pos]
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


def _row_keys(rows: np.ndarray) -> List[bytes]:
    """Hashable per-row keys of a contiguous int64 row block."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    stride = rows.shape[1] * rows.dtype.itemsize
    data = rows.tobytes()
    return [data[i * stride : (i + 1) * stride] for i in range(rows.shape[0])]


def _row_chain(kernel, identity_row: np.ndarray, gen_row: np.ndarray) -> np.ndarray:
    """Rows of the cyclic group ``<g>`` by shift doubling on kernel rows.

    Same invariant as :meth:`CayleyBackend._cyclic_power_ids` — ``powers =
    [g^0 .. g^{k-1}]`` with ``pivot = g^k`` — but over raw kernel rows, for
    use before any id assignment exists.  ``O(log ord g)`` kernel calls.
    """
    if bytes(np.ascontiguousarray(gen_row, dtype=np.int64).tobytes()) == bytes(
        np.ascontiguousarray(identity_row, dtype=np.int64).tobytes()
    ):
        return np.ascontiguousarray(identity_row, dtype=np.int64)[None, :]
    powers = np.ascontiguousarray(np.stack([identity_row, gen_row]), dtype=np.int64)
    seen = set(_row_keys(powers))
    pivot = kernel.compose_many(gen_row[None, :], gen_row[None, :])[0]
    while True:
        block = np.ascontiguousarray(
            kernel.compose_many(powers, np.tile(pivot, (powers.shape[0], 1))),
            dtype=np.int64,
        )
        keys = _row_keys(block)
        cut = next((i for i, k in enumerate(keys) if k in seen), None)
        if cut is not None:
            return np.concatenate([powers, block[:cut]])
        seen.update(keys)
        powers = np.concatenate([powers, block])
        pivot = kernel.compose_many(pivot[None, :], pivot[None, :])[0]


def _kernel_enumerate_rows(kernel, identity_row: np.ndarray, gen_rows: np.ndarray) -> np.ndarray:
    """Enumerate the group generated by ``gen_rows`` entirely in row space.

    Dimino-style closure: the first generator's cyclic chain is built by
    shift doubling, and every further generator extends the current
    subgroup ``K`` coset by coset — each new representative ``r``
    contributes the whole block ``K @ powers(r)`` in bulk kernel calls, and
    representatives are probed breadth-first with every generator processed
    so far.  No scalar ``multiply`` is ever called; the output order is
    deterministic (identity first), which fixes the dense id assignment.
    """
    blocks: List[np.ndarray] = []
    seen: set = set()

    def absorb(rows: np.ndarray) -> None:
        fresh_idx = []
        for i, row_key in enumerate(_row_keys(rows)):
            if row_key not in seen:
                seen.add(row_key)
                fresh_idx.append(i)
        if fresh_idx:
            blocks.append(np.ascontiguousarray(rows[np.asarray(fresh_idx)], dtype=np.int64))

    identity_row = np.ascontiguousarray(identity_row, dtype=np.int64)
    absorb(identity_row[None, :])
    processed: List[np.ndarray] = []
    for g_idx in range(gen_rows.shape[0]):
        gen_row = np.ascontiguousarray(gen_rows[g_idx], dtype=np.int64)
        processed.append(gen_row)
        if _row_keys(gen_row[None, :])[0] in seen:
            continue
        base = np.concatenate(blocks)
        pending: List[np.ndarray] = [gen_row]
        while pending:
            rep = pending.pop(0)
            if _row_keys(rep[None, :])[0] in seen:
                continue
            # powers = [e, r, r^2, ...]: the whole stack of cosets
            # K r^j lands in one bulk call, and every power is probed with
            # every processed generator so no coset of the closure is missed.
            shifts = _row_chain(kernel, identity_row, rep)[1:]
            coset = kernel.compose_many(
                np.repeat(base, shifts.shape[0], axis=0),
                np.tile(shifts, (base.shape[0], 1)),
            )
            absorb(np.asarray(coset))
            gen_stack = np.stack(processed)
            probes = np.asarray(
                kernel.compose_many(
                    np.repeat(shifts, gen_stack.shape[0], axis=0),
                    np.tile(gen_stack, (shifts.shape[0], 1)),
                )
            )
            fresh = [i for i, k in enumerate(_row_keys(probes)) if k not in seen]
            pending.extend(np.ascontiguousarray(probes[i], dtype=np.int64) for i in fresh)
    return np.concatenate(blocks)


class CayleyBackend:
    """Dense-id engine over a :class:`~repro.groups.base.FiniteGroup`.

    Parameters
    ----------
    group:
        The wrapped group.  Elements must be hashable (they are, for every
        concrete group in this reproduction).
    table_limit:
        Orders up to this use ``mode == "table"`` (a lazily filled dense
        NumPy Cayley table over the *full* element list); larger groups use
        ``mode == "kernel"`` when the group exposes a
        :class:`~repro.groups.base.DenseKernel` and ``kernel_limit`` allows
        it, and ``mode == "sparse"`` (per-pair memoisation, on-demand
        interning) otherwise.
    kernel_limit:
        Opt-in ceiling for ``mode == "kernel"``: orders in
        ``(table_limit, kernel_limit]`` with a dense kernel enumerate the
        whole group in row space but skip the ``n^2`` table — products and
        inverses are computed array-at-a-time by the kernel and resolved
        back to ids via the row index.  ``None`` (the default for direct
        construction) disables the mode; :func:`maybe_engine` passes its
        ``intern_limit``.

    In kernel mode the engine holds no element objects: id ``i`` is row
    ``i`` of the enumeration (identity first), :meth:`element_of` and
    :meth:`elements_of` decode just the requested rows, and :meth:`intern`
    and :meth:`intern_many` encode their elements and look the rows up (a
    foreign element raises :class:`GroupError`).  Table and sparse modes
    keep an element list and an element -> id dict.
    """

    def __init__(
        self,
        group: FiniteGroup,
        table_limit: int = DEFAULT_TABLE_LIMIT,
        kernel_limit: Optional[int] = None,
    ):
        self.group = group
        self.table_limit = table_limit
        self._elements: List = []
        self._ids: Dict = {}
        self._mul_cache: Dict[Tuple[int, int], int] = {}
        self._inv_cache: Dict[int, int] = {}
        self._order_cache: Dict[int, int] = {}
        self._table: Optional[np.ndarray] = None
        self._inv_table: Optional[np.ndarray] = None
        self._is_abelian: Optional[bool] = None
        self._commutator_ids: Optional[np.ndarray] = None
        self._subgroup_cache: Dict[Tuple[int, ...], np.ndarray] = {}
        self.full_enumeration = False
        self._kernel_rows: Optional[np.ndarray] = None
        self._row_index: Optional[_RowIndex] = None
        kernel = None
        if not _KERNEL_DISABLED:
            factory = getattr(group, "dense_kernel", None)
            kernel = factory() if factory is not None else None
        self.kernel = kernel
        order = _cheap_order(group)
        self.group_order = order
        if order is not None and order <= table_limit:
            self.mode = "table"
        elif (
            kernel is not None
            and kernel_limit is not None
            and order is not None
            and order <= kernel_limit
        ):
            self.mode = "kernel"
        else:
            self.mode = "sparse"
        with obs_span("engine.build", group=group.name, mode=self.mode) as build_span:
            if self.mode == "kernel":
                # Row-space enumeration: the scalar element_list() BFS is the
                # dominant cold cost past the table limit, so kernel mode
                # enumerates by bulk kernel calls instead, and the enumerated
                # rows *are* the id space — id ``i`` is row ``i`` (identity
                # first); elements are decoded only when asked for.
                rows = _kernel_enumerate_rows(
                    self.kernel,
                    np.asarray(self.kernel.encode_many([group.identity()]))[0],
                    np.asarray(self.kernel.encode_many(group.generators())),
                )
                if order is not None and rows.shape[0] != order:
                    raise GroupError(
                        f"kernel enumeration found {rows.shape[0]} elements "
                        f"of {group.name}, expected {order}"
                    )
                self._kernel_rows = rows
                self._row_index = _RowIndex(rows)
                self.full_enumeration = True
                # One bulk kernel pass replaces n lazy scalar fills.
                self._inv_table = self._bulk_inverses(np.arange(rows.shape[0], dtype=np.int64))
            elif self.mode == "table":
                # Table mode keeps element_list() order: its ids are shared
                # with scalar paths.
                for element in group.element_list():
                    self.intern(element)
                n = len(self._elements)
                self.full_enumeration = True
                self._table = np.full((n, n), -1, dtype=np.int32)
                self._inv_table = np.full(n, -1, dtype=np.int32)
                if self.kernel is not None:
                    self._kernel_rows = np.ascontiguousarray(
                        self.kernel.encode_many(self._elements), dtype=np.int64
                    )
                    self._row_index = _RowIndex(self._kernel_rows)
            self.identity_id = self.intern(group.identity())
            build_span.add("interned", self.interned_count)

    # -- interning ------------------------------------------------------------
    def intern(self, element) -> int:
        """The dense id of ``element`` (allocating one on first sight).

        Kernel mode encodes the element and resolves its row; the id is
        memoized per element, so repeated scalar queries stay dict lookups.
        """
        found = self._ids.get(element)
        if found is not None:
            return found
        if self.mode == "kernel":
            found = int(self._lookup_elements([element])[0])
            self._ids[element] = found
            return found
        if self.full_enumeration:
            raise GroupError(
                f"element {element!r} is not in the enumerated group {self.group.name}"
            )
        new_id = len(self._elements)
        self._ids[element] = new_id
        self._elements.append(element)
        return new_id

    def intern_many(self, elements: Iterable) -> np.ndarray:
        if isinstance(elements, np.ndarray):
            # Already an id array: the id-native fast path is a no-op.
            if elements.dtype == np.int64:
                return elements
            if np.issubdtype(elements.dtype, np.integer):
                return elements.astype(np.int64)
        size = len(elements) if hasattr(elements, "__len__") else None
        if size == 0:
            return np.empty(0, dtype=np.int64)
        if self.mode == "kernel":
            return self._lookup_elements(list(elements))
        if size is not None:
            return np.fromiter(
                (self.intern(e) for e in elements), dtype=np.int64, count=size
            )
        return np.asarray([self.intern(e) for e in elements], dtype=np.int64)

    def _lookup_elements(self, elements: List) -> np.ndarray:
        """Kernel-mode ids of ``elements``: one bulk encode and row lookup."""
        try:
            return self._row_index.lookup(
                np.asarray(self.kernel.encode_many(elements), dtype=np.int64)
            )
        except (GroupError, TypeError, ValueError, IndexError, OverflowError) as exc:
            raise GroupError(f"element not in the enumerated group {self.group.name}") from exc

    def element_of(self, element_id: int):
        if self.mode == "kernel":
            i = int(element_id)
            return self.kernel.decode_many(self._kernel_rows[i : i + 1])[0]
        return self._elements[int(element_id)]

    def elements_of(self, ids: Iterable) -> List:
        if self.mode == "kernel":
            if not isinstance(ids, np.ndarray):
                ids = list(ids)
            return self.kernel.decode_many(self._kernel_rows[np.asarray(ids, dtype=np.int64)])
        return [self._elements[int(i)] for i in ids]

    @property
    def interned_count(self) -> int:
        if self.mode == "kernel":
            return self._kernel_rows.shape[0]
        return len(self._elements)

    # -- bulk kernel primitives ------------------------------------------------
    def _bulk_products(self, ids_a: np.ndarray, ids_b: np.ndarray) -> np.ndarray:
        """Products of id arrays through the dense kernel (no scalar multiply)."""
        start = time.perf_counter() if obs_metrics.collecting() else None
        rows = self.kernel.compose_many(self._kernel_rows[ids_a], self._kernel_rows[ids_b])
        ids = self._row_index.lookup(rows)
        if start is not None:
            obs_metrics.observe("engine.bulk.mul", time.perf_counter() - start)
        return ids

    def _bulk_inverses(self, ids: np.ndarray) -> np.ndarray:
        start = time.perf_counter() if obs_metrics.collecting() else None
        out = self._row_index.lookup(self.kernel.inverse_many(self._kernel_rows[ids]))
        if start is not None:
            obs_metrics.observe("engine.bulk.inv", time.perf_counter() - start)
        return out

    # -- scalar primitives ----------------------------------------------------
    def _fill_product(self, a: int, b: int) -> int:
        """Compute one uncached product; the miss path, timed when observed."""
        start = time.perf_counter() if obs_metrics.collecting() else None
        if self._kernel_rows is not None:
            value = int(
                self._bulk_products(
                    np.asarray([a], dtype=np.int64), np.asarray([b], dtype=np.int64)
                )[0]
            )
        else:
            value = self.intern(self.group.multiply(self._elements[a], self._elements[b]))
        if start is not None:
            obs_metrics.observe("engine.fill.mul", time.perf_counter() - start)
        return value

    def _fill_inverse(self, a: int) -> int:
        start = time.perf_counter() if obs_metrics.collecting() else None
        if self._kernel_rows is not None:
            value = int(self._bulk_inverses(np.asarray([a], dtype=np.int64))[0])
        else:
            value = self.intern(self.group.inverse(self._elements[a]))
        if start is not None:
            obs_metrics.observe("engine.fill.inv", time.perf_counter() - start)
        return value

    def mul(self, a: int, b: int) -> int:
        """Product of two interned elements, memoized."""
        a = int(a)
        b = int(b)
        if self._table is not None:
            value = int(self._table[a, b])
            if value < 0:
                value = self._fill_product(a, b)
                self._table[a, b] = value
            return value
        key = (a, b)
        value = self._mul_cache.get(key)
        if value is None:
            value = self._fill_product(a, b)
            self._mul_cache[key] = value
        return value

    def inv(self, a: int) -> int:
        a = int(a)
        if self._inv_table is not None:
            value = int(self._inv_table[a])
            if value < 0:
                value = self._fill_inverse(a)
                self._inv_table[a] = value
            return value
        value = self._inv_cache.get(a)
        if value is None:
            value = self._fill_inverse(a)
            self._inv_cache[a] = value
        return value

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
        if self._table is not None:
            out = self._table[ids_a, ids_b].astype(np.int64)
            missing = np.flatnonzero(out < 0)
            if missing.size:
                if self._kernel_rows is not None:
                    # Bulk fill: one kernel call computes every missing
                    # product and writes it back into the lazy table.
                    filled = self._bulk_products(ids_a[missing], ids_b[missing])
                    out[missing] = filled
                    self._table[ids_a[missing], ids_b[missing]] = filled
                else:
                    for idx in missing:
                        out[idx] = self.mul(int(ids_a[idx]), int(ids_b[idx]))
            return out
        if self.mode == "kernel":
            if ids_a.size == 0:
                return np.empty(0, dtype=np.int64)
            if ids_a.size > 8:
                return self._bulk_products(ids_a, ids_b)
            # Tiny batches (deep BFS levels degenerate to a few pairs) are
            # overhead-bound in the kernel: the memoized scalar path wins.
        return np.fromiter(
            (self.mul(a, b) for a, b in zip(ids_a, ids_b)), dtype=np.int64, count=len(ids_a)
        )

    def inv_many(self, ids: Sequence[int]) -> np.ndarray:
        """Componentwise inverses of an id array."""
        ids = np.asarray(ids, dtype=np.int64)
        if self._inv_table is not None:
            out = self._inv_table[ids].astype(np.int64)
            missing = np.flatnonzero(out < 0)
            if missing.size:
                if self._kernel_rows is not None:
                    filled = self._bulk_inverses(ids[missing])
                    out[missing] = filled
                    self._inv_table[ids[missing]] = filled
                else:
                    for idx in missing:
                        out[idx] = self.inv(int(ids[idx]))
            return out
        return np.fromiter((self.inv(a) for a in ids), dtype=np.int64, count=len(ids))

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
        if self.full_enumeration:
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
        seen = set(int(i) for i in seed)
        frontier = seed
        while frontier.size and gen_ids.size:
            products = self.mul_many(np.repeat(frontier, gen_ids.size), np.tile(gen_ids, frontier.size))
            fresh = [int(p) for p in np.unique(products) if int(p) not in seen]
            seen.update(fresh)
            if limit is not None and len(seen) > limit:
                raise GroupError(f"orbit closure exceeded limit {limit}")
            frontier = np.asarray(fresh, dtype=np.int64)
        return np.asarray(sorted(seen), dtype=np.int64)

    def _cyclic_power_ids(self, gen_id: int) -> np.ndarray:
        """Ids of the cyclic subgroup ``<g>`` by shift doubling.

        Maintains the invariant ``powers = [g^0, ..., g^{k-1}]`` with
        ``pivot = g^k``; each level appends ``powers * pivot`` (the next
        ``k`` powers in one bulk product) and squares the pivot, so the
        whole chain costs ``O(log ord g)`` vectorised calls.  The first
        already-seen entry of a block is ``g^ord``, which truncates the
        final block exactly.
        """
        if gen_id == self.identity_id:
            return np.asarray([self.identity_id], dtype=np.int64)
        powers = np.asarray([self.identity_id, gen_id], dtype=np.int64)
        seen = np.zeros(self.interned_count, dtype=bool)
        seen[powers] = True
        pivot = int(self.mul_many([gen_id], [gen_id])[0])
        while True:
            block = self.mul_many(powers, np.full(powers.size, pivot, dtype=np.int64))
            dup = seen[block]
            if dup.any():
                cut = int(np.argmax(dup))
                return np.concatenate([powers, block[:cut]])
            seen[block] = True
            powers = np.concatenate([powers, block])
            pivot = int(self.mul_many([pivot], [pivot])[0])

    def subgroup_ids(
        self, generator_ids: Sequence[int], limit: Optional[int] = None, memoize: bool = True
    ) -> np.ndarray:
        """Ids of the subgroup generated by ``generator_ids``.

        With a batch kernel the closure seeds each generator's cyclic
        subgroup by shift doubling (``O(log ord)`` bulk products apiece),
        then finishes with budgeted doubling and a linear generator-step
        tail; without one it keeps the pre-kernel quadratic doubling, whose
        pair products double as lazy table fills.  Sparse mode falls back
        to the generator-step orbit closure.  ``memoize=False`` skips the
        closure cache — use it for one-off generating sets (e.g.
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
        if not self.full_enumeration:
            closure = self.orbit_closure([self.identity_id], gen_ids, limit=limit)
            if key is not None:
                self._subgroup_cache[key] = closure
            return closure
        if self._kernel_rows is None:
            # Pre-kernel closure, kept byte-for-byte for engines without a
            # batch kernel (including everything built under
            # ``kernel_disabled()``): plain quadratic doubling, whose pair
            # products double as lazy table fills.  ``bench_scaling``
            # baselines rely on this branch reproducing the pre-refactor
            # engine path exactly.
            current = np.unique(
                np.concatenate([gen_ids, self.inv_many(gen_ids), [self.identity_id]])
            )
            member = np.zeros(self.interned_count, dtype=bool)
            member[current] = True
            frontier = current
            while frontier.size:
                # Both orders: a pair (a, b) with b discovered after a is
                # covered at b's level, where a is in `current` — a*b by the
                # second block and b*a by the first.
                left = self.mul_many(
                    np.repeat(frontier, current.size), np.tile(current, frontier.size)
                )
                right = self.mul_many(
                    np.repeat(current, frontier.size), np.tile(frontier, current.size)
                )
                products = np.unique(np.concatenate([left, right]))
                fresh = products[~member[products]]
                member[fresh] = True
                current = np.flatnonzero(member).astype(np.int64)
                if limit is not None and current.size > limit:
                    raise GroupError(f"subgroup closure exceeded limit {limit}")
                frontier = fresh
            if key is not None:
                self._subgroup_cache[key] = current
            return current
        gens_ext = np.unique(np.concatenate([gen_ids, self.inv_many(gen_ids)]))
        member = np.zeros(self.interned_count, dtype=bool)
        member[gens_ext] = True
        member[self.identity_id] = True
        # Seed with the cyclic subgroup of every generator: shift doubling
        # delivers each ``<g>`` in O(log ord g) bulk products, so near-cyclic
        # subgroups — hidden rotation subgroups are the common case — close
        # in a couple of further levels instead of a quadratic cascade.
        for gen in gen_ids:
            member[self._cyclic_power_ids(int(gen))] = True
            if limit is not None and int(member.sum()) > limit:
                raise GroupError(f"subgroup closure exceeded limit {limit}")
        current = np.flatnonzero(member).astype(np.int64)
        frontier = current
        # Doubling closes in O(log |H|) levels but its total pair count is
        # quadratic in |H|, so each level must fit a pair budget; past it
        # the closure switches to generator-step BFS, whose total pair
        # count is |H| * |gens_ext|.  The switch is complete: every member
        # outside the live frontier was already multiplied by all of
        # ``gens_ext`` (a subset of ``current`` since level 0).  Table mode
        # memoizes pairs in the int32 table so its budget is generous;
        # kernel mode recomputes every pair through the batch kernel plus a
        # row search and leans on the linear tail much sooner.
        pair_budget = (1 << 22) if self.mode == "table" else (1 << 17)
        while frontier.size and frontier.size * current.size * 2 <= pair_budget:
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
        while True:
            members = set(int(i) for i in closure)
            pairs_g = np.repeat(gen_ids, closure.size)
            pairs_h = np.tile(closure, gen_ids.size)
            conjugates = self.conj_many(pairs_g, pairs_h)
            fresh = [int(c) for c in np.unique(conjugates) if int(c) not in members]
            if not fresh:
                break
            closure = self.subgroup_ids(
                np.concatenate([closure, np.asarray(fresh, dtype=np.int64)]), limit=limit
            )
        self._commutator_ids = closure
        return closure

    def commutator_subgroup_elements(self, limit: Optional[int] = None) -> List:
        return self.elements_of(self.commutator_subgroup_ids(limit=limit))

    def element_order(self, element_id: int) -> int:
        """Multiplicative order of an interned element (memoized)."""
        element_id = int(element_id)
        cached = self._order_cache.get(element_id)
        if cached is not None:
            return cached
        bound = self.group.exponent_bound() if self.mode == "kernel" else None
        if bound is not None:
            # Kernel mode has no n^2 table to amortise a linear walk into;
            # divide primes out of the exponent bound instead (O(log) muls).
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
        cap = self.group_order if self.group_order is not None else _ORDER_ITERATION_LIMIT
        while current != self.identity_id:
            current = self.mul(current, element_id)
            order += 1
            if order > cap:
                raise GroupError("element order exceeds enumeration limit")
        self._order_cache[element_id] = order
        return order

    def orders_many(self, ids: Sequence[int]) -> np.ndarray:
        return np.fromiter((self.element_order(i) for i in ids), dtype=np.int64)

    # -- coset helpers -----------------------------------------------------------
    def coset_label(self, element_id: int, subgroup_ids: np.ndarray) -> int:
        """A canonical label of the left coset ``g H``: the minimum id in it.

        Constant exactly on left cosets of the subgroup, so it is a valid
        hiding-function value; computing it is one batched row of products.
        """
        element_id = int(element_id)
        subgroup_ids = np.asarray(subgroup_ids, dtype=np.int64)
        if self._table is not None:
            row = self._table[element_id, subgroup_ids]
            missing = np.flatnonzero(row < 0)
            if missing.size:
                if self._kernel_rows is not None:
                    filled = self._bulk_products(
                        np.full(missing.size, element_id, dtype=np.int64),
                        subgroup_ids[missing],
                    )
                    row[missing] = filled
                    self._table[element_id, subgroup_ids[missing]] = filled
                else:
                    for idx in missing:
                        row[idx] = self.mul(element_id, int(subgroup_ids[idx]))
            return int(row.min())
        if self.mode == "kernel":
            return int(
                self._bulk_products(
                    np.full(subgroup_ids.size, element_id, dtype=np.int64), subgroup_ids
                ).min()
            )
        return min(self.mul(element_id, int(b)) for b in subgroup_ids)

    def coset_label_many(self, element_ids: Sequence[int], subgroup_ids: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`coset_label` over a whole block of elements.

        One products block of shape ``(len(element_ids), len(subgroup_ids))``
        followed by a row-wise minimum; callers chunk when the block would be
        large.  Labels are identical to the scalar :meth:`coset_label` calls.
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
        if self._table is not None:
            filled = int((self._table >= 0).sum())
        else:
            filled = len(self._mul_cache)
        return {
            "interned": self.interned_count,
            "cached_products": filled,
            "cached_inverses": (
                int((self._inv_table >= 0).sum()) if self._inv_table is not None else len(self._inv_cache)
            ),
            "table_mode": int(self.mode == "table"),
            "kernel_mode": int(self.mode == "kernel"),
            "has_kernel": int(self.kernel is not None),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CayleyBackend {self.group.name} mode={self.mode} interned={self.interned_count}>"


def get_engine(
    group: FiniteGroup,
    table_limit: int = DEFAULT_TABLE_LIMIT,
    kernel_limit: Optional[int] = None,
) -> CayleyBackend:
    """The engine installed on ``group``, building (and installing) one if absent.

    Installation makes the group's default ``multiply_many``/``inverse_many``
    batch methods engine-accelerated (see :class:`~repro.groups.base.FiniteGroup`).
    """
    engine = getattr(group, "_cayley_engine", None)
    if engine is None:
        engine = CayleyBackend(group, table_limit=table_limit, kernel_limit=kernel_limit)
        group._cayley_engine = engine
    return engine


#: When true, :func:`maybe_engine` declines to build or return engines; set
#: through :func:`engine_disabled` to force the scalar per-element paths.
_ENGINE_DISABLED = False

#: When true, newly built engines ignore dense kernels entirely — table
#: fills revert to per-pair scalar ``multiply`` and the ``"kernel"`` mode is
#: unavailable.  Set through :func:`kernel_disabled`; this reproduces the
#: pre-kernel engine exactly and is the baseline configuration of the
#: scaling benchmark.
_KERNEL_DISABLED = False


@contextmanager
def kernel_disabled():
    """Context manager forcing engines built inside it onto scalar fills.

    Unlike :func:`engine_disabled` the Cayley engine itself stays on — ids,
    lazy tables and memoisation all work as before the dense kernels existed
    — but no :class:`~repro.groups.base.DenseKernel` is consulted, so every
    table fill goes through the group's scalar ``multiply``/``inverse``.
    Query accounting is unaffected (the engine never counts).  Engines
    *already installed* on a group keep their kernels; the context only
    affects constructions inside it.
    """
    global _KERNEL_DISABLED
    previous = _KERNEL_DISABLED
    _KERNEL_DISABLED = True
    try:
        yield
    finally:
        _KERNEL_DISABLED = previous


@contextmanager
def engine_disabled():
    """Context manager forcing the engine-less scalar configuration.

    While active, :func:`maybe_engine` returns ``None`` everywhere — instance
    construction falls back to min-encoding coset labels and the solvers'
    batch APIs run as plain scalar loops.  This is how the experiment
    harness realises its pre-engine baseline configuration without threading
    a flag through every construction site.  Query accounting is unaffected.
    """
    global _ENGINE_DISABLED
    previous = _ENGINE_DISABLED
    _ENGINE_DISABLED = True
    try:
        yield
    finally:
        _ENGINE_DISABLED = previous


def maybe_engine(
    group: FiniteGroup,
    table_limit: int = DEFAULT_TABLE_LIMIT,
    intern_limit: int = DEFAULT_INTERN_LIMIT,
) -> Optional[CayleyBackend]:
    """A guarded :func:`get_engine`: ``None`` when no usable encoding exists.

    The engine engages only when the group order is known without a fresh
    full enumeration (a concrete ``order()`` override or an already-cached
    element list) and fits under ``intern_limit``, and when elements are
    hashable.  Counted black-box wrappers are unwrapped so that the engine
    memoizes the *uncounted* arithmetic — the wrapper keeps doing the (bulk)
    accounting.
    """
    if _ENGINE_DISABLED:
        return None
    inner = getattr(group, "group", None)
    if isinstance(inner, FiniteGroup):
        group = inner
    existing = getattr(group, "_cayley_engine", None)
    if existing is not None:
        return existing
    order = _cheap_order(group)
    if order is None or order > intern_limit:
        return None
    try:
        hash(group.identity())
    except TypeError:
        return None
    return get_engine(group, table_limit=table_limit, kernel_limit=intern_limit)
