"""Fourier sampling for the Abelian hidden subgroup problem.

The standard quantum algorithm for the Abelian HSP (Theorem 3 of the paper,
and Lemma 9 for quantum-state-valued oracles) repeats the following round:

1. prepare a uniform superposition over the Abelian group ``A``,
2. evaluate the hiding function into a second register,
3. apply the QFT over ``A`` to the first register,
4. measure — the outcome is a uniformly random element of ``H^perp``.

This module implements that round against an :class:`AbelianHSPOracle` with
two interchangeable backends:

``statevector``
    the honest simulation: evaluate the oracle over the whole domain, form
    the post-measurement coset state, Fourier transform it with a
    mixed-radix FFT and sample from the exact distribution.  Exponential in
    ``log |A|``; used for small domains and as ground truth.

``analytic``
    the polynomial-time stand-in for quantum hardware: the oracle's declared
    (or cached) coset structure gives ``H``; the sampler draws uniformly from
    ``H^perp`` directly.  The distribution is identical to the statevector
    backend by the standard analysis, which the test-suite checks
    statistically.

Query accounting: each sampling round counts as **one** quantum query to the
hiding oracle regardless of backend, matching how the paper counts oracle
uses.
"""

from __future__ import annotations

import abc
import itertools
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.oracle import QueryCounter
from repro.linalg.zmodule import (
    CosetReducer,
    ZModule,
    annihilator,
    canonical_generators,
    cyclic_decomposition,
)
from repro.obs import span as obs_span
from repro.quantum.qft import qft_probabilities_of_coset

__all__ = [
    "AbelianHSPOracle",
    "TupleFunctionOracle",
    "SubgroupStructureOracle",
    "FourierSampler",
]

Vector = Tuple[int, ...]


class AbelianHSPOracle(abc.ABC):
    """An Abelian HSP instance over ``Z_{s1} x ... x Z_{sr}``.

    Concrete oracles provide ``evaluate`` (the hiding function) and
    ``kernel_generators`` (the coset structure used by the analytic backend
    and by verification).  ``kernel_generators`` is *simulation-side*
    information: solver logic only consumes the samples produced by
    :class:`FourierSampler`.
    """

    def __init__(self, moduli: Sequence[int], counter: Optional[QueryCounter] = None, description: str = "oracle"):
        self.module = ZModule(moduli)
        self.moduli = self.module.moduli
        self.counter = counter if counter is not None else QueryCounter()
        self.description = description

    @abc.abstractmethod
    def evaluate(self, element: Vector):
        """The hiding function value on ``element`` (hashable)."""

    def evaluate_many(self, elements: Sequence[Vector]) -> List:
        """Batch evaluation; same values as the scalar loop.

        Subclasses with a vectorisable labelling override this (the
        statevector backend's domain scan calls it once per oracle).
        """
        return [self.evaluate(x) for x in elements]

    @abc.abstractmethod
    def kernel_generators(self) -> List[Vector]:
        """Generators of the hidden subgroup (declared or computed once)."""

    def domain_size(self) -> int:
        return self.module.order

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.description}, moduli={self.moduli})"


class TupleFunctionOracle(AbelianHSPOracle):
    """An Abelian HSP oracle defined by an arbitrary labelling function.

    If the hidden subgroup is not declared at construction time it is
    computed (once, lazily) by enumerating the domain and collecting the
    coset of the identity — the same work the statevector backend performs.
    ``max_enumeration`` bounds that cost; larger domains must declare their
    kernel.

    ``label_many`` is an optional batched twin of ``func`` (a list of reduced
    points in, one label per point out, same values); :meth:`evaluate_many`
    hands it all uncached points at once, which is how the domain scans
    above run.  Without it the scan calls ``func`` point by point.  The
    engine-backed twins are ``_bulk_power_product_labeller`` (the exponent
    maps of :mod:`repro.hsp.oracles`) and ``_bulk_embed_labeller`` (the
    Theorem 13 oracles of :mod:`repro.core.elementary_abelian_two`).
    """

    def __init__(
        self,
        moduli: Sequence[int],
        func: Callable[[Vector], object],
        declared_kernel: Optional[Sequence[Vector]] = None,
        counter: Optional[QueryCounter] = None,
        description: str = "function oracle",
        max_enumeration: int = 1 << 18,
        label_many: Optional[Callable[[List[Vector]], Sequence]] = None,
    ):
        super().__init__(moduli, counter, description)
        self._func = func
        self._func_many = label_many
        self._declared = [self.module.reduce(g) for g in declared_kernel] if declared_kernel is not None else None
        self._kernel_cache: Optional[List[Vector]] = None
        self._value_cache: Dict[Vector, object] = {}
        self.max_enumeration = max_enumeration

    def evaluate(self, element: Vector):
        element = self.module.reduce(element)
        if element in self._value_cache:
            return self._value_cache[element]
        value = self._func(element)
        self._value_cache[element] = value
        return value

    def evaluate_many(self, elements: Sequence[Vector]) -> List:
        if self._func_many is None:
            return super().evaluate_many(elements)
        reduced = [self.module.reduce(x) for x in elements]
        cache = self._value_cache
        fresh = list(dict.fromkeys(x for x in reduced if x not in cache))
        if fresh:
            values = self._func_many(fresh)
            if len(values) != len(fresh):
                raise ValueError(
                    f"{self.description}: bulk labeller returned {len(values)} labels "
                    f"for {len(fresh)} points"
                )
            cache.update(zip(fresh, values))
        return [cache[x] for x in reduced]

    def kernel_generators(self) -> List[Vector]:
        if self._declared is not None:
            return list(self._declared)
        if self._kernel_cache is None:
            if self.domain_size() > self.max_enumeration:
                raise ValueError(
                    f"domain of size {self.domain_size()} is too large to enumerate; "
                    "declare the kernel or use the statevector backend with a smaller instance"
                )
            identity_label = self.evaluate(self.module.identity())
            domain = list(self.module.elements())
            kernel = [
                x for x, label in zip(domain, self.evaluate_many(domain)) if label == identity_label
            ]
            self._kernel_cache = canonical_generators(kernel, self.moduli)
        return list(self._kernel_cache)


class SubgroupStructureOracle(AbelianHSPOracle):
    """An oracle whose hidden subgroup is known by construction.

    Evaluation labels cosets through the canonical lattice representative,
    reduced against the Hermite form of a :class:`CosetReducer` built once
    per oracle (polynomial time per point), so instances scale to groups of
    order ``2^60`` and beyond; this is the oracle used for the large-scale
    Abelian HSP scaling benchmarks (experiment E1).
    """

    def __init__(
        self,
        moduli: Sequence[int],
        subgroup_generators: Sequence[Vector],
        counter: Optional[QueryCounter] = None,
        description: str = "subgroup oracle",
    ):
        super().__init__(moduli, counter, description)
        self._generators = canonical_generators(subgroup_generators, self.moduli)
        self._reducer = CosetReducer(self._generators, self.moduli)

    def evaluate(self, element: Vector):
        return self._reducer(element)

    def evaluate_many(self, elements: Sequence[Vector]) -> List:
        return self._reducer.many(elements)

    def kernel_generators(self) -> List[Vector]:
        return list(self._generators)


class FourierSampler:
    """Samples dual-group elements from the Fourier-sampling distribution.

    Both backends amortise work across the rounds of a request: the
    statevector backend scans the domain *once per oracle* and caches the
    coset's Fourier distribution, and the analytic backend caches the dual
    decomposition and draws whole coefficient blocks with vectorised
    lattice arithmetic.

    Parameters
    ----------
    backend:
        ``"analytic"``, ``"statevector"`` or ``"auto"`` (statevector when the
        domain fits under ``statevector_limit``, analytic otherwise).
    rng:
        NumPy random generator (reproducibility of every experiment).
    statevector_limit:
        Largest domain size simulated with the dense backend under ``auto``.
    shards:
        Default shard count for batch requests.  A sharded request draws all
        randomness up front on the sampler's own generator — in exactly the
        order the unsharded batch path would — and splits only the
        coefficient-to-sample lattice combination into per-block-of-rounds
        tasks, so the returned samples and the query accounting are
        byte-identical to the unsharded path at a fixed seed, whether the
        blocks run inline or on a worker pool.
    shard_pool:
        Default executor for shard tasks (anything with an ``Executor.map``
        interface).  ``None`` runs the shard blocks inline, which still
        produces the same samples; the per-oracle caches shipped to workers
        (coset-probability arrays, dual decompositions) are plain
        NumPy/tuple data and pickle cheaply.
    """

    def __init__(
        self,
        backend: str = "auto",
        rng: Optional[np.random.Generator] = None,
        statevector_limit: int = 1 << 14,
        shards: Optional[int] = None,
        shard_pool=None,
    ):
        if backend not in ("auto", "analytic", "statevector"):
            raise ValueError(f"unknown backend {backend!r}")
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be a positive integer, got {shards}")
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng()
        self.statevector_limit = statevector_limit
        self.shards = shards
        self.shard_pool = shard_pool
        self.noise = None

    def attach_noise(self, channel) -> None:
        """Install a sample-corruption channel (``sample-depolarise``).

        The channel owns its generator (derived from the run's SeedSequence)
        and is applied to every batch *after* the samples are produced — in
        the parent, after any shard combination — so corruption randomness
        is drawn in the same serial order whatever the shard count, and the
        sampler's main stream is never perturbed.  Query accounting is
        untouched: a corrupted round still counts as one quantum query.
        """
        if self.noise is not None:
            raise ValueError("a noise channel is already installed on this sampler")
        self.noise = channel

    # -- public API --------------------------------------------------------------
    def sample(
        self,
        oracle: AbelianHSPOracle,
        count: int = 1,
        shards: Optional[int] = None,
        pool=None,
    ) -> List[Vector]:
        """Draw ``count`` independent Fourier samples (elements of ``H^perp``).

        Each sample accounts for one quantum query regardless of backend, of
        batching and of sharding, so a batched request for ``count`` rounds
        reports the same totals as ``count`` single-round requests.
        ``shards`` and ``pool`` override the sampler-level defaults for this
        request; see the class docstring for the sharding contract.
        """
        if count <= 0:
            raise ValueError(f"sample requires a positive count, got {count}")
        shards = shards if shards is not None else self.shards
        if shards is not None and shards < 1:
            raise ValueError(f"shards must be a positive integer, got {shards}")
        pool = pool if pool is not None else self.shard_pool
        backend = self._resolve_backend(oracle)
        oracle.counter.quantum_queries += count
        with obs_span("sampler.batch", backend=backend) as sampler_span:
            sampler_span.add("samples", count)
            if shards is not None:
                sampler_span.set(shards=shards)
            if backend == "statevector":
                samples = self._sample_statevector(oracle, count, shards=shards, pool=pool)
            else:
                samples = self._sample_analytic(oracle, count, shards=shards, pool=pool)
        if self.noise is not None:
            samples = self.noise.corrupt(samples, oracle.module.moduli)
        return samples

    def _resolve_backend(self, oracle: AbelianHSPOracle) -> str:
        if self.backend != "auto":
            return self.backend
        return "statevector" if oracle.domain_size() <= self.statevector_limit else "analytic"

    # -- statevector backend ---------------------------------------------------------
    def _sample_statevector(
        self,
        oracle: AbelianHSPOracle,
        count: int,
        shards: Optional[int] = None,
        pool=None,
    ) -> List[Vector]:
        """Dense simulation with the per-oracle measurement distribution cached.

        The measurement distribution of the Fourier-transformed coset state
        is independent of the coset offset (uniform on ``H^perp``; see
        :func:`~repro.quantum.qft.qft_probabilities_of_coset`), so the
        distribution of the identity coset — collected in one domain scan,
        the classical cost of simulating the superposition query — serves
        every round.  Only the probability array is retained on the oracle.
        Sharding splits the outcome-to-tuple decoding per block of rounds;
        the outcomes themselves are drawn here, on the sampler's generator.
        """
        module = oracle.module
        shape = tuple(module.moduli)
        flat = getattr(oracle, "_coset_probability_cache", None)
        if flat is None:
            identity_label = oracle.evaluate(module.identity())
            # One batched oracle scan over the domain (iteration order is the
            # C order of the moduli shape, so flat index i is the i-th
            # domain element).
            labels = oracle.evaluate_many(list(module.elements()))
            indicator = np.zeros(shape, dtype=np.float64)
            indicator.reshape(-1)[
                [i for i, label in enumerate(labels) if label == identity_label]
            ] = 1.0
            flat = qft_probabilities_of_coset(indicator).reshape(-1)
            oracle._coset_probability_cache = flat
        outcomes = self.rng.choice(flat.size, p=flat, size=count)
        if shards is None or shards <= 1:
            return _unravel_outcomes(shape, outcomes)
        tasks = [
            ("statevector", shape, block) for block in _split_rounds(outcomes, count, shards)
        ]
        return _run_shard_tasks(tasks, pool)

    # -- analytic backend ----------------------------------------------------------------
    def _dual_structure(self, oracle: AbelianHSPOracle):
        """Cached ``(dual generators, cyclic decomposition)`` of ``H^perp``."""
        cached = getattr(oracle, "_dual_structure_cache", None)
        if cached is None:
            module = oracle.module
            dual_generators = annihilator(oracle.kernel_generators(), module.moduli)
            decomposition = (
                cyclic_decomposition(dual_generators, module.moduli) if dual_generators else []
            )
            cached = (dual_generators, decomposition)
            oracle._dual_structure_cache = cached
        return cached

    def _sample_analytic(
        self,
        oracle: AbelianHSPOracle,
        count: int,
        shards: Optional[int] = None,
        pool=None,
    ) -> List[Vector]:
        """Vectorised uniform sampling from ``H^perp`` (cached decomposition).

        Coefficient blocks are drawn in one generator call each and combined
        with modular NumPy arithmetic when every modulus fits comfortably in
        ``int64``; larger moduli fall back to exact per-sample big-integer
        lattice arithmetic (still with the cached decomposition).  All
        coefficients are drawn here, in the exact order the unsharded path
        draws them; sharding distributes only the per-row lattice
        combination, so the samples are identical either way.
        """
        module = oracle.module
        _, decomposition = self._dual_structure(oracle)
        if not decomposition:
            return [module.identity()] * count
        generators = [generator for generator, _ in decomposition]
        # Decide vectorisability on Python ints BEFORE any int64 conversion:
        # moduli of 2^63 and beyond must reach the exact big-integer fallback
        # rather than overflow in np.asarray.
        vectorisable = max(int(m) for m in module.moduli) <= (1 << 31) and all(
            order < (1 << 62) for _, order in decomposition
        )
        if vectorisable:
            coefficients = np.empty((count, len(decomposition)), dtype=np.int64)
            for j, (_, order) in enumerate(decomposition):
                coefficients[:, j] = self.rng.integers(0, int(order), size=count, dtype=np.int64)
            if shards is None or shards <= 1:
                return _combine_analytic_vectorised(module.moduli, generators, coefficients)
            tasks = [
                ("analytic-vectorised", module.moduli, generators, block)
                for block in _split_rounds(coefficients, count, shards)
            ]
            return _run_shard_tasks(tasks, pool)
        coefficient_rows = [
            [self._uniform_below(int(order)) for _, order in decomposition] for _ in range(count)
        ]
        if shards is None or shards <= 1:
            return _combine_analytic_exact(module.moduli, generators, coefficient_rows)
        tasks = [
            ("analytic-exact", module.moduli, generators, block)
            for block in _split_rounds(coefficient_rows, count, shards)
        ]
        return _run_shard_tasks(tasks, pool)

    def _uniform_below(self, bound: int) -> int:
        """A uniform integer in ``[0, bound)`` supporting arbitrary-size bounds."""
        if bound <= (1 << 62):
            return int(self.rng.integers(0, bound))
        bits = bound.bit_length()
        chunks = (bits + 61) // 62
        while True:
            value = 0
            for _ in range(chunks):
                value = (value << 62) | int(self.rng.integers(0, 1 << 62))
            value >>= chunks * 62 - bits
            if value < bound:
                return value

    # -- diagnostics -----------------------------------------------------------------------
    def exact_distribution(self, oracle: AbelianHSPOracle) -> np.ndarray:
        """The exact sampling distribution (uniform over ``H^perp``) as an array.

        Used by statistical tests to cross-validate the two backends.
        """
        module = oracle.module
        dual = annihilator(oracle.kernel_generators(), module.moduli)
        distribution = np.zeros(module.moduli, dtype=np.float64)
        elements = module.subgroup_elements(dual) if dual else [module.identity()]
        weight = 1.0 / len(elements)
        for y in elements:
            distribution[y] = weight
        return distribution


# ---------------------------------------------------------------------------
# Shard workers: pure module-level functions over picklable per-oracle data
# (the coset-probability array / dual decomposition cached on the oracle),
# so process pools can run blocks of rounds without touching oracles, rngs
# or counters.  The parent draws every random coefficient beforehand.
# ---------------------------------------------------------------------------


def _split_rounds(rows, count: int, shards: int) -> List:
    """Contiguous blocks of ``rows`` (len ``count``) for ``shards`` workers."""
    shards = max(1, min(int(shards), count))
    base, remainder = divmod(count, shards)
    blocks = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < remainder else 0)
        blocks.append(rows[start : start + size])
        start += size
    return blocks


def _unravel_outcomes(shape: Tuple[int, ...], outcomes) -> List[Vector]:
    return [tuple(int(v) for v in np.unravel_index(int(outcome), shape)) for outcome in outcomes]


def _combine_analytic_vectorised(moduli, generators, coefficients) -> List[Vector]:
    moduli_arr = np.asarray(moduli, dtype=np.int64)
    values = np.zeros((len(coefficients), moduli_arr.size), dtype=np.int64)
    for j, generator in enumerate(generators):
        reduced = coefficients[:, j][:, None] % moduli_arr[None, :]
        values = (values + reduced * (np.asarray(generator, dtype=np.int64) % moduli_arr)) % moduli_arr
    return [tuple(int(v) for v in row) for row in values]


def _combine_analytic_exact(moduli, generators, coefficient_rows) -> List[Vector]:
    module = ZModule(moduli)
    samples = []
    for row in coefficient_rows:
        sample = module.identity()
        for generator, coefficient in zip(generators, row):
            sample = module.add(sample, module.scalar(int(coefficient), generator))
        samples.append(sample)
    return samples


def _sampler_shard_worker(task):
    """Dispatch one shard task (kind, ...payload) to its combination routine."""
    kind = task[0]
    if kind == "statevector":
        _, shape, outcomes = task
        return _unravel_outcomes(shape, outcomes)
    _, moduli, generators, coefficients = task
    if kind == "analytic-vectorised":
        return _combine_analytic_vectorised(moduli, generators, coefficients)
    if kind == "analytic-exact":
        return _combine_analytic_exact(moduli, generators, coefficients)
    raise ValueError(f"unknown shard task kind {kind!r}")


def _run_shard_tasks(tasks, pool) -> List[Vector]:
    """Run shard tasks inline or on a pool; concatenation preserves order."""
    if pool is None:
        parts = [_sampler_shard_worker(task) for task in tasks]
    else:
        parts = list(pool.map(_sampler_shard_worker, tasks))
    samples: List[Vector] = []
    for part in parts:
        samples.extend(part)
    return samples
