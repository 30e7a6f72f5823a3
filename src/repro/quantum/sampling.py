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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.blackbox.oracle import QueryCounter, _label_array
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
    "BACKENDS",
    "STATEVECTOR_LIMIT",
]

Vector = Tuple[int, ...]

#: The sampler backends; ``"auto"`` picks per oracle by domain size.
BACKENDS = ("auto", "analytic", "statevector")

#: Largest domain the ``"auto"`` backend simulates with the dense statevector.
STATEVECTOR_LIMIT = 1 << 14


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
        """Batch evaluation: the scalar loop, with its values and queries.

        The statevector backend's domain scan asks for
        :meth:`identity_coset_mask` instead, which the oracles with an
        array-native labelling answer without a list of labels.
        """
        return [self.evaluate(x) for x in elements]

    def identity_coset_mask(self) -> np.ndarray:
        """Boolean mask over the domain, in C order of the moduli shape: ``f(x) == f(0)``.

        This is the statevector backend's domain scan, the classical cost
        of simulating one superposition query; flat index ``i`` is the
        ``i``-th element of :meth:`ZModule.elements`.  The default labels
        the identity, then the domain through :meth:`evaluate_many`, and
        compares label by label; subclasses with an array-native labelling
        override it with the same mask and the same queries.
        """
        identity_label = self.evaluate(self.module.identity())
        labels = self.evaluate_many(list(self.module.elements()))
        return np.fromiter((label == identity_label for label in labels), dtype=bool, count=len(labels))

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
    computed (once, lazily) from :meth:`identity_coset_mask` — the same
    domain scan the statevector backend performs.  ``max_enumeration``
    bounds that cost; larger domains must declare their kernel.

    ``label_many`` is an optional batched twin of ``func`` (an ``(n, r)``
    int64 point array in, one label per point out, same values; an ndarray
    of labels may come back, with tuple labels as int64 rows).
    :meth:`identity_coset_mask` hands it the whole uncached domain as one
    ``np.indices`` exponent matrix, compares the labels in one pass and
    keeps them as an array by flat index, so later :meth:`evaluate` calls
    still hit the cache and the queries counted stay those of the
    point-by-point scan.  Without it the scan calls ``func`` point by
    point.  The engine-backed twins are
    ``_bulk_power_product_labeller`` (the exponent maps of
    :mod:`repro.hsp.oracles`) and ``_bulk_embed_labeller`` (the Theorem 13
    oracles of :mod:`repro.core.elementary_abelian_two`);
    :func:`~repro.hsp.abelian.solve_hsp_in_abelian_group` passes the
    hiding oracle's own ``evaluate_many``.
    """

    def __init__(
        self,
        moduli: Sequence[int],
        func: Callable[[Vector], object],
        declared_kernel: Optional[Sequence[Vector]] = None,
        counter: Optional[QueryCounter] = None,
        description: str = "function oracle",
        max_enumeration: int = 1 << 18,
        label_many: Optional[Callable[[np.ndarray], Sequence]] = None,
    ):
        super().__init__(moduli, counter, description)
        self._func = func
        self._func_many = label_many
        self._declared = [self.module.reduce(g) for g in declared_kernel] if declared_kernel is not None else None
        self._kernel_cache: Optional[List[Vector]] = None
        self._value_cache: Dict[Vector, object] = {}
        # Every domain point's label by flat index, once a bulk scan ran.
        self._domain_labels: Optional[np.ndarray] = None
        self.max_enumeration = max_enumeration

    def evaluate(self, element: Vector):
        element = self.module.reduce(element)
        if element in self._value_cache:
            return self._value_cache[element]
        if self._domain_labels is not None:
            return _label_at(self._domain_labels, np.ravel_multi_index(element, self.moduli))
        value = self._func(element)
        self._value_cache[element] = value
        return value

    def identity_coset_mask(self) -> np.ndarray:
        if self._func_many is None:
            return super().identity_coset_mask()
        identity_label = self.evaluate(self.module.identity())
        if self._domain_labels is None:
            # The point-by-point scan's queries: every domain point not yet
            # cached, in C order, in one bulk call.
            shape = tuple(self.moduli)
            points = np.indices(shape).reshape(len(shape), -1).T
            cached = self._value_cache
            flat = np.ravel_multi_index(np.asarray(list(cached), dtype=np.int64).T, shape)
            fresh = np.ones(points.shape[0], dtype=bool)
            fresh[flat] = False
            if fresh.any():
                fresh_points = points[fresh]
                values = _label_array(self._func_many(fresh_points))
                if len(values) != len(fresh_points):
                    raise ValueError(
                        f"{self.description}: bulk labeller returned {len(values)} labels "
                        f"for {len(fresh_points)} points"
                    )
                labels = np.zeros((points.shape[0],) + values.shape[1:], dtype=values.dtype)
                labels[fresh] = values
                for index, value in zip(flat.tolist(), cached.values()):
                    labels[index] = value
            else:
                labels = _label_array(list(cached.values()))[np.argsort(flat)]
            self._domain_labels = labels
        return _equal_mask(self._domain_labels, identity_label)

    def kernel_generators(self) -> List[Vector]:
        if self._declared is not None:
            return list(self._declared)
        if self._kernel_cache is None:
            if self.domain_size() > self.max_enumeration:
                raise ValueError(
                    f"domain of size {self.domain_size()} is too large to enumerate; "
                    "declare the kernel or use the statevector backend with a smaller instance"
                )
            flat = np.flatnonzero(self.identity_coset_mask())
            kernel = [tuple(int(v) for v in x) for x in zip(*np.unravel_index(flat, tuple(self.moduli)))]
            self._kernel_cache = canonical_generators(kernel, self.moduli)
        return list(self._kernel_cache)


def _label_at(labels: np.ndarray, index: int):
    """Label ``index`` of a label array, as the scalar labeller returns it."""
    if labels.ndim == 2:
        return tuple(labels[index].tolist())
    return labels.item(index)


def _equal_mask(labels: np.ndarray, target) -> np.ndarray:
    """Boolean mask of the labels equal to ``target``, in one pass."""
    if labels.ndim == 2:
        return (labels == np.asarray(target, dtype=np.int64)).all(axis=1)
    if labels.dtype == object:
        # A 0-d box keeps a tuple or frozenset target from broadcasting.
        boxed = np.empty((), dtype=object)
        boxed[()] = target
        return np.asarray(labels == boxed, dtype=bool)
    return labels == target


class SubgroupStructureOracle(AbelianHSPOracle):
    """An oracle whose hidden subgroup is known by construction.

    Evaluation labels cosets through the canonical lattice representative,
    reduced against the Hermite form of a :class:`CosetReducer` built once
    per oracle (polynomial time per point), so instances scale to groups of
    order ``2^60`` and beyond.
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

    def identity_coset_mask(self) -> np.ndarray:
        shape = tuple(self.moduli)
        points = np.indices(shape).reshape(len(shape), -1).T
        return _equal_mask(self._reducer.many_array(points), self.evaluate(self.module.identity()))

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
        domain fits under :data:`STATEVECTOR_LIMIT`, analytic otherwise).
    rng:
        NumPy random generator (reproducibility of every experiment).
    """

    def __init__(self, backend: str = "auto", rng: Optional[np.random.Generator] = None):
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
        self.backend = backend
        self.rng = rng if rng is not None else np.random.default_rng()
        self.noise = None

    def attach_noise(self, channel) -> None:
        """Install a sample-corruption channel (``sample-depolarise``).

        The channel owns its generator (derived from the run's SeedSequence)
        and is applied to every batch *after* the samples are produced, so
        the sampler's main stream is never perturbed.  Query accounting is
        untouched: a corrupted round still counts as one quantum query.
        """
        if self.noise is not None:
            raise ValueError("a noise channel is already installed on this sampler")
        self.noise = channel

    # -- public API --------------------------------------------------------------
    def sample(self, oracle: AbelianHSPOracle, count: int = 1) -> List[Vector]:
        """Draw ``count`` independent Fourier samples (elements of ``H^perp``).

        Each sample accounts for one quantum query regardless of backend and
        of batching, so a batched request for ``count`` rounds reports the
        same totals as ``count`` single-round requests.
        """
        if count <= 0:
            raise ValueError(f"sample requires a positive count, got {count}")
        backend = self._resolve_backend(oracle)
        oracle.counter.quantum_queries += count
        with obs_span("sampler.batch", backend=backend) as sampler_span:
            sampler_span.add("samples", count)
            if backend == "statevector":
                samples = self._sample_statevector(oracle, count)
            else:
                samples = self._sample_analytic(oracle, count)
        if self.noise is not None:
            samples = self.noise.corrupt(samples, oracle.module.moduli)
        return samples

    def _resolve_backend(self, oracle: AbelianHSPOracle) -> str:
        if self.backend != "auto":
            return self.backend
        return "statevector" if oracle.domain_size() <= STATEVECTOR_LIMIT else "analytic"

    # -- statevector backend ---------------------------------------------------------
    def _sample_statevector(self, oracle: AbelianHSPOracle, count: int) -> List[Vector]:
        """Dense simulation with the per-oracle measurement distribution cached.

        The measurement distribution of the Fourier-transformed coset state
        is independent of the coset offset (uniform on ``H^perp``; see
        :func:`~repro.quantum.qft.qft_probabilities_of_coset`), so the
        distribution of the identity coset — collected in one domain scan,
        the classical cost of simulating the superposition query — serves
        every round.  Only the probability array is retained on the oracle.
        """
        module = oracle.module
        shape = tuple(module.moduli)
        flat = getattr(oracle, "_coset_probability_cache", None)
        if flat is None:
            # One oracle scan over the domain, as a mask in the C order of
            # the moduli shape.
            indicator = oracle.identity_coset_mask().reshape(shape).astype(np.float64)
            flat = qft_probabilities_of_coset(indicator).reshape(-1)
            oracle._coset_probability_cache = flat
        outcomes = self.rng.choice(flat.size, p=flat, size=count)
        return _unravel_outcomes(shape, outcomes)

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

    def _sample_analytic(self, oracle: AbelianHSPOracle, count: int) -> List[Vector]:
        """Vectorised uniform sampling from ``H^perp`` (cached decomposition).

        Coefficient blocks are drawn in one generator call each and combined
        with modular NumPy arithmetic when every modulus fits comfortably in
        ``int64``; larger moduli fall back to exact per-sample big-integer
        lattice arithmetic (still with the cached decomposition).
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
            return _combine_analytic_vectorised(module.moduli, generators, coefficients)
        coefficient_rows = [
            [self._uniform_below(int(order)) for _, order in decomposition] for _ in range(count)
        ]
        return _combine_analytic_exact(module, generators, coefficient_rows)

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


def _unravel_outcomes(shape: Tuple[int, ...], outcomes) -> List[Vector]:
    return [tuple(int(v) for v in np.unravel_index(int(outcome), shape)) for outcome in outcomes]


def _combine_analytic_vectorised(moduli, generators, coefficients) -> List[Vector]:
    moduli_arr = np.asarray(moduli, dtype=np.int64)
    values = np.zeros((len(coefficients), moduli_arr.size), dtype=np.int64)
    for j, generator in enumerate(generators):
        reduced = coefficients[:, j][:, None] % moduli_arr[None, :]
        values = (values + reduced * (np.asarray(generator, dtype=np.int64) % moduli_arr)) % moduli_arr
    return [tuple(int(v) for v in row) for row in values]


def _combine_analytic_exact(module: ZModule, generators, coefficient_rows) -> List[Vector]:
    samples = []
    for row in coefficient_rows:
        sample = module.identity()
        for generator, coefficient in zip(generators, row):
            sample = module.add(sample, module.scalar(int(coefficient), generator))
        samples.append(sample)
    return samples
