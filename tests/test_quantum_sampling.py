"""Unit tests for the Fourier sampling layer and its two backends."""

import numpy as np
import pytest

from repro.linalg.zmodule import ZModule, annihilator, subgroup_contains
from repro.quantum.sampling import (
    FourierSampler,
    SubgroupStructureOracle,
    TupleFunctionOracle,
)


class TestOracles:
    def test_subgroup_structure_oracle_labels(self):
        oracle = SubgroupStructureOracle([8, 9], [(2, 3)])
        module = oracle.module
        for h in module.subgroup_elements([(2, 3)]):
            assert oracle.evaluate(module.add((5, 1), h)) == oracle.evaluate((5, 1))
        assert oracle.evaluate((1, 0)) != oracle.evaluate((0, 0))
        assert oracle.kernel_generators() == oracle.kernel_generators()

    def test_tuple_function_oracle_declared_kernel(self):
        oracle = TupleFunctionOracle([4, 4], lambda x: (x[0] % 2, x[1]), declared_kernel=[(2, 0)])
        assert oracle.kernel_generators() == [(2, 0)]

    def test_tuple_function_oracle_enumerated_kernel(self):
        oracle = TupleFunctionOracle([6], lambda x: x[0] % 3)
        kernel = oracle.kernel_generators()
        module = ZModule([6])
        assert sorted(module.subgroup_elements(kernel)) == [(0,), (3,)]

    def test_enumeration_limit(self):
        oracle = TupleFunctionOracle([1 << 10, 1 << 10], lambda x: x, max_enumeration=100)
        with pytest.raises(ValueError):
            oracle.kernel_generators()

    def test_value_cache(self):
        calls = []
        oracle = TupleFunctionOracle([8], lambda x: calls.append(x) or x[0] % 4)
        oracle.evaluate((3,))
        oracle.evaluate((3,))
        assert len(calls) == 1

    def test_domain_size(self):
        assert TupleFunctionOracle([4, 6], lambda x: 0).domain_size() == 24


class TestSamplerBackends:
    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_samples_lie_in_annihilator(self, backend, rng):
        moduli = [8, 6]
        hidden = [(2, 3)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        sampler = FourierSampler(backend=backend, rng=rng)
        dual = annihilator(hidden, moduli)
        for sample in sampler.sample(oracle, 25):
            assert subgroup_contains(dual, sample, moduli)

    def test_quantum_queries_counted_per_round(self, rng):
        oracle = SubgroupStructureOracle([4, 4], [(2, 2)])
        sampler = FourierSampler(backend="analytic", rng=rng)
        sampler.sample(oracle, 7)
        assert oracle.counter.quantum_queries == 7

    def test_auto_backend_selects_by_domain_size(self, rng):
        small = SubgroupStructureOracle([4], [(2,)])
        large = SubgroupStructureOracle([1 << 10, 1 << 10], [(2, 0)])
        sampler = FourierSampler(backend="auto", rng=rng, statevector_limit=16)
        assert sampler._resolve_backend(small) == "statevector"
        assert sampler._resolve_backend(large) == "analytic"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            FourierSampler(backend="imaginary")

    def test_trivial_hidden_subgroup_samples_everything(self, rng):
        # H = {0}: samples should cover many dual elements (all of Z_8).
        oracle = SubgroupStructureOracle([8], [(0,)])
        sampler = FourierSampler(backend="analytic", rng=rng)
        samples = {s[0] for s in sampler.sample(oracle, 60)}
        assert len(samples) >= 5

    def test_full_hidden_subgroup_samples_only_zero(self, rng):
        oracle = SubgroupStructureOracle([6], [(1,)])
        for backend in ("analytic", "statevector"):
            sampler = FourierSampler(backend=backend, rng=rng)
            assert all(s == (0,) for s in sampler.sample(oracle, 10))

    def test_backends_agree_statistically(self, rng):
        """Chi-squared style agreement between the two backends (Simon instance)."""
        moduli = [2, 2, 2]
        hidden = [(1, 1, 0)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        exact = FourierSampler(backend="analytic", rng=rng).exact_distribution(oracle)
        counts = np.zeros(exact.shape)
        sampler = FourierSampler(backend="statevector", rng=rng)
        n = 160
        for sample in sampler.sample(oracle, n):
            counts[sample] += 1
        empirical = counts / n
        # The four dual elements each have probability 1/4.
        support = exact > 0
        assert np.all(empirical[~support] == 0)
        assert np.max(np.abs(empirical[support] - exact[support])) < 0.15

    def test_exact_distribution_is_uniform_on_dual(self, rng):
        moduli = [4, 4]
        hidden = [(2, 0)]
        oracle = SubgroupStructureOracle(moduli, hidden)
        distribution = FourierSampler(rng=rng).exact_distribution(oracle)
        dual = annihilator(hidden, moduli)
        module = ZModule(moduli)
        dual_elements = module.subgroup_elements(dual)
        assert np.isclose(distribution.sum(), 1.0)
        for y in dual_elements:
            assert np.isclose(distribution[y], 1.0 / len(dual_elements))


class TestCountValidation:
    """Non-positive round counts are rejected on every path (no counter bump)."""

    @pytest.mark.parametrize("count", [0, -1, -17])
    def test_non_positive_count_raises(self, count):
        oracle = SubgroupStructureOracle([8], [(2,)])
        sampler = FourierSampler(backend="analytic", rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive count"):
            sampler.sample(oracle, count)
        assert oracle.counter.quantum_queries == 0

    def test_statevector_path_validates_too(self):
        oracle = SubgroupStructureOracle([8], [(2,)])
        sampler = FourierSampler(backend="statevector", rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="positive count"):
            sampler.sample(oracle, 0)
        assert oracle.counter.quantum_queries == 0

    def test_invalid_shards_rejected(self):
        oracle = SubgroupStructureOracle([8], [(2,)])
        with pytest.raises(ValueError, match="shards"):
            FourierSampler(shards=0)
        with pytest.raises(ValueError, match="shards"):
            FourierSampler().sample(oracle, 4, shards=-2)


class TestShardedSampling:
    """Sharded batch requests are byte-identical to the unsharded path."""

    MODULI = [8, 9, 5]
    HIDDEN = [(2, 3, 0)]

    def _oracle(self):
        return SubgroupStructureOracle(self.MODULI, self.HIDDEN)

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 50])
    def test_sharded_equals_unsharded_at_fixed_seed(self, backend, shards):
        plain_oracle, sharded_oracle = self._oracle(), self._oracle()
        plain = FourierSampler(backend=backend, rng=np.random.default_rng(20010202))
        sharded = FourierSampler(backend=backend, rng=np.random.default_rng(20010202))
        a = plain.sample(plain_oracle, 23)
        b = sharded.sample(sharded_oracle, 23, shards=shards)
        assert a == b
        assert plain_oracle.counter.quantum_queries == sharded_oracle.counter.quantum_queries == 23

    def test_bigint_fallback_shards_identically(self):
        plain_oracle = SubgroupStructureOracle([1 << 70], [])
        sharded_oracle = SubgroupStructureOracle([1 << 70], [])
        a = FourierSampler(backend="analytic", rng=np.random.default_rng(3)).sample(plain_oracle, 9)
        b = FourierSampler(backend="analytic", rng=np.random.default_rng(3)).sample(
            sharded_oracle, 9, shards=4
        )
        assert a == b

    def test_process_pool_matches_inline_shards(self):
        from concurrent.futures import ProcessPoolExecutor

        inline_oracle, pooled_oracle = self._oracle(), self._oracle()
        inline = FourierSampler(backend="analytic", rng=np.random.default_rng(5)).sample(
            inline_oracle, 17, shards=4
        )
        with ProcessPoolExecutor(max_workers=2) as pool:
            pooled = FourierSampler(
                backend="analytic", rng=np.random.default_rng(5), shards=4, shard_pool=pool
            ).sample(pooled_oracle, 17)
        assert inline == pooled

    def test_sampler_level_shard_default_applies(self):
        plain_oracle, sharded_oracle = self._oracle(), self._oracle()
        a = FourierSampler(backend="analytic", rng=np.random.default_rng(11)).sample(plain_oracle, 12)
        b = FourierSampler(backend="analytic", rng=np.random.default_rng(11), shards=5).sample(
            sharded_oracle, 12
        )
        assert a == b

    def test_more_shards_than_rounds_is_fine(self):
        oracle = self._oracle()
        samples = FourierSampler(backend="analytic", rng=np.random.default_rng(2)).sample(
            oracle, 3, shards=16
        )
        assert len(samples) == 3

    def test_sharded_distribution_stays_in_dual(self):
        oracle = self._oracle()
        module = oracle.module
        dual = annihilator(self.HIDDEN, module.moduli)
        sampler = FourierSampler(backend="analytic", rng=np.random.default_rng(8), shards=3)
        for sample in sampler.sample(oracle, 40):
            assert subgroup_contains(dual, sample, module.moduli)
