"""Tests for the classical, Ettinger--Høyer and Rötteler--Beth baselines."""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance, random_abelian_hsp_instance
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.catalog import wreath_instance
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import dihedral_semidirect
from repro.hsp.baseline_classical import classical_collision_hsp, classical_exhaustive_hsp
from repro.hsp.ettinger_hoyer import dihedral_sample_distribution, ettinger_hoyer_dihedral
from repro.hsp.rotteler_beth import rotteler_beth_wreath
from repro.quantum.sampling import FourierSampler


class TestClassicalBaselines:
    @pytest.mark.parametrize(
        "moduli,generators", [([6, 4], 2), ([16, 16], 1), ([32, 32], 1), ([64, 64], 1)]
    )
    def test_exhaustive_solves_abelian_instance(self, moduli, generators, rng):
        instance = random_abelian_hsp_instance(moduli, rng, max_generators=generators)
        result = classical_exhaustive_hsp(instance)
        assert instance.verify(result.generators)
        assert result.oracle_queries == moduli[0] * moduli[1]
        assert result.method == "exhaustive"

    @pytest.mark.parametrize("p", [3, 7])
    def test_exhaustive_solves_nonabelian_instance(self, p, rng):
        group = extraspecial_group(p)
        instance = HSPInstance.from_subgroup(group, [((1,), (1,), 0)])
        result = classical_exhaustive_hsp(instance)
        assert instance.verify(result.generators)
        assert result.oracle_queries == p**3

    def test_exhaustive_query_count_scales_with_group_order(self, rng):
        small = classical_exhaustive_hsp(random_abelian_hsp_instance([8], rng))
        large = classical_exhaustive_hsp(random_abelian_hsp_instance([64], rng))
        assert large.oracle_queries == 8 * small.oracle_queries

    def test_exhaustive_respects_limit(self, rng):
        instance = random_abelian_hsp_instance([128, 128], rng)
        with pytest.raises(ValueError):
            classical_exhaustive_hsp(instance, max_elements=1000)

    def test_collision_baseline_finds_subgroup(self, rng):
        group = AbelianTupleGroup([16, 4])
        instance = HSPInstance.from_subgroup(group, [(4, 2)])
        result = classical_collision_hsp(instance, rng=rng)
        assert instance.verify(result.generators) or len(result.generators) > 0
        assert result.method == "collision"
        assert result.oracle_queries > 0


class TestEttingerHoyer:
    def test_distribution_normalised(self):
        dist = dihedral_sample_distribution(32, 5)
        assert np.isclose(dist.sum(), 1.0)
        assert np.all(dist >= 0)

    def test_distribution_of_zero_slope_is_uniform(self):
        dist = dihedral_sample_distribution(16, 0)
        assert np.allclose(dist, 1 / 16)

    @pytest.mark.parametrize(
        "n,slope", [(32, 7), (64, 13), (64, 40), (128, 1), (256, 77), (1024, 500), (4096, 3001)]
    )
    def test_recovers_slope(self, n, slope, rng):
        result = ettinger_hoyer_dihedral(n, slope, rng)
        assert result.success
        assert result.recovered_slope == slope

    def test_query_count_logarithmic_postprocessing_exponential(self, rng):
        small = ettinger_hoyer_dihedral(32, 3, rng)
        large = ettinger_hoyer_dihedral(256, 3, rng)
        # quantum queries grow like log n ...
        assert large.quantum_queries <= small.quantum_queries + 8 * 3
        # ... but the post-processing scans all n candidates.
        assert large.postprocessing_candidates_scanned == 256
        assert small.postprocessing_candidates_scanned == 32

    def test_rejects_tiny_groups(self, rng):
        with pytest.raises(ValueError):
            ettinger_hoyer_dihedral(2, 1, rng)


class TestRottelerBeth:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subgroups_inside_base_group(self, k, rng):
        group, _ = wreath_instance(k)
        hidden = [group.embed_normal(tuple(int(rng.integers(0, 2)) for _ in range(2 * k)))]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = rotteler_beth_wreath(instance, FourierSampler(rng=rng))
        assert instance.verify(result.generators or [group.identity()])
        assert result.swap_coset_generator is None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_subgroups_meeting_swap_coset(self, k, rng):
        group, _ = wreath_instance(k)
        vector = tuple(int(rng.integers(0, 2)) for _ in range(2 * k))
        hidden = [(vector, (1,))]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = rotteler_beth_wreath(instance, FourierSampler(rng=rng))
        assert instance.verify(result.generators)
        assert result.swap_coset_generator is not None

    def test_random_subgroups(self, rng):
        group, _ = wreath_instance(2)
        for _ in range(5):
            hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
            instance = HSPInstance.from_subgroup(group, hidden)
            result = rotteler_beth_wreath(instance, FourierSampler(rng=rng))
            assert instance.verify(result.generators or [group.identity()])

    def test_query_report_present(self, rng):
        group, _ = wreath_instance(2)
        instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
        result = rotteler_beth_wreath(instance, FourierSampler(rng=rng))
        assert result.query_report["quantum_queries"] > 0
