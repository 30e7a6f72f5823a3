"""Tests for the elementary-Abelian-normal-2-subgroup solver (Theorem 13)."""

import numpy as np
import pytest

from conftest import no_engine
from repro.blackbox.instances import HSPInstance
from repro.blackbox.noise import NoiseSpec, install_noise
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.elementary_abelian_two import solve_hsp_elementary_abelian_two
from repro.core.solver import solve_hsp
from repro.groups.base import GroupError
from repro.groups.catalog import (
    affine_gf2_instance,
    elementary_abelian_semidirect_instance,
    wreath_instance,
)
from repro.groups.abelian import elementary_abelian_group
from repro.groups.products import generalized_dihedral
from repro.quantum.sampling import FourierSampler, TupleFunctionOracle


def solve_and_verify(group, normal_gens, hidden_generators, rng, **kwargs):
    instance = HSPInstance.from_subgroup(group, hidden_generators)
    result = solve_hsp_elementary_abelian_two(
        group, instance.oracle, normal_gens, sampler=FourierSampler(rng=rng), **kwargs
    )
    assert instance.verify(result.generators or [group.identity()]), result.generators
    return result


class TestWreathProducts:
    """The Rötteler--Beth family, now as a special case of Theorem 13."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_random_hidden_subgroups(self, k, rng):
        group, normal_gens = wreath_instance(k)
        for _ in range(3):
            hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
            result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
            assert result.cyclic_path

    @pytest.mark.parametrize(
        "k,vectors",
        [(2, [(1, 0, 1, 0), (0, 1, 0, 1)]), (3, [(1, 0, 1, 1, 0, 0)])],
    )
    def test_subgroup_inside_base(self, k, vectors, rng):
        """H <= N: pure Simon structure."""
        group, normal_gens = wreath_instance(k)
        hidden = [group.embed_normal(vector) for vector in vectors]
        result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
        assert result.coset_generators == []

    def test_subgroup_meeting_swap_coset(self, rng):
        group, normal_gens = wreath_instance(2)
        hidden = [((1, 1, 0, 0), (1,))]
        result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
        assert result.coset_generators

    def test_trivial_subgroup(self, rng):
        group, normal_gens = wreath_instance(2)
        result = solve_and_verify(group, normal_gens, [group.identity()], rng, cyclic_quotient=True)
        assert result.generators == []

    def test_cyclic_quotient_autodetected(self, rng):
        group, normal_gens = wreath_instance(2)
        hidden = [group.uniform_random_element(rng)]
        result = solve_and_verify(group, normal_gens, hidden, rng)
        assert result.cyclic_path


class TestAffineMatrixGroups:
    """The Section 6 matrix groups over GF(2) with cyclic factor group."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_cyclic_hidden_subgroups(self, k, rng):
        group, normal_gens = affine_gf2_instance(k)
        for _ in range(2):
            hidden = [group.random_element(rng)]
            result = solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)
            assert result.cyclic_path

    def test_translation_subgroups(self, rng):
        group, normal_gens = affine_gf2_instance(3)
        hidden = normal_gens[:1]
        solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)

    def test_whole_group(self, rng):
        group, normal_gens = affine_gf2_instance(2)
        solve_and_verify(group, normal_gens, group.generators(), rng, cyclic_quotient=True)


class TestGeneralCase:
    """Non-cyclic factor groups: running time polynomial in |G/N|."""

    @pytest.mark.parametrize("top,k", [("S3", 4), ("V4", 4), ("S3", 3), ("S3", 5)])
    def test_semidirect_products(self, top, k, rng):
        """|G/N| = 4 or 6 against |N| = 2^k."""
        group, normal_gens = elementary_abelian_semidirect_instance(k, top)
        for _ in range(2):
            hidden = [group.random_element(rng), group.random_element(rng)]
            result = solve_and_verify(
                group, normal_gens, hidden, rng, cyclic_quotient=False, quotient_bound=16
            )
            assert not result.cyclic_path
            assert result.representatives_used <= 16

    @pytest.mark.parametrize("rank,generators", [(3, 1), (4, 2)])
    def test_generalized_dihedral_over_elementary_abelian(self, rank, generators, rng):
        # Dih(Z_2^k) = Z_2^k : Z_2 with inversion action (trivial on an
        # elementary Abelian group, so this is just the direct product).
        group = generalized_dihedral([2] * rank)
        normal_gens = group.normal_part_generators()
        hidden = [group.random_element(rng) for _ in range(generators)]
        solve_and_verify(group, normal_gens, hidden, rng, cyclic_quotient=True)

    def test_bound_violation_raises(self, rng):
        group, normal_gens = elementary_abelian_semidirect_instance(4, "S3")
        instance = HSPInstance.from_subgroup(group, [group.random_element(rng)])
        with pytest.raises(GroupError):
            solve_hsp_elementary_abelian_two(
                group,
                instance.oracle,
                normal_gens,
                sampler=FourierSampler(rng=rng),
                cyclic_quotient=False,
                quotient_bound=2,
            )


class TestValidation:
    def test_rejects_odd_order_normal_generators(self, rng):
        group = elementary_abelian_group(3, 2)
        instance = HSPInstance.from_subgroup(group, [(1, 0)])
        with pytest.raises(GroupError):
            solve_hsp_elementary_abelian_two(
                group, instance.oracle, [(1, 0)], sampler=FourierSampler(rng=rng)
            )

    def test_pure_elementary_abelian_group(self, rng):
        """Degenerate case G = N: a plain Simon instance."""
        group = elementary_abelian_group(2, 5)
        hidden = [(1, 1, 0, 0, 0), (0, 0, 1, 1, 0)]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = solve_hsp_elementary_abelian_two(
            group, instance.oracle, group.generators(), sampler=FourierSampler(rng=rng)
        )
        assert instance.verify(result.generators)

    def test_query_report_included(self, rng):
        group, normal_gens = wreath_instance(2)
        instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
        result = solve_hsp_elementary_abelian_two(
            group, instance.oracle, normal_gens, sampler=FourierSampler(rng=rng), cyclic_quotient=True
        )
        assert result.query_report["quantum_queries"] > 0


class TestEngineRouting:
    """The batched transversal/validation scans preserve results and counts.

    Theorem 13 now routes its coset scans through ``multiply_many`` like
    Theorems 8/11; without an engine (``no_engine``) those batch calls
    degrade to the scalar loops, so generators and the full query report
    must be identical in both configurations.
    """

    def _solve(self, rng_seed=20010202):
        rng = np.random.default_rng(rng_seed)
        group, normal_gens = elementary_abelian_semidirect_instance(4, "S3")
        hidden = [group.random_element(rng)]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = solve_hsp_elementary_abelian_two(
            group,
            instance.oracle,
            normal_gens,
            sampler=FourierSampler(rng=rng),
            cyclic_quotient=False,
            quotient_bound=1 << 8,
        )
        assert instance.verify(result.generators or [group.identity()])
        return result, group

    def test_general_path_engine_vs_scalar_parity(self):
        engine_result, _ = self._solve()
        with no_engine():
            scalar_result, group = self._solve()
        assert getattr(group, "_cayley_engine", None) is None
        assert engine_result.generators == scalar_result.generators
        assert engine_result.representatives_used == scalar_result.representatives_used
        assert engine_result.query_report == scalar_result.query_report

    def test_cyclic_path_engine_vs_scalar_parity(self):
        def run():
            rng = np.random.default_rng(20010202)
            group, normal_gens = wreath_instance(2)
            instance = HSPInstance.from_subgroup(group, [group.uniform_random_element(rng)])
            result = solve_hsp_elementary_abelian_two(
                group,
                instance.oracle,
                normal_gens,
                sampler=FourierSampler(rng=rng),
                cyclic_quotient=True,
            )
            assert instance.verify(result.generators or [group.identity()])
            return result, group

        engine_result, _ = run()
        with no_engine():
            scalar_result, group = run()
        assert getattr(group, "_cayley_engine", None) is None
        assert engine_result.generators == scalar_result.generators
        assert engine_result.query_report == scalar_result.query_report

    def test_validation_still_rejects_bad_normal_subgroups(self):
        group = elementary_abelian_group(3, 2)
        instance = HSPInstance.from_subgroup(group, [(1, 0)])
        with pytest.raises(GroupError, match="order dividing 2"):
            solve_hsp_elementary_abelian_two(
                group, instance.oracle, [(1, 0)], sampler=FourierSampler(rng=np.random.default_rng(0))
            )

    def test_validation_rejects_non_abelian_normal_part(self):
        group, _ = elementary_abelian_semidirect_instance(3, "S3")
        # Two non-commuting involutions of G (coordinate swaps composed with
        # the S3 part) violate the Abelianity requirement on N.
        instance = HSPInstance.from_subgroup(group, [group.identity()])
        gens = [g for g in group.generators() if group.is_identity(group.multiply(g, g))]
        if len(gens) >= 2 and not group.equal(
            group.multiply(gens[0], gens[1]), group.multiply(gens[1], gens[0])
        ):
            with pytest.raises(GroupError, match="Abelian"):
                solve_hsp_elementary_abelian_two(
                    group, instance.oracle, gens, sampler=FourierSampler(rng=np.random.default_rng(0))
                )


class TestBulkEmbedLabeller:
    """``solve_hsp`` runs Theorem 13's domain scans in engine ids.

    The instance's group is a counted ``BlackBoxGroup`` keyed on the same
    engine as the oracle, so both ``TupleFunctionOracle`` scans (the
    restriction to N and the ``Z_2 x N`` probes) take the bulk labeller.
    Generators and the full query report must equal the engine-less leg's,
    whose scans run the scalar ``embed`` loop point by point.
    """

    @staticmethod
    def _solve(build, noise=None, seed=20010202):
        rng = np.random.default_rng(seed)
        instance = build(rng)
        sampler = FourierSampler(rng=rng)
        spec = None
        if noise is not None:
            spec = NoiseSpec.parse(noise)
            install_noise(spec, instance, sampler, run_seed=seed)
        return instance, solve_hsp(instance, strategy="elementary_abelian_two", sampler=sampler, noise=spec)

    @staticmethod
    def _wreath(k):
        def build(rng):
            group, normal_gens = wreath_instance(k)
            hidden = [group.uniform_random_element(rng)]
            return HSPInstance.from_subgroup(
                group, hidden, promises={"normal_generators": normal_gens, "cyclic_quotient": True}
            )

        return build

    @staticmethod
    def _semidirect(rng):
        group, normal_gens = elementary_abelian_semidirect_instance(4, "S3")
        hidden = [group.random_element(rng)]
        return HSPInstance.from_subgroup(
            group,
            hidden,
            promises={"normal_generators": normal_gens, "cyclic_quotient": False, "quotient_bound": 1 << 8},
        )

    def _compare(self, build, noise=None):
        scan_multiplies = []
        scanning = []
        original_mask = TupleFunctionOracle.identity_coset_mask
        original_multiply = BlackBoxGroup.multiply

        def mask(self):
            scanning.append(True)
            try:
                return original_mask(self)
            finally:
                scanning.pop()

        def multiply(self, a, b):
            if scanning:
                scan_multiplies.append((a, b))
            return original_multiply(self, a, b)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(TupleFunctionOracle, "identity_coset_mask", mask)
            patch.setattr(BlackBoxGroup, "multiply", multiply)
            instance, bulk = self._solve(build, noise)
            assert instance.oracle.dense_engine is not None
            assert scan_multiplies == [], "a domain scan fell back to the scalar embed loop"
            with no_engine():
                _, scalar = self._solve(build, noise)
            assert scan_multiplies, "the engine-less leg should scan through scalar embeds"
        assert bulk.status == scalar.status
        assert bulk.generators == scalar.generators
        assert bulk.query_report == scalar.query_report
        if noise is None:
            assert bulk.status == "ok"
            assert instance.verify(bulk.generators or [instance.group.identity()])
        return bulk

    @pytest.mark.parametrize("k", [2, 3])
    def test_cyclic_path_matches_scalar_loop(self, k):
        solution = self._compare(self._wreath(k))
        assert solution.details.cyclic_path

    def test_general_path_matches_scalar_loop(self):
        solution = self._compare(self._semidirect)
        assert not solution.details.cyclic_path

    def test_oracle_flip_matches_scalar_loop(self):
        self._compare(self._wreath(2), noise="oracle-flip(0.3)")
