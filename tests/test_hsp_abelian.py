"""Tests for the Abelian HSP engine (Theorem 3) and the Cheung--Mosca decomposition (Theorem 1)."""

import math

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance, random_abelian_hsp_instance
from repro.blackbox.oracle import QueryCounter
from repro.groups.abelian import AbelianTupleGroup, cyclic_group, elementary_abelian_group
from repro.groups.extraspecial import extraspecial_group
from repro.hsp.abelian import solve_abelian_hsp, solve_hsp_in_abelian_group
from repro.hsp.decomposition import decompose_abelian_group
from repro.hsp.oracles import linear_kernel_of_power_product, power_product_oracle
from repro.linalg.zmodule import subgroup_order
from repro.quantum.sampling import FourierSampler, SubgroupStructureOracle, TupleFunctionOracle


def simon(rank):
    """Simon's problem on Z_2^(2·rank): H pairs coordinate j with j + rank."""
    return [2] * (2 * rank), [tuple(int(i in (j, j + rank)) for i in range(2 * rank)) for j in range(rank)]


class TestSolveAbelianHSP:
    @pytest.mark.parametrize(
        "moduli,hidden",
        [
            ([8], [(2,)]),
            ([8], [(0,)]),
            ([8], [(1,)]),
            ([2, 2, 2, 2], [(1, 1, 0, 0), (0, 0, 1, 1)]),   # Simon's problem
            ([8, 9], [(2, 3)]),
            ([4, 6, 5], [(2, 0, 0), (0, 3, 0)]),
            ([16, 27], [(4, 9)]),
            ([16, 9], [(4, 3)]),   # 144 points: the auto backend is the statevector
            simon(2),
            simon(4),
            simon(8),
        ],
    )
    def test_known_hidden_subgroups(self, moduli, hidden, rng):
        oracle = SubgroupStructureOracle(moduli, hidden)
        result = solve_abelian_hsp(oracle, sampler=FourierSampler(rng=rng))
        module = oracle.module
        assert module.subgroups_equal(result.generators or [module.identity()], hidden)
        assert result.subgroup_order == subgroup_order(hidden, moduli)

    def test_statevector_and_analytic_agree(self, rng):
        moduli = [4, 6]
        hidden = [(2, 3)]
        oracle_a = SubgroupStructureOracle(moduli, hidden)
        oracle_b = SubgroupStructureOracle(moduli, hidden)
        result_a = solve_abelian_hsp(oracle_a, sampler=FourierSampler("analytic", rng=rng))
        result_b = solve_abelian_hsp(oracle_b, sampler=FourierSampler("statevector", rng=rng))
        assert result_a.generators == result_b.generators

    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        moduli = [int(rng.choice([2, 3, 4, 5, 8, 9, 16])) for _ in range(int(rng.integers(1, 4)))]
        instance = random_abelian_hsp_instance(moduli, rng)
        result = solve_hsp_in_abelian_group(instance.group.group, instance.oracle, FourierSampler(rng=rng))
        assert instance.verify(result.generators or [instance.group.identity()])

    @pytest.mark.parametrize(
        "moduli,hidden",
        [
            ([2**12, 3**7, 5**5], [(2**5, 3**2, 5), (0, 3**4, 0)]),
            ([2**8, 2**8], [(6, 40), (0, 128)]),                                  # log2|G| = 16
            ([2**8, 3**5, 5**3], [(12, 9, 25), (64, 0, 5)]),                      # 24
            ([2**16, 3**10], [(3, 7), (2**10, 3**4)]),                            # 32
            ([2**16, 3**10, 5**7, 7**5], [(2**4, 3, 5**2, 7), (0, 3**6, 0, 7**3)]),  # 48
        ],
    )
    def test_large_group_with_declared_structure(self, moduli, hidden, rng):
        """The analytic backend scales to groups far beyond enumeration."""
        group = AbelianTupleGroup(moduli)
        instance = HSPInstance.from_subgroup(group, hidden)
        result = solve_hsp_in_abelian_group(group, instance.oracle, FourierSampler("analytic", rng=rng))
        assert instance.verify(result.generators)
        assert result.query_report["classical_queries"] == 0

    def test_query_counts_are_logarithmic(self, rng):
        moduli = [2**10, 2**10]
        oracle = SubgroupStructureOracle(moduli, [(4, 8)])
        result = solve_abelian_hsp(oracle, sampler=FourierSampler("analytic", rng=rng))
        assert result.rounds <= 4 * (20 + 12)
        assert result.query_report["quantum_queries"] == result.rounds

    def test_function_oracle_without_declared_kernel(self, rng):
        # Hidden subgroup of f(x) = x mod 3 on Z_12 is <3>.
        oracle = TupleFunctionOracle([12], lambda x: x[0] % 3)
        result = solve_abelian_hsp(oracle, sampler=FourierSampler(rng=rng))
        module = oracle.module
        assert module.subgroups_equal(result.generators, [(3,)])


class TestPowerProductOracles:
    def test_linear_kernel_matches_bruteforce(self):
        group = AbelianTupleGroup([4, 6])
        elements = [(2, 0), (2, 3)]
        orders = [group.element_order(e) for e in elements]
        kernel = linear_kernel_of_power_product(group, elements, orders)
        module_orders = orders
        from repro.linalg.zmodule import ZModule

        domain = ZModule(module_orders)
        expected = [
            alpha
            for alpha in domain.elements()
            if group.is_identity(
                group.multiply(group.power(elements[0], alpha[0]), group.power(elements[1], alpha[1]))
            )
        ]
        kernel_elements = domain.subgroup_elements(kernel)
        assert sorted(kernel_elements) == sorted(expected)

    def test_power_product_oracle_declares_kernel_for_abelian(self):
        group = AbelianTupleGroup([8])
        oracle = power_product_oracle(group, [(2,)], [4])
        assert oracle.kernel_generators() is not None

    def test_power_product_oracle_nonabelian_enumerates(self, rng):
        group = extraspecial_group(3)
        x = ((1,), (0,), 0)
        z = ((0,), (0,), 1)
        oracle = power_product_oracle(group, [x, z], [3, 3])
        kernel = oracle.kernel_generators()
        # x and z are independent of order 3: kernel is trivial.
        assert all(all(v % 3 == 0 for v in k) for k in kernel)


class TestCheungMoscaDecomposition:
    @pytest.mark.parametrize(
        "moduli,expected_invariants",
        [
            ([12], [12]),
            ([4, 6], [2, 12]),
            ([4, 6, 5], [2, 60]),
            ([2, 2, 2], [2, 2, 2]),
            ([9, 27], [9, 27]),
            ([4, 25], [100]),
            ([16, 81, 25], [32400]),
            ([2**10, 3**6, 5**4], [2**10 * 3**6 * 5**4]),
            ([2**16, 3**10, 5**8, 7**4], [2**16 * 3**10 * 5**8 * 7**4]),
        ],
    )
    def test_invariant_factors(self, moduli, expected_invariants, rng):
        group = AbelianTupleGroup(moduli)
        decomposition = decompose_abelian_group(group, sampler=FourierSampler(rng=rng))
        assert sorted(decomposition.invariant_factors) == sorted(expected_invariants)
        assert decomposition.group_order == group.order()

    def test_factor_elements_have_claimed_orders(self, rng):
        group = AbelianTupleGroup([8, 12, 5])
        decomposition = decompose_abelian_group(group, sampler=FourierSampler(rng=rng))
        for factor in decomposition.factors:
            assert group.element_order(factor.element) == factor.order

    @pytest.mark.parametrize(
        "moduli,generators",
        [
            ([16, 9], [(4, 3)]),
            # redundant generators grow the relation lattice, not the group
            ([2**8, 3**5], [(6, 9), (12, 18)]),
            ([2**8, 3**5], [(6, 9), (12, 18), (4, 0), (0, 27)]),
            ([2**8, 3**5], [(6, 9), (12, 18), (4, 0), (0, 27), (2, 3), (8, 81), (64, 1), (128, 0)]),
        ],
    )
    def test_decomposition_of_subgroup(self, moduli, generators, rng):
        group = AbelianTupleGroup(moduli)
        decomposition = decompose_abelian_group(group, generators=generators, sampler=FourierSampler(rng=rng))
        assert decomposition.group_order == subgroup_order(generators, moduli)

    def test_decomposition_of_abelian_subgroup_of_nonabelian_group(self, rng):
        group = extraspecial_group(5)
        center = group.center_generators()
        decomposition = decompose_abelian_group(group, generators=center, sampler=FourierSampler(rng=rng))
        assert decomposition.group_order == 5
        assert decomposition.invariant_factors == [5]

    def test_rejects_noncommuting_generators(self, rng):
        group = extraspecial_group(3)
        with pytest.raises(ValueError):
            decompose_abelian_group(group, generators=group.generators(), sampler=FourierSampler(rng=rng))

    def test_trivial_group(self, rng):
        group = cyclic_group(5)
        decomposition = decompose_abelian_group(group, generators=[(0,)], sampler=FourierSampler(rng=rng))
        assert decomposition.group_order == 1
        assert decomposition.factors == []

    def test_sylow_orders(self, rng):
        group = AbelianTupleGroup([8, 9, 5])
        decomposition = decompose_abelian_group(group, sampler=FourierSampler(rng=rng))
        assert decomposition.sylow_subgroup_orders() == {2: 8, 3: 9, 5: 5}
        assert sorted(decomposition.prime_power_orders()) == [5, 8, 9]

    def test_elementary_abelian(self, rng):
        group = elementary_abelian_group(3, 3)
        decomposition = decompose_abelian_group(group, sampler=FourierSampler(rng=rng))
        assert decomposition.invariant_factors == [3, 3, 3]
