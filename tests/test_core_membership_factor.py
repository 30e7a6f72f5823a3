"""Tests for constructive membership (Theorem 6) and the factor-group toolkits (Theorems 7, 10)."""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance, hiding_oracle_from_subgroup
from repro.blackbox.oracle import QueryCounter
from repro.core.constructive_membership import abelian_subgroup_membership, constructive_membership
from repro.core.factor_group import GeneratedQuotient, HiddenQuotient
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import alternating_group, symmetric_group
from repro.groups.products import dihedral_semidirect, metacyclic_group, wreath_product_z2
from repro.quantum.sampling import FourierSampler


def rebuild(group, elements, exponents):
    product = group.identity()
    for element, exponent in zip(elements, exponents):
        product = group.multiply(product, group.power(element, exponent))
    return product


class TestConstructiveMembership:
    def test_expresses_member_in_abelian_group(self, sampler):
        group = AbelianTupleGroup([8, 9])
        h = [(2, 0), (0, 3)]
        target = (6, 6)
        exponents = constructive_membership(group, h, target, sampler=sampler)
        assert exponents is not None
        assert rebuild(group, h, exponents) == target

    @pytest.mark.parametrize("moduli,target", [([8, 9], (1, 0)), ([2**10, 3**6], (1, 1))])
    def test_rejects_non_member(self, moduli, target, sampler):
        group = AbelianTupleGroup(moduli)
        assert constructive_membership(group, [(2, 0), (0, 3)], target, sampler=sampler) is None
        assert not abelian_subgroup_membership(group, [(2, 0)], target, sampler=sampler)

    def test_identity_target(self, sampler):
        group = AbelianTupleGroup([8])
        exponents = constructive_membership(group, [(2,)], (0,), sampler=sampler)
        assert exponents is not None
        assert rebuild(group, [(2,)], exponents) == (0,)

    def test_empty_generating_set(self, sampler):
        group = AbelianTupleGroup([8])
        assert constructive_membership(group, [], (0,), sampler=sampler) == []
        assert constructive_membership(group, [], (2,), sampler=sampler) is None

    @pytest.mark.parametrize(
        "p,elements,exponents",
        [
            (5, [((1,), (0,), 0), ((0,), (0,), 1)], [2, 3]),
            (7, [((0,), (0,), 1)], [4]),  # a power of the central generator
        ],
        ids=["xz-p5", "center-p7"],
    )
    def test_commuting_elements_of_nonabelian_group(self, p, elements, exponents, sampler):
        group = extraspecial_group(p)
        target = rebuild(group, elements, exponents)
        found = constructive_membership(group, elements, target, sampler=sampler)
        assert found is not None
        assert group.equal(rebuild(group, elements, found), target)

    def test_non_member_in_nonabelian_group(self, sampler):
        group = extraspecial_group(5)
        x = ((1,), (0,), 0)
        y = ((0,), (1,), 0)
        assert constructive_membership(group, [x], y, sampler=sampler) is None

    @pytest.mark.parametrize("n,power", [(6, 4), (12, 7)])
    def test_permutation_group_cyclic_subgroup(self, n, power, sampler):
        group = symmetric_group(n)
        cycle = tuple(list(range(1, n)) + [0])
        target = group.power(cycle, power)
        exponents = constructive_membership(group, [cycle], target, sampler=sampler)
        assert exponents is not None
        assert group.equal(rebuild(group, [cycle], exponents), target)
        assert exponents[0] % n == power

    @pytest.mark.parametrize(
        "seed,moduli",
        [(seed, [16, 9, 5]) for seed in range(5)]
        + [(5, [2**6, 3**4]), (6, [2**12, 3**8]), (7, [2**20, 3**12, 5**8])],
    )
    def test_random_abelian_instances(self, seed, moduli):
        rng = np.random.default_rng(seed)
        sampler = FourierSampler(rng=rng)
        group = AbelianTupleGroup(moduli)
        h = [group.module.random_element(rng) for _ in range(2)]
        coefficients = [int(rng.integers(0, 20)) for _ in range(2)]
        target = rebuild(group, h, coefficients)
        exponents = constructive_membership(group, h, target, sampler=sampler)
        assert exponents is not None
        assert rebuild(group, h, exponents) == target

    def test_membership_modulo_hidden_subgroup(self, sampler):
        """Theorem 7 variant: the expression holds modulo the hidden normal subgroup."""
        group = dihedral_semidirect(9)
        rotation = group.embed_normal((1,))
        oracle = hiding_oracle_from_subgroup(group, [group.embed_normal((3,))])
        flip = group.embed_quotient((1,))
        # modulo <r^3>, the rotation r has order 3
        exponents = constructive_membership(group, [rotation], group.embed_normal((7,)), sampler=sampler, hiding=oracle)
        assert exponents is not None
        assert exponents[0] % 3 == 7 % 3
        assert constructive_membership(group, [rotation], flip, sampler=sampler, hiding=oracle) is None


class TestHiddenQuotient:
    def test_kernel_and_coset_tests(self):
        group = symmetric_group(4)
        oracle = hiding_oracle_from_subgroup(group, alternating_group(4).generators())
        quotient = HiddenQuotient(group, oracle)
        assert quotient.in_kernel((1, 2, 0, 3))
        assert not quotient.in_kernel((1, 0, 2, 3))
        assert quotient.coset_equal((1, 0, 2, 3), (0, 2, 1, 3))

    def test_order_modulo(self):
        group = dihedral_semidirect(15)
        oracle = hiding_oracle_from_subgroup(group, [group.embed_normal((5,))])
        quotient = HiddenQuotient(group, oracle)
        assert quotient.order_modulo(group.embed_normal((1,))) == 5
        assert quotient.order_modulo(group.embed_quotient((1,))) == 2

    def test_is_abelian_detection(self):
        group = dihedral_semidirect(9)
        rotations = hiding_oracle_from_subgroup(group, [group.embed_normal((1,))])
        sub_rotations = hiding_oracle_from_subgroup(group, [group.embed_normal((3,))])
        assert HiddenQuotient(group, rotations).is_abelian()
        assert not HiddenQuotient(group, sub_rotations).is_abelian()

    def test_abelian_presentation(self, sampler):
        group = symmetric_group(4)
        oracle = hiding_oracle_from_subgroup(group, alternating_group(4).generators())
        quotient = HiddenQuotient(group, oracle)
        presentation = quotient.abelian_presentation(sampler=sampler)
        assert presentation.quotient_order() == 2
        for relator in presentation.relator_elements(group):
            assert quotient.in_kernel(relator)

    def test_presentation_of_trivial_quotient(self, sampler):
        group = AbelianTupleGroup([6])
        oracle = hiding_oracle_from_subgroup(group, [(1,)])
        presentation = HiddenQuotient(group, oracle).abelian_presentation(sampler=sampler)
        assert presentation.rank == 0
        assert presentation.quotient_order() == 1


class TestGeneratedQuotient:
    def test_membership_and_orders(self):
        group = wreath_product_z2(2)
        normal = group.normal_part_generators()
        quotient = GeneratedQuotient(group, normal)
        assert quotient.in_kernel(group.embed_normal((1, 0, 1, 1)))
        assert not quotient.in_kernel(group.embed_quotient((1,)))
        assert quotient.order_modulo(group.embed_quotient((1,))) == 2
        assert quotient.is_abelian()

    def test_quotient_order_bound(self):
        group = metacyclic_group(7, 3)
        quotient = GeneratedQuotient(group, [group.embed_normal((1,))])
        assert quotient.quotient_order_bound() == 3

    def test_cyclic_prime_power_representatives_cover_subgroups(self):
        """For a cyclic quotient the representative set meets every subgroup."""
        group = dihedral_semidirect(12)  # N = <r>: G/N = Z_2
        quotient = GeneratedQuotient(group, [group.embed_normal((1,))])
        reps = quotient.cyclic_prime_power_representatives()
        assert any(not quotient.in_kernel(z) for z in reps)

    def test_cyclic_representatives_in_affine_group(self):
        from repro.groups.catalog import affine_gf2_instance

        group, normal = affine_gf2_instance(3)
        quotient = GeneratedQuotient(group, normal)
        reps = quotient.cyclic_prime_power_representatives()
        # |G/N| = 7 (prime): one Sylow generator suffices.
        assert len(reps) >= 1
        assert all(not quotient.in_kernel(z) for z in reps[:1])

    def test_abelian_presentation_of_generated_quotient(self, sampler):
        group = wreath_product_z2(2)
        quotient = GeneratedQuotient(group, group.normal_part_generators())
        presentation = quotient.abelian_presentation(sampler=sampler)
        assert presentation.quotient_order() == 2
