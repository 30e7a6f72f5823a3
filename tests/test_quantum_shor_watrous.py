"""Unit tests for Shor-style primitives and the Watrous solvable-group layer."""

import numpy as np
import pytest

from repro.blackbox.oracle import QueryCounter
from repro.groups.abelian import AbelianTupleGroup, cyclic_group
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import symmetric_group
from repro.groups.products import dihedral_semidirect, metacyclic_group
from repro.quantum.sampling import FourierSampler
from repro.quantum.shor import (
    continued_fraction_convergents,
    order_via_period_sampling,
    quantum_discrete_log,
    quantum_element_order,
    quantum_factor,
    shor_period_gate_level,
)
from repro.quantum.watrous import (
    coset_identity_test,
    normal_subgroup_membership,
    order_modulo_subgroup,
    uniform_superposition_elements,
)


class TestContinuedFractions:
    def test_convergents_of_simple_fraction(self):
        convergents = continued_fraction_convergents(5, 8)
        assert convergents[-1] == pytest.approx(5 / 8)
        denominators = [c.denominator for c in convergents]
        assert 8 in denominators

    def test_convergents_find_period_denominator(self):
        # measurement outcome 683 out of 2^11 approximates k/3
        convergents = continued_fraction_convergents(683, 2048)
        assert any(c.denominator == 3 for c in convergents)


class TestGateLevelShor:
    @pytest.mark.parametrize("a,n,expected", [(2, 15, 4), (7, 15, 4), (4, 15, 2), (2, 21, 6), (5, 21, 6)])
    def test_period_finding(self, a, n, expected, rng):
        assert shor_period_gate_level(a, n, rng) == expected

    def test_rejects_non_unit(self, rng):
        with pytest.raises(ValueError):
            shor_period_gate_level(6, 15, rng)

    def test_factor_small_semiprime(self, rng):
        assert quantum_factor(15, rng) == {3: 1, 5: 1}
        assert quantum_factor(21, rng) == {3: 1, 7: 1}

    def test_factor_large_falls_back(self, rng):
        counter = QueryCounter()
        assert quantum_factor(3 * 5 * 7 * 11 * 13, rng, counter) == {3: 1, 5: 1, 7: 1, 11: 1, 13: 1}
        assert counter.extra["factor_oracle_calls"] == 1


class TestOrderFinding:
    def test_quantum_element_order_accounts_calls(self):
        group = cyclic_group(60)
        counter = QueryCounter()
        assert quantum_element_order(group, (12,), counter) == 5
        assert quantum_element_order(group, (7,), counter) == 60
        assert counter.extra["order_oracle_calls"] == 2

    @pytest.mark.parametrize(
        "group,element,expected",
        [
            (cyclic_group(60), (12,), 5),
            (AbelianTupleGroup([8, 9]), (2, 3), 12),
            (extraspecial_group(5), ((1,), (0,), 0), 5),
            (dihedral_semidirect(9), ((0,), (1,)), 2),
            # order finding as an Abelian HSP over Z_E, E = 2^b - 1 (3 divides E)
            (AbelianTupleGroup([2**8 - 1]), (3,), (2**8 - 1) // 3),
            (AbelianTupleGroup([2**16 - 1]), (3,), (2**16 - 1) // 3),
            (AbelianTupleGroup([2**24 - 1]), (3,), (2**24 - 1) // 3),
        ],
    )
    def test_order_via_period_sampling(self, group, element, expected, rng):
        exponent = group.exponent_bound()
        sampler = FourierSampler(rng=rng)
        assert order_via_period_sampling(group, element, exponent, sampler) == expected

    def test_discrete_log_oracle(self):
        counter = QueryCounter()
        assert quantum_discrete_log(3, pow(3, 17, 101), 101, counter) == 17 % 100
        assert counter.extra["dlog_oracle_calls"] == 1


class TestWatrousPrimitives:
    def test_membership_oracle_counts(self):
        group = dihedral_semidirect(7)
        counter = QueryCounter()
        rotation = group.embed_normal((1,))
        member = normal_subgroup_membership(group, [rotation], counter)
        assert member(group.embed_normal((3,)))
        assert not member(group.embed_quotient((1,)))
        assert counter.extra["membership_oracle_calls"] == 2

    def test_uniform_superposition_support(self):
        group = dihedral_semidirect(6)
        elements = uniform_superposition_elements(group, [group.embed_normal((2,))])
        assert len(elements) == 3

    def test_coset_identity_test(self):
        group = metacyclic_group(7, 3)
        normal = [group.embed_normal((1,))]
        same_coset = coset_identity_test(group, normal)
        a = group.embed_quotient((1,))
        b = group.multiply(a, group.embed_normal((5,)))
        assert same_coset(a, b)
        assert not same_coset(a, group.identity())

    @pytest.mark.parametrize(
        "n,element_builder,expected",
        [
            (9, lambda g: g.embed_quotient((1,)), 2),
            (9, lambda g: g.embed_normal((3,)), 1),
            (9, lambda g: g.multiply(g.embed_normal((1,)), g.embed_quotient((1,))), 2),
            (32, lambda g: g.multiply(g.embed_normal((3,)), g.embed_quotient((1,))), 2),
            (128, lambda g: g.multiply(g.embed_normal((3,)), g.embed_quotient((1,))), 2),
            (512, lambda g: g.multiply(g.embed_normal((3,)), g.embed_quotient((1,))), 2),
        ],
    )
    def test_order_modulo_subgroup_dihedral(self, n, element_builder, expected):
        group = dihedral_semidirect(n)
        normal = [group.embed_normal((1,))]
        element = element_builder(group)
        assert order_modulo_subgroup(group, element, normal) == expected

    def test_order_modulo_subgroup_permutation(self):
        s4 = symmetric_group(4)
        from repro.groups.perm import alternating_group

        a4 = alternating_group(4).generators()
        transposition = (1, 0, 2, 3)
        three_cycle = (1, 2, 0, 3)
        assert order_modulo_subgroup(s4, transposition, a4) == 2
        assert order_modulo_subgroup(s4, three_cycle, a4) == 1

    def test_order_modulo_trivial_subgroup_is_element_order(self):
        group = cyclic_group(12)
        assert order_modulo_subgroup(group, (4,), [(0,)]) == 3
