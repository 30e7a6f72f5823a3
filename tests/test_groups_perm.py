"""Unit tests for permutation groups and the Schreier--Sims chain."""

import math

import numpy as np
import pytest

from repro.groups.base import GroupError
from repro.groups.perm import (
    PermutationGroup,
    SchreierSims,
    alternating_group,
    compose,
    cycle_decomposition,
    cyclic_permutation_group,
    dihedral_group,
    invert,
    permutation_from_cycles,
    permutation_order,
    permutation_sign,
    symmetric_group,
)


class TestPermutationPrimitives:
    def test_compose_applies_right_first(self):
        p = (1, 2, 0)  # 0->1->2->0
        q = (0, 2, 1)  # swap 1,2
        assert compose(p, q) == (1, 0, 2)

    def test_invert(self):
        p = (2, 0, 1)
        assert compose(p, invert(p)) == (0, 1, 2)
        assert compose(invert(p), p) == (0, 1, 2)

    def test_from_cycles(self):
        assert permutation_from_cycles(4, [(0, 1, 2)]) == (1, 2, 0, 3)
        assert permutation_from_cycles(3, []) == (0, 1, 2)

    def test_from_cycles_out_of_range(self):
        with pytest.raises(GroupError):
            permutation_from_cycles(3, [(0, 5)])

    def test_cycle_decomposition_roundtrip(self):
        p = permutation_from_cycles(6, [(0, 1, 2), (3, 4)])
        cycles = cycle_decomposition(p)
        assert sorted(len(c) for c in cycles) == [2, 3]
        assert permutation_from_cycles(6, cycles) == p

    def test_order_is_lcm_of_cycles(self):
        p = permutation_from_cycles(7, [(0, 1, 2), (3, 4)])
        assert permutation_order(p) == 6
        assert permutation_order(tuple(range(5))) == 1

    def test_sign(self):
        assert permutation_sign(permutation_from_cycles(4, [(0, 1)])) == -1
        assert permutation_sign(permutation_from_cycles(4, [(0, 1, 2)])) == 1


class TestSchreierSims:
    @pytest.mark.parametrize("n,expected", [(3, 6), (4, 24), (5, 120), (6, 720), (7, 5040)])
    def test_symmetric_group_orders(self, n, expected):
        assert symmetric_group(n).order() == expected

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 12), (5, 60), (6, 360)])
    def test_alternating_group_orders(self, n, expected):
        assert alternating_group(n).order() == expected

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_dihedral_and_cyclic_orders(self, n):
        assert dihedral_group(n).order() == 2 * n
        assert cyclic_permutation_group(n).order() == n

    def test_membership_sifting(self):
        a5 = alternating_group(5)
        even = permutation_from_cycles(5, [(0, 1, 2)])
        odd = permutation_from_cycles(5, [(0, 1)])
        assert a5.contains_permutation(even)
        assert not a5.contains_permutation(odd)

    def test_membership_wrong_degree(self):
        s4 = symmetric_group(4)
        assert not s4.chain.contains((1, 0, 2))

    def test_uniform_random_elements_are_members(self, rng):
        group = dihedral_group(7)
        for _ in range(20):
            g = group.uniform_random_element(rng)
            assert group.contains_permutation(g)

    def test_random_element_distribution_covers_group(self, rng):
        group = cyclic_permutation_group(5)
        seen = {group.uniform_random_element(rng) for _ in range(200)}
        assert len(seen) == 5

    def test_chain_of_trivial_group(self):
        chain = SchreierSims([], 4)
        assert chain.order() == 1
        assert chain.contains((0, 1, 2, 3))
        assert not chain.contains((1, 0, 2, 3))


class TestPermutationGroupInterface:
    def test_group_axioms_on_samples(self, rng):
        group = symmetric_group(5)
        for _ in range(10):
            a = group.uniform_random_element(rng)
            b = group.uniform_random_element(rng)
            c = group.uniform_random_element(rng)
            assert group.multiply(group.multiply(a, b), c) == group.multiply(a, group.multiply(b, c))
            assert group.multiply(a, group.inverse(a)) == group.identity()

    def test_element_order_override(self):
        group = symmetric_group(6)
        p = permutation_from_cycles(6, [(0, 1, 2), (3, 4)])
        assert group.element_order(p) == 6

    def test_invalid_generator_rejected(self):
        with pytest.raises(GroupError):
            PermutationGroup([(0, 0, 1)])

    def test_degree_required_for_trivial(self):
        with pytest.raises(GroupError):
            PermutationGroup([])

    def test_encode_decode_roundtrip(self):
        group = symmetric_group(5)
        p = permutation_from_cycles(5, [(0, 3, 2)])
        assert group.decode(group.encode(p)) == p

    def test_encode_decode_roundtrip_past_degree_255(self):
        group = cyclic_permutation_group(300)
        p = group.generators()[0]
        q = compose(p, p)
        assert group.decode(group.encode(p)) == p
        assert group.decode(group.encode(q)) == q

    @pytest.mark.parametrize(
        "payload",
        [
            # Code, not a literal: it must never run.
            b"(__import__('builtins').__setattr__('PERMUTATION_PAYLOAD_RAN', 1),)",
            b"tuple(range(300))",
            repr(tuple(range(299))).encode(),  # a literal of the wrong degree
            repr((1, 1) + tuple(range(2, 300))).encode(),  # a repeated point
            repr(tuple(float(i) for i in range(300))).encode(),  # not integers
            repr(list(range(300))).encode(),  # not a tuple
            b"\xff",
        ],
        ids=["code", "call", "degree", "repeat", "floats", "list", "bytes"],
    )
    def test_decode_past_degree_255_rejects_what_is_not_a_permutation(self, payload):
        import builtins

        group = cyclic_permutation_group(300)
        with pytest.raises(GroupError, match="degree 300"):
            group.decode(payload)
        assert not hasattr(builtins, "PERMUTATION_PAYLOAD_RAN")

    def test_is_transitive(self):
        assert symmetric_group(4).is_transitive()
        intransitive = PermutationGroup([permutation_from_cycles(4, [(0, 1)])], degree=4)
        assert not intransitive.is_transitive()

    def test_power_and_commutator(self):
        group = dihedral_group(5)
        r, s = group.generators()
        assert group.power(r, 5) == group.identity()
        assert group.power(r, -1) == group.inverse(r)
        # srs^-1 = r^-1 in the dihedral group
        assert group.conjugate(s, r) == group.inverse(r)

    def test_exponent_bound_is_multiple_of_orders(self, rng):
        group = symmetric_group(5)
        bound = group.exponent_bound()
        for _ in range(10):
            g = group.uniform_random_element(rng)
            assert bound % permutation_order(g) == 0
