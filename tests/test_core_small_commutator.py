"""Tests for the small-commutator-subgroup HSP solver (Theorem 11, Corollary 12)."""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance
from repro.core.small_commutator import solve_hsp_small_commutator
from repro.groups.abelian import AbelianTupleGroup, cyclic_group
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import DirectProduct, dihedral_semidirect, metacyclic_group
from repro.groups.subgroup import generate_subgroup_elements
from repro.quantum.sampling import FourierSampler


def _heisenberg(rank, rng):
    group = extraspecial_group(3, n=rank)  # order 3^(2·rank + 1)
    return group, [group.uniform_random_element(rng)]


def _cyclic_times_heisenberg(k, rng):
    group = DirectProduct([cyclic_group(2**k), extraspecial_group(3)])
    return group, [((1,), group.factors[1].uniform_random_element(rng))]


def solve_and_verify(group, hidden_generators, rng, **kwargs):
    instance = HSPInstance.from_subgroup(group, hidden_generators)
    result = solve_hsp_small_commutator(
        group, instance.oracle, sampler=FourierSampler(rng=rng), **kwargs
    )
    assert instance.verify(result.generators or [group.identity()]), result.generators
    return result


class TestExtraspecialGroups:
    """Corollary 12: extraspecial p-groups, |G'| = p."""

    @pytest.mark.parametrize("p", [3, 5, 7, 11])
    def test_cyclic_hidden_subgroups(self, p, rng):
        group = extraspecial_group(p)
        hidden = [group.uniform_random_element(rng)]
        result = solve_and_verify(group, hidden, rng, commutator_elements=group.commutator_subgroup_elements())
        assert result.commutator_order == p

    @pytest.mark.parametrize("p", [3, 5])
    def test_two_generator_hidden_subgroups(self, p, rng):
        group = extraspecial_group(p)
        for _ in range(3):
            hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
            solve_and_verify(group, hidden, rng, commutator_elements=group.commutator_subgroup_elements())

    def test_trivial_hidden_subgroup(self, rng):
        group = extraspecial_group(3)
        result = solve_and_verify(group, [group.identity()], rng)
        assert result.generators == []

    def test_whole_group_hidden(self, rng):
        group = extraspecial_group(3)
        solve_and_verify(group, group.generators(), rng)

    def test_center_hidden(self, rng):
        group = extraspecial_group(5)
        result = solve_and_verify(group, group.center_generators(), rng)
        assert result.intersection_generators  # H = Z(G) = G' is found via the intersection

    def test_commutator_subgroup_enumerated_when_not_supplied(self, rng):
        group = extraspecial_group(3)
        hidden = [group.uniform_random_element(rng)]
        result = solve_and_verify(group, hidden, rng)
        assert result.commutator_order == 3

    @pytest.mark.parametrize(
        "build,size",
        [
            (_heisenberg, 2),
            (_heisenberg, 1),
            (_heisenberg, 3),
            (_cyclic_times_heisenberg, 2),
            (_cyclic_times_heisenberg, 4),
            (_cyclic_times_heisenberg, 6),
        ],
        ids=["H3(2)", "H3(1)", "H3(3)", "Z4xH3", "Z16xH3", "Z64xH3"],
    )
    def test_generalised_heisenberg(self, build, size, rng):
        """|G'| = 3 fixed while log |G| grows."""
        group, hidden = build(size, rng)
        result = solve_and_verify(group, hidden, rng)
        assert result.commutator_order == 3


class TestOtherSmallCommutatorGroups:
    @pytest.mark.parametrize("n", [6, 10, 14])
    def test_dihedral_group(self, n, rng):
        # D_n, n even: G' = <r^2> of order n/2; the reflection subgroups are not normal.
        group = dihedral_semidirect(n)
        for hidden in [
            [group.embed_quotient((1,))],
            [group.embed_normal((2,))],
            [group.embed_normal((3,))],
            [group.multiply(group.embed_normal((1,)), group.embed_quotient((1,)))],
        ]:
            result = solve_and_verify(group, hidden, rng)
            assert result.commutator_order == n // 2

    def test_metacyclic_group(self, rng):
        # Z_7 : Z_3 has G' = Z_7.
        group = metacyclic_group(7, 3)
        for hidden in [[group.embed_normal((1,))], [group.embed_quotient((1,))]]:
            result = solve_and_verify(group, hidden, rng)
            assert result.commutator_order == 7

    def test_abelian_group_has_trivial_commutator(self, rng):
        group = AbelianTupleGroup([6, 4])
        result = solve_and_verify(group, [(2, 2)], rng)
        assert result.commutator_order == 1

    def test_query_cost_scales_with_commutator_order(self, rng):
        small = solve_and_verify(extraspecial_group(3), [extraspecial_group(3).uniform_random_element(rng)], rng)
        big = solve_and_verify(extraspecial_group(7), [extraspecial_group(7).uniform_random_element(rng)], rng)
        assert small.commutator_order == 3 and big.commutator_order == 7
        # classical query cost grows with |G'| (the bundled oracle costs |G'| per value)
        assert big.query_report["classical_queries"] > small.query_report["classical_queries"]

    def test_result_structure(self, rng):
        group = extraspecial_group(3)
        hidden = [((1,), (0,), 0), ((0,), (0,), 1)]
        instance = HSPInstance.from_subgroup(group, hidden)
        result = solve_hsp_small_commutator(group, instance.oracle, sampler=FourierSampler(rng=rng))
        assert instance.verify(result.generators)
        subgroup = set(generate_subgroup_elements(group, hidden))
        for g in result.generators:
            assert g in subgroup
