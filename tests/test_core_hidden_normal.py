"""Tests for the hidden normal subgroup algorithm (Theorem 8)."""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance
from repro.core.hidden_normal import find_hidden_normal_subgroup
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.base import GroupError
from repro.groups.catalog import wreath_instance
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import alternating_group, dihedral_group, symmetric_group
from repro.groups.products import dihedral_semidirect, metacyclic_group
from repro.quantum.sampling import FourierSampler


def solve_and_verify(group, hidden_generators, rng, **kwargs):
    instance = HSPInstance.from_subgroup(group, hidden_generators)
    result = find_hidden_normal_subgroup(
        group, instance.oracle, sampler=FourierSampler(rng=rng), **kwargs
    )
    assert instance.verify(result.generators or [group.identity()]), result.generators
    return result


class TestAbelianQuotientPath:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_alternating_inside_symmetric(self, n, rng):
        result = solve_and_verify(symmetric_group(n), alternating_group(n).generators(), rng)
        assert result.method == "abelian-quotient"
        assert result.quotient_order == 2

    @pytest.mark.parametrize("n", [15, 8, 32, 128, 512])
    def test_rotation_subgroup_of_dihedral(self, n, rng):
        group = dihedral_semidirect(n)
        result = solve_and_verify(group, [group.embed_normal((1,))], rng)
        assert result.method == "abelian-quotient"

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_center_of_extraspecial_group(self, p, rng):
        group = extraspecial_group(p)
        result = solve_and_verify(group, group.center_generators(), rng)
        assert result.quotient_order == p * p

    @pytest.mark.parametrize("p,q", [(13, 3), (7, 3), (31, 5), (127, 7)])
    def test_normal_subgroup_of_metacyclic_group(self, p, q, rng):
        group = metacyclic_group(p, q)
        result = solve_and_verify(group, [group.embed_normal((1,))], rng)
        assert result.quotient_order == q

    def test_whole_group_as_hidden_subgroup(self, rng):
        group = dihedral_semidirect(5)
        result = solve_and_verify(group, group.generators(), rng)
        assert result.quotient_order == 1

    def test_base_group_of_wreath_product(self, rng):
        group, normal_gens = wreath_instance(2)
        result = solve_and_verify(group, normal_gens, rng)
        assert result.quotient_order == 2

    def test_normal_subgroup_of_abelian_group(self, rng):
        group = AbelianTupleGroup([8, 9])
        solve_and_verify(group, [(2, 3)], rng)

    def test_commutator_subgroup_is_found(self, rng):
        # G' = <r^2> is hidden; G/G' is the Klein four group (Abelian).
        group = dihedral_semidirect(8)
        solve_and_verify(group, [group.embed_normal((2,))], rng)


class TestBoundedQuotientPath:
    @pytest.mark.parametrize("n,d,bound", [(15, 5, 32), (33, 3, 24), (55, 5, 40), (77, 7, 56)])
    def test_dihedral_with_dihedral_quotient(self, n, d, bound, rng):
        """<r^d> in D_n with dihedral quotient of order 2d."""
        group = dihedral_semidirect(n)
        result = solve_and_verify(group, [group.embed_normal((d,))], rng, quotient_bound=bound)
        assert result.method == "bounded-quotient-schreier"
        assert result.quotient_order == 2 * d

    def test_permutation_group_with_nonabelian_quotient(self, rng):
        # V_4 (the Klein four group) is normal in S_4 with quotient S_3.
        s4 = symmetric_group(4)
        klein = [(1, 0, 3, 2), (2, 3, 0, 1)]
        result = solve_and_verify(s4, klein, rng, quotient_bound=8)
        assert result.quotient_order == 6

    def test_trivial_hidden_subgroup_small_group(self, rng):
        group = dihedral_semidirect(4)
        instance = HSPInstance.from_subgroup(group, [group.identity()])
        result = find_hidden_normal_subgroup(
            group, instance.oracle, sampler=FourierSampler(rng=rng), quotient_bound=16
        )
        assert result.generators == [] or instance.verify(result.generators)
        assert result.quotient_order == 8

    def test_bound_violation_raises(self, rng):
        group = dihedral_semidirect(15)
        instance = HSPInstance.from_subgroup(group, [group.embed_normal((5,))])
        with pytest.raises(GroupError):
            find_hidden_normal_subgroup(
                group, instance.oracle, sampler=FourierSampler(rng=rng), quotient_bound=4
            )

    def test_nonabelian_quotient_without_bound_raises(self, rng):
        group = dihedral_semidirect(15)
        instance = HSPInstance.from_subgroup(group, [group.embed_normal((5,))])
        with pytest.raises(GroupError):
            find_hidden_normal_subgroup(group, instance.oracle, sampler=FourierSampler(rng=rng))


class TestQueryAccounting:
    def test_query_report_records_quantum_rounds(self, rng):
        group = symmetric_group(4)
        instance = HSPInstance.from_subgroup(group, alternating_group(4).generators())
        result = find_hidden_normal_subgroup(group, instance.oracle, sampler=FourierSampler(rng=rng))
        assert result.query_report["quantum_queries"] > 0
        assert result.relator_count >= 1

    def test_quantum_queries_scale_mildly_with_group_size(self, rng):
        small = solve_and_verify(dihedral_semidirect(6), [dihedral_semidirect(6).embed_normal((1,))], rng)
        big_group = dihedral_semidirect(60)
        big = solve_and_verify(big_group, [big_group.embed_normal((1,))], rng)
        assert big.query_report["quantum_queries"] <= 4 * max(small.query_report["quantum_queries"], 1) + 64
