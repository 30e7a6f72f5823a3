"""End-to-end integration tests across the whole solver stack.

Each test builds an instance the way the benchmark harness does (concrete
group + known hidden subgroup + structural promises), runs the top-level
dispatcher, and verifies the recovered subgroup against ground truth while
checking the cost accounting that the experiments report.
"""

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance, random_abelian_hsp_instance
from repro.core.solver import solve_hsp
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.catalog import (
    affine_gf2_instance,
    elementary_abelian_semidirect_instance,
    wreath_instance,
)
from repro.groups.extraspecial import extraspecial_group
from repro.groups.perm import alternating_group, symmetric_group
from repro.groups.products import dihedral_semidirect, metacyclic_group
from repro.groups.subgroup import generate_subgroup_elements, subgroup_order
from repro.hsp.baseline_classical import classical_exhaustive_hsp
from repro.hsp.rotteler_beth import rotteler_beth_wreath
from repro.quantum.sampling import FourierSampler


class TestEndToEndFamilies:
    @pytest.mark.parametrize(
        "seed,moduli",
        [(seed, [2**6, 3**4, 5**3]) for seed in range(4)]
        + [(4, [16, 16]), (5, [32, 32]), (6, [64, 64])],
    )
    def test_abelian_scaling_instances(self, seed, moduli):
        rng = np.random.default_rng(seed)
        instance = random_abelian_hsp_instance(moduli, rng)
        solution = solve_hsp(instance, rng=rng)
        assert instance.verify(solution.generators or [instance.group.identity()])

    @pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
    def test_extraspecial_families(self, p, rng):
        group = extraspecial_group(p)
        for _ in range(2):
            hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
            instance = HSPInstance.from_subgroup(
                group, hidden, promises={"commutator_elements": group.commutator_subgroup_elements()}
            )
            solution = solve_hsp(instance, rng=rng)
            assert instance.verify(solution.generators or [group.identity()])

    @pytest.mark.parametrize("k", [2, 3])
    def test_wreath_families(self, k, rng):
        group, normal_gens = wreath_instance(k)
        hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
        instance = HSPInstance.from_subgroup(
            group, hidden, promises={"normal_generators": normal_gens, "cyclic_quotient": True}
        )
        solution = solve_hsp(instance, rng=rng)
        assert instance.verify(solution.generators or [group.identity()])

    def test_affine_family(self, rng):
        group, normal_gens = affine_gf2_instance(3)
        hidden = [group.random_element(rng)]
        instance = HSPInstance.from_subgroup(
            group, hidden, promises={"normal_generators": normal_gens, "cyclic_quotient": True}
        )
        solution = solve_hsp(instance, rng=rng)
        assert instance.verify(solution.generators or [group.identity()])

    def test_general_theorem13_family(self, rng):
        group, normal_gens = elementary_abelian_semidirect_instance(4, "S3")
        hidden = [group.random_element(rng)]
        instance = HSPInstance.from_subgroup(
            group, hidden, promises={"normal_generators": normal_gens, "cyclic_quotient": False, "quotient_bound": 8}
        )
        solution = solve_hsp(instance, rng=rng)
        assert instance.verify(solution.generators or [group.identity()])

    def test_hidden_normal_in_permutation_group(self, rng):
        s4 = symmetric_group(4)
        instance = HSPInstance.from_subgroup(
            s4, alternating_group(4).generators(), promises={"hidden_is_normal": True}
        )
        solution = solve_hsp(instance, rng=rng)
        assert instance.verify(solution.generators)

    def test_hidden_normal_in_metacyclic_group(self, rng):
        group = metacyclic_group(13, 3)
        instance = HSPInstance.from_subgroup(
            group, [group.embed_normal((1,))], promises={"hidden_is_normal": True}
        )
        solution = solve_hsp(instance, rng=rng)
        assert instance.verify(solution.generators)


class TestCrossSolverConsistency:
    def test_quantum_and_classical_agree_on_dihedral(self, rng):
        group = dihedral_semidirect(6)
        hidden = [group.embed_quotient((1,))]
        instance_q = HSPInstance.from_subgroup(group, hidden)
        instance_c = HSPInstance.from_subgroup(group, hidden)
        quantum = solve_hsp(instance_q, rng=rng)
        classical = classical_exhaustive_hsp(instance_c)
        base = group
        assert subgroup_order(base, quantum.generators) == subgroup_order(base, classical.generators) == 2

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_theorem13_matches_rotteler_beth(self, k, rng):
        group, normal_gens = wreath_instance(k)
        hidden = [group.uniform_random_element(rng), group.uniform_random_element(rng)]
        instance_a = HSPInstance.from_subgroup(
            group, hidden, promises={"normal_generators": normal_gens, "cyclic_quotient": True}
        )
        instance_b = HSPInstance.from_subgroup(group, hidden)
        ours = solve_hsp(instance_a, rng=rng)
        theirs = rotteler_beth_wreath(instance_b, FourierSampler(rng=rng))
        order_ours = subgroup_order(group, ours.generators or [group.identity()])
        order_theirs = subgroup_order(group, theirs.generators or [group.identity()])
        assert order_ours == order_theirs
        assert instance_a.verify(ours.generators or [group.identity()])
        assert instance_b.verify(theirs.generators or [group.identity()])

    def test_quantum_query_advantage_over_classical(self, rng):
        """The quantum solver uses far fewer oracle queries than exhaustive search."""
        group = AbelianTupleGroup([2**7, 3**4])
        hidden = [(2**3, 3**2)]
        instance_q = HSPInstance.from_subgroup(group, hidden)
        instance_c = HSPInstance.from_subgroup(group, hidden)
        quantum = solve_hsp(instance_q, sampler=FourierSampler("analytic", rng=rng), rng=rng)
        classical = classical_exhaustive_hsp(instance_c)
        quantum_queries = quantum.query_report["quantum_queries"] + quantum.query_report["classical_queries"]
        assert instance_q.verify(quantum.generators)
        assert quantum_queries * 20 < classical.oracle_queries

    def test_solution_subgroups_are_subgroups_of_truth(self, rng):
        group = extraspecial_group(3)
        hidden = [((1,), (2,), 0)]
        instance = HSPInstance.from_subgroup(group, hidden)
        solution = solve_hsp(instance, rng=rng)
        truth = set(generate_subgroup_elements(group, hidden))
        for g in solution.generators:
            assert g in truth
