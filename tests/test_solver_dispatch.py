"""Exhaustive coverage of ``_choose_strategy`` and the ``solve_hsp`` dispatcher.

One test per dispatch branch: every promise key, Abelian auto-detection
(including through the black-box wrapper), the default fallback, explicit
strategy overrides, and the error paths (unknown strategy, missing promise).
"""

import numpy as np
import pytest

from repro import obs
from repro.blackbox.instances import HSPInstance
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.solver import _choose_strategy, solve_hsp
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.base import GroupError
from repro.groups.catalog import wreath_instance
from repro.groups.extraspecial import extraspecial_group
from repro.groups.products import dihedral_semidirect
from repro.quantum.sampling import FourierSampler


def abelian_instance():
    group = AbelianTupleGroup([4, 6])
    return HSPInstance.from_subgroup(group, [(2, 3)])


def extraspecial_instance(promises=None):
    group = extraspecial_group(3)
    return HSPInstance.from_subgroup(group, [((1,), (1,), 0)], promises=promises), group


class TestChooseStrategy:
    def test_normal_generators_promise_selects_elementary_abelian_two(self):
        group, normal_gens = wreath_instance(2)
        instance = HSPInstance.from_subgroup(
            group,
            [group.identity()],
            promises={"normal_generators": normal_gens, "cyclic_quotient": True},
        )
        assert _choose_strategy(instance) == ("elementary_abelian_two", "normal_generators")

    def test_normal_generators_wins_over_other_promises(self):
        group, normal_gens = wreath_instance(2)
        instance = HSPInstance.from_subgroup(
            group,
            [group.identity()],
            promises={
                "normal_generators": normal_gens,
                "commutator_bound": 4,
                "hidden_is_normal": True,
            },
        )
        assert _choose_strategy(instance) == ("elementary_abelian_two", "normal_generators")

    def test_abelian_group_detected(self):
        assert _choose_strategy(abelian_instance()) == ("abelian", "abelian_base")

    def test_abelian_detection_unwraps_black_box(self):
        group = AbelianTupleGroup([12])
        instance = HSPInstance.from_subgroup(BlackBoxGroup(group), [(3,)])
        assert isinstance(instance.group, BlackBoxGroup)
        assert _choose_strategy(instance) == ("abelian", "abelian_base")

    def test_abelian_wins_over_commutator_promise(self):
        # An Abelian ambient group dispatches to Theorem 3 even when a
        # (vacuous) commutator promise is attached.
        group = AbelianTupleGroup([8])
        instance = HSPInstance.from_subgroup(group, [(2,)], promises={"commutator_bound": 1})
        assert _choose_strategy(instance) == ("abelian", "abelian_base")

    def test_commutator_elements_promise_selects_small_commutator(self):
        instance, group = extraspecial_instance(
            promises={"commutator_elements": extraspecial_group(3).commutator_subgroup_elements()}
        )
        assert _choose_strategy(instance) == ("small_commutator", "commutator_elements")

    def test_commutator_bound_promise_selects_small_commutator(self):
        instance, _ = extraspecial_instance(promises={"commutator_bound": 3})
        assert _choose_strategy(instance) == ("small_commutator", "commutator_bound")

    def test_hidden_is_normal_promise_selects_hidden_normal(self):
        group = dihedral_semidirect(6)
        instance = HSPInstance.from_subgroup(
            group, [group.embed_normal((1,))], promises={"hidden_is_normal": True}
        )
        assert _choose_strategy(instance) == ("hidden_normal", "hidden_is_normal")

    def test_falsy_hidden_is_normal_falls_through_to_default(self):
        group = dihedral_semidirect(6)
        instance = HSPInstance.from_subgroup(
            group, [group.embed_normal((1,))], promises={"hidden_is_normal": False}
        )
        assert _choose_strategy(instance) == ("small_commutator", "fallback")

    def test_default_for_promise_free_nonabelian_group(self):
        instance, _ = extraspecial_instance()
        assert _choose_strategy(instance) == ("small_commutator", "fallback")


def wreath_promised_instance():
    group, normal_gens = wreath_instance(2)
    return HSPInstance.from_subgroup(
        group, [group.identity()], promises={"normal_generators": normal_gens, "cyclic_quotient": True}
    )


def extraspecial_promised(**promises):
    return lambda: extraspecial_instance(promises)[0]


def dihedral_normal_instance():
    group = dihedral_semidirect(6)
    return HSPInstance.from_subgroup(group, [group.embed_normal((1,))], promises={"hidden_is_normal": True})


class TestStrategySpan:
    """The ``solver.choose_strategy`` span names the deciding input and the theorem."""

    @pytest.mark.parametrize(
        "build,strategy,expected",
        [
            (wreath_promised_instance, "auto", ("elementary_abelian_two", "normal_generators", "Theorem 13")),
            (abelian_instance, "auto", ("abelian", "abelian_base", "Theorem 3")),
            (
                extraspecial_promised(commutator_elements=extraspecial_group(3).commutator_subgroup_elements()),
                "auto",
                ("small_commutator", "commutator_elements", "Theorem 11"),
            ),
            (extraspecial_promised(commutator_bound=3), "auto", ("small_commutator", "commutator_bound", "Theorem 11")),
            (dihedral_normal_instance, "auto", ("hidden_normal", "hidden_is_normal", "Theorem 8")),
            (extraspecial_promised(), "auto", ("small_commutator", "fallback", "Theorem 11")),
            (abelian_instance, "classical", ("classical", "requested", None)),
        ],
        ids=["normal_generators", "abelian_base", "commutator_elements", "commutator_bound",
             "hidden_is_normal", "fallback", "requested"],
    )
    def test_the_span_records_the_deciding_input_and_theorem(self, tmp_path, build, strategy, expected, rng):
        trace = str(tmp_path / "trace.jsonl")
        with obs.tracing(trace):
            solution = solve_hsp(build(), strategy=strategy, rng=rng)
        (span,) = [e for e in obs.load_trace_events([trace]) if e["name"] == "solver.choose_strategy"]
        attrs = span["attrs"]
        assert (attrs["strategy"], attrs["decided_by"], attrs["theorem"]) == expected
        assert solution.strategy == expected[0]


class TestSolveDispatch:
    def test_auto_solves_abelian_instance(self, rng):
        instance = abelian_instance()
        solution = solve_hsp(instance, sampler=FourierSampler(rng=rng))
        assert solution.strategy == "abelian"
        assert instance.verify(solution.generators)

    def test_explicit_strategy_overrides_auto(self, rng):
        # Auto would choose "abelian"; the override must win and still solve.
        instance = abelian_instance()
        solution = solve_hsp(instance, strategy="classical", rng=rng)
        assert solution.strategy == "classical"
        assert instance.verify(solution.generators)

    def test_explicit_hidden_normal_on_promise_free_instance(self, rng):
        group = dihedral_semidirect(6)
        instance = HSPInstance.from_subgroup(group, [group.embed_normal((1,))])
        solution = solve_hsp(instance, strategy="hidden_normal", sampler=FourierSampler(rng=rng))
        assert solution.strategy == "hidden_normal"
        assert instance.verify(solution.generators)

    def test_promise_driven_elementary_abelian_two_solve(self, rng):
        group, normal_gens = wreath_instance(2)
        hidden = [group.uniform_random_element(rng)]
        instance = HSPInstance.from_subgroup(
            group,
            hidden,
            promises={"normal_generators": normal_gens, "cyclic_quotient": True},
        )
        solution = solve_hsp(instance, sampler=FourierSampler(rng=rng))
        assert solution.strategy == "elementary_abelian_two"
        assert instance.verify(solution.generators or [group.identity()])

    def test_elementary_abelian_two_requires_promise(self, rng):
        instance, _ = extraspecial_instance()
        with pytest.raises(GroupError, match="normal_generators"):
            solve_hsp(instance, strategy="elementary_abelian_two", rng=rng)

    def test_unknown_strategy_rejected(self, rng):
        instance = abelian_instance()
        with pytest.raises(GroupError, match="unknown strategy"):
            solve_hsp(instance, strategy="quantum_annealing", rng=rng)

    def test_classical_adaptive_strategy_solves(self, rng):
        group = dihedral_semidirect(6)
        instance = HSPInstance.from_subgroup(group, [group.embed_normal((1,))])
        solution = solve_hsp(instance, strategy="classical_adaptive", rng=rng)
        assert solution.strategy == "classical_adaptive"
        assert solution.details.method == "adaptive"
        assert instance.verify(solution.generators or [group.identity()])

    def test_solution_reports_strategy_timing_and_queries(self, rng):
        instance, group = extraspecial_instance(
            promises={"commutator_elements": extraspecial_group(3).commutator_subgroup_elements()}
        )
        solution = solve_hsp(instance, sampler=FourierSampler(rng=rng))
        assert solution.strategy == "small_commutator"
        assert solution.elapsed_seconds >= 0.0
        assert solution.query_report["quantum_queries"] > 0
        assert instance.verify(solution.generators or [group.identity()])


class TestConfidenceOption:
    """``confidence`` must reach the strategies that consume it and raise —
    never be silently ignored — for every strategy that does not."""

    def test_abelian_accepts_confidence(self, rng):
        instance = abelian_instance()
        solution = solve_hsp(instance, strategy="abelian", rng=rng, confidence=4)
        assert solution.status == "ok"
        assert instance.verify(solution.generators)

    def test_hidden_normal_accepts_confidence(self, rng):
        group = dihedral_semidirect(6)
        instance = HSPInstance.from_subgroup(
            group, [group.embed_normal((1,))], promises={"hidden_is_normal": True}
        )
        solution = solve_hsp(instance, strategy="hidden_normal", rng=rng, confidence=8)
        assert solution.status == "ok"
        assert instance.verify(solution.generators or [group.identity()])

    def test_elementary_abelian_two_rejects_confidence(self, rng):
        group, normal_gens = wreath_instance(2)
        instance = HSPInstance.from_subgroup(
            group,
            [group.identity()],
            promises={"normal_generators": normal_gens, "cyclic_quotient": True},
        )
        with pytest.raises(ValueError, match="confidence"):
            solve_hsp(instance, strategy="elementary_abelian_two", rng=rng, confidence=4)

    def test_small_commutator_rejects_confidence(self, rng):
        instance, _ = extraspecial_instance(promises={"commutator_bound": 3})
        with pytest.raises(ValueError, match="confidence"):
            solve_hsp(instance, strategy="small_commutator", rng=rng, confidence=4)

    def test_classical_rejects_confidence(self, rng):
        instance = abelian_instance()
        with pytest.raises(ValueError, match="confidence"):
            solve_hsp(instance, strategy="classical", rng=rng, confidence=4)

    def test_classical_adaptive_rejects_confidence(self, rng):
        instance = abelian_instance()
        with pytest.raises(ValueError, match="confidence"):
            solve_hsp(instance, strategy="classical_adaptive", rng=rng, confidence=4)

    def test_auto_resolution_rejects_confidence_on_non_consuming_branch(self, rng):
        # "auto" resolves this instance to small_commutator, which does not
        # consume confidence — the error must name the *resolved* strategy.
        instance, _ = extraspecial_instance()
        with pytest.raises(ValueError, match="small_commutator"):
            solve_hsp(instance, rng=rng, confidence=4)

    def test_auto_resolution_accepts_confidence_on_abelian_branch(self, rng):
        instance = abelian_instance()
        solution = solve_hsp(instance, rng=rng, confidence=4)
        assert solution.strategy == "abelian"
        assert instance.verify(solution.generators)
