"""The noise-channel layer: spec grammar, channel determinism, solver and
harness behaviour under corruption.

The load-bearing guarantees:

* ``NoiseSpec`` round-trips through its text and JSON forms and rejects
  malformed input at parse time.
* ``oracle-flip`` corruption is a pure function of ``(run seed, element)`` —
  identical across the scalar, batch and dense-id query paths, across fresh
  oracle views, and across repeated queries.
* ``sample-depolarise`` corruption is applied to the batch the sampler's
  own stream produced, so noisy solves and sweep rows repeat exactly.
* ε=0 is byte-identical to no noise at all (the channel is never installed);
  ε=1 terminates with failure rows instead of hanging.
* A noisy solve either verifies against the uncorrupted ground truth or
  reports ``status="no_convergence"`` — never a silently wrong subgroup.
* The honest adaptive classical baseline certifies its answer without
  reading the instance's declared hidden generators.
"""

import json

import numpy as np
import pytest

from repro.blackbox.instances import HSPInstance
from repro.blackbox.noise import (
    NOISE_KINDS,
    NoiseSpec,
    OracleFlipChannel,
    SampleDepolariseChannel,
    install_noise,
)
from repro.blackbox.oracle import BlackBoxGroup
from repro.core.solver import solve_hsp
from repro.experiments.runner import run_sweep
from repro.experiments.specs import SweepSpec
from repro.groups.abelian import AbelianTupleGroup
from repro.groups.products import dihedral_semidirect
from repro.hsp.baseline_classical import classical_adaptive_hsp
from repro.quantum.sampling import FourierSampler, SubgroupStructureOracle


def dihedral_instance(n=8, promises=None):
    group = dihedral_semidirect(n)
    return HSPInstance.from_subgroup(
        group,
        [group.embed_normal((1,))],
        promises=promises if promises is not None else {"hidden_is_normal": True},
    )


class TestNoiseSpec:
    def test_round_trip_text(self):
        for kind in NOISE_KINDS:
            spec = NoiseSpec(kind, 0.25)
            assert NoiseSpec.parse(spec.to_text()) == spec

    def test_round_trip_json(self):
        spec = NoiseSpec("oracle-flip", 0.5)
        data = json.loads(json.dumps(spec.to_json_dict()))
        assert NoiseSpec.from_json_dict(data) == spec

    def test_none_parses_to_no_channel(self):
        assert NoiseSpec.parse("none") is None
        assert NoiseSpec.parse("") is None

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown noise kind"):
            NoiseSpec.parse("bit-rot(0.5)")

    def test_epsilon_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="epsilon"):
            NoiseSpec.parse("oracle-flip(1.5)")
        with pytest.raises(ValueError, match="epsilon"):
            NoiseSpec("oracle-flip", -0.1)

    def test_malformed_text_rejected(self):
        with pytest.raises(ValueError, match="unparseable"):
            NoiseSpec.parse("oracle-flip")

    def test_try_parse_returns_none_for_ordinary_strings(self):
        assert NoiseSpec.try_parse("hidden_normal") is None
        assert NoiseSpec.try_parse("oracle-flip(0.25)") == NoiseSpec("oracle-flip", 0.25)


class TestOracleFlipChannel:
    def test_flip_decision_is_element_keyed(self):
        group = dihedral_semidirect(8)
        channel = OracleFlipChannel(0.5, group, run_seed=7)
        elements = [group.embed_normal((k,)) for k in range(8)]
        first = channel.replacements(elements)
        second = channel.replacements(elements[::-1])[::-1]
        assert first == second  # order-independent, query-count-independent

    def test_flip_rate_tracks_epsilon(self):
        group = dihedral_semidirect(512)
        elements = group.element_list()
        for epsilon in (0.0, 0.25, 1.0):
            channel = OracleFlipChannel(epsilon, group, run_seed=3)
            flips = sum(r is not None for r in channel.replacements(elements))
            assert channel.flips == flips
            assert abs(flips / len(elements) - epsilon) < 0.06

    def test_different_seeds_give_different_corruption(self):
        group = dihedral_semidirect(64)
        elements = group.element_list()
        a = OracleFlipChannel(0.5, group, run_seed=1)
        b = OracleFlipChannel(0.5, group, run_seed=2)
        assert a.replacements(elements) != b.replacements(elements)

    def test_scalar_batch_and_dense_paths_agree(self):
        instance = dihedral_instance(8)
        sampler = FourierSampler()
        install_noise(NoiseSpec("oracle-flip", 0.4), instance, sampler, run_seed=11)
        group = instance.group
        base = group.group if isinstance(group, BlackBoxGroup) else group
        elements = base.element_list()
        scalar = [instance.oracle(e) for e in elements]
        batch = instance.oracle.evaluate_many(elements)
        assert scalar == batch
        engine = instance.oracle.dense_engine
        if engine is not None:
            ids = engine.intern_many(elements)
            assert list(instance.oracle.evaluate_ids(ids)) == scalar
        view = instance.oracle.fresh_view()
        assert [view(e) for e in elements] == scalar

    def test_accounting_unchanged_by_noise(self):
        clean = dihedral_instance(8)
        noisy = dihedral_instance(8)
        sampler = FourierSampler()
        install_noise(NoiseSpec("oracle-flip", 0.7), noisy, sampler, run_seed=5)
        base = clean.group.group
        elements = base.element_list()
        clean.oracle.evaluate_many(elements)
        clean.oracle.evaluate_many(elements)  # cached: free
        noisy.oracle.evaluate_many(elements)
        noisy.oracle.evaluate_many(elements)
        assert (
            clean.oracle.counter.classical_queries
            == noisy.oracle.counter.classical_queries
        )

    def test_double_install_rejected(self):
        instance = dihedral_instance(8)
        sampler = FourierSampler()
        install_noise(NoiseSpec("oracle-flip", 0.4), instance, sampler, run_seed=1)
        with pytest.raises(ValueError, match="already installed"):
            install_noise(NoiseSpec("oracle-flip", 0.4), instance, sampler, run_seed=1)

    def test_zero_epsilon_installs_nothing(self):
        instance = dihedral_instance(8)
        sampler = FourierSampler()
        install_noise(NoiseSpec("oracle-flip", 0.0), instance, sampler, run_seed=1)
        assert instance.oracle.noise is None
        assert sampler.noise is None


class TestSampleDepolariseChannel:
    def test_depolarised_solve_repeats_exactly(self):
        group = AbelianTupleGroup([16, 9, 5])
        spec = NoiseSpec("sample-depolarise", 0.3)
        results = []
        for _ in range(2):
            sampler = FourierSampler(rng=np.random.default_rng(99))
            local = HSPInstance.from_subgroup(group, [(4, 3, 0)])
            install_noise(spec, local, sampler, run_seed=21)
            solution = solve_hsp(local, strategy="abelian", sampler=sampler, noise=spec)
            results.append(
                (sorted(repr(g) for g in solution.generators), solution.query_report)
            )
        assert results[0] == results[1]

    @pytest.mark.parametrize("backend", ["analytic", "statevector"])
    def test_corruption_applies_to_the_uncorrupted_batch(self, backend):
        # The channel draws from its own stream after the batch exists: a
        # noisy sampler returns the corrupted image of exactly the batch an
        # equally seeded clean sampler returns, request after request.
        moduli = (16, 9, 5)
        noisy = FourierSampler(backend=backend, rng=np.random.default_rng(99))
        noisy.attach_noise(SampleDepolariseChannel(0.3, run_seed=21))
        clean = FourierSampler(backend=backend, rng=np.random.default_rng(99))
        channel = SampleDepolariseChannel(0.3, run_seed=21)
        noisy_oracle = SubgroupStructureOracle(moduli, [(4, 3, 0)])
        clean_oracle = SubgroupStructureOracle(moduli, [(4, 3, 0)])
        for count in (5, 17, 1):
            expected = channel.corrupt(clean.sample(clean_oracle, count), moduli)
            assert noisy.sample(noisy_oracle, count) == expected
        assert noisy.noise.flips == channel.flips > 0
        assert noisy_oracle.counter.quantum_queries == clean_oracle.counter.quantum_queries == 23

    def test_flip_rate_tracks_epsilon(self):
        channel = SampleDepolariseChannel(0.25, run_seed=13)
        samples = [(0, 0)] * 4000
        corrupted = channel.corrupt(samples, (7, 5))
        changed = sum(1 for s in corrupted if s != (0, 0))
        # A replacement can coincide with the original (prob 1/35), so the
        # observed change rate sits slightly below ε.
        assert abs(changed / len(samples) - 0.25 * (1 - 1 / 35)) < 0.03
        assert abs(channel.flips / len(samples) - 0.25) < 0.03

    def test_replacements_lie_in_dual_group(self):
        channel = SampleDepolariseChannel(1.0, run_seed=13)
        corrupted = channel.corrupt([(0, 0, 0)] * 500, (16, 9, 5))
        for sample in corrupted:
            assert all(0 <= v < m for v, m in zip(sample, (16, 9, 5)))


class TestNoisySolver:
    def test_noisy_failure_reports_no_convergence_not_crash(self):
        instance = dihedral_instance(8)
        sampler = FourierSampler(rng=np.random.default_rng(2))
        spec = NoiseSpec("oracle-flip", 1.0)
        install_noise(spec, instance, sampler, run_seed=17)
        solution = solve_hsp(instance, sampler=sampler, noise=spec)
        assert solution.status in ("ok", "no_convergence")
        if solution.status == "no_convergence":
            assert solution.generators == []

    def test_without_noise_exceptions_propagate(self, rng):
        # The graceful-failure path must not swallow honest-oracle bugs: an
        # elementary_abelian_two solve without its promise raises whether or
        # not the graceful path exists.
        instance = dihedral_instance(8, promises={})
        from repro.groups.base import GroupError

        with pytest.raises(GroupError):
            solve_hsp(instance, strategy="elementary_abelian_two", rng=rng)

    def test_ok_candidates_verify_against_ground_truth(self):
        # Whatever a noisy solve returns with status "ok" is checked against
        # concrete group arithmetic — assert the verification oracle itself
        # is not routed through the corrupted hiding function.
        instance = dihedral_instance(8)
        sampler = FourierSampler(rng=np.random.default_rng(4))
        spec = NoiseSpec("oracle-flip", 0.9)
        install_noise(spec, instance, sampler, run_seed=23)
        truth = list(instance.hidden_generators)
        assert instance.verify(truth)  # unaffected by the installed channel


class TestAdaptiveBaseline:
    def test_recovers_hidden_subgroup(self):
        instance = dihedral_instance(12, promises={})
        result = classical_adaptive_hsp(instance)
        assert result.method == "adaptive"
        assert instance.verify(result.generators or [instance.group.identity()])

    def test_adaptive_queries_fewer_than_exhaustive(self):
        group = dihedral_semidirect(64)
        instance = HSPInstance.from_subgroup(group, [group.embed_normal((1,))])
        result = classical_adaptive_hsp(instance)
        assert instance.verify(result.generators or [group.identity()])
        # |G| = 128: exhaustive queries all 128 elements; the sieve stops as
        # soon as its certificate fires.
        assert result.oracle_queries < 128

    def test_does_not_read_declared_hidden_generators(self):
        instance = dihedral_instance(12, promises={})
        instance.oracle.hidden_subgroup_generators = None  # honesty drill
        result = classical_adaptive_hsp(instance)
        group = dihedral_semidirect(12)
        restored = HSPInstance.from_subgroup(group, [group.embed_normal((1,))])
        assert restored.verify(result.generators or [group.identity()])

    def test_terminates_on_fully_corrupted_oracle(self):
        instance = dihedral_instance(8, promises={})
        sampler = FourierSampler()
        install_noise(NoiseSpec("oracle-flip", 1.0), instance, sampler, run_seed=31)
        result = classical_adaptive_hsp(instance)  # must not hang
        assert result.method == "adaptive"


class TestSweepIntegration:
    def test_zero_epsilon_rows_byte_identical_to_no_noise(self):
        plain = SweepSpec.from_grid(
            "noise-zero", "dihedral_rotation", {"n": [8, 12]}, repeats=2
        )
        zero = SweepSpec.from_grid(
            "noise-zero",
            "dihedral_rotation",
            {"n": [8, 12], "noise": ["oracle-flip(0)"]},
            repeats=2,
        )
        _, plain_payload = run_sweep(plain, workers=1, out_dir=None)
        _, zero_payload = run_sweep(zero, workers=1, out_dir=None)
        stripped = [
            dict(row, params={k: v for k, v in row["params"].items() if k != "noise"})
            for row in zero_payload["rows"]
        ]
        assert json.dumps(stripped, sort_keys=True) == json.dumps(
            plain_payload["rows"], sort_keys=True
        )

    def test_epsilon_one_terminates_with_failure_rows(self):
        spec = SweepSpec.from_grid(
            "noise-one",
            "dihedral_rotation",
            {"n": [8], "noise": ["oracle-flip(1)"], "strategy": ["hidden_normal"]},
            repeats=2,
        )
        _, payload = run_sweep(spec, workers=1, out_dir=None)
        assert payload["rows"]
        for row in payload["rows"]:
            assert row["status"] in ("ok", "no_convergence")
            assert row["status"] != "error"

    def test_depolarise_epsilon_one_terminates_with_failure_rows(self):
        spec = SweepSpec.from_grid(
            "noise-dep-one",
            "abelian_random",
            {"moduli": [(16, 9, 5)], "noise": ["sample-depolarise(1)"]},
            repeats=1,
        )
        _, payload = run_sweep(spec, workers=1, out_dir=None)
        for row in payload["rows"]:
            assert row["status"] != "error"
            assert row["success"] is False

    def test_noisy_rows_identical_across_worker_counts(self):
        spec = SweepSpec.from_grid(
            "noise-workers",
            "dihedral_rotation",
            {
                "n": [8, 12],
                "noise": ["oracle-flip(0.3)"],
                "strategy": ["hidden_normal", "classical_adaptive"],
            },
            repeats=2,
        )
        from repro.experiments.results import rows_bytes

        _, one = run_sweep(spec, workers=1, out_dir=None)
        _, two = run_sweep(spec, workers=2, out_dir=None)
        assert rows_bytes(one) == rows_bytes(two)

    def test_depolarise_rows_identical_across_worker_counts(self):
        spec = SweepSpec.from_grid(
            "noise-depolarise",
            "abelian_random",
            {"moduli": [(16, 9, 5)], "noise": ["sample-depolarise(0.1)"]},
            repeats=3,
        )
        rows = [
            json.dumps(run_sweep(spec, workers=workers, out_dir=None)[1]["rows"], sort_keys=True)
            for workers in (1, 1, 2)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_noise_axis_is_reserved_and_recorded(self):
        spec = SweepSpec.from_grid(
            "noise-axis",
            "dihedral_rotation",
            {"n": [8], "noise": ["oracle-flip(0.2)"]},
            repeats=1,
        )
        run = spec.expand()[0]
        assert run.instance_params() == {"n": 8}
        assert dict(run.solver_options)["noise"] == "oracle-flip(0.2)"
        assert dict(run.params)["noise"] == "oracle-flip(0.2)"

    def test_invalid_noise_value_fails_at_expand_time(self):
        spec = SweepSpec.from_grid(
            "noise-bad", "dihedral_rotation", {"n": [8], "noise": ["bit-rot(0.5)"]}
        )
        with pytest.raises(ValueError, match="unknown noise kind"):
            spec.expand()


class TestNoiseObservability:
    def test_every_flip_is_reported_on_a_span(self, tmp_path):
        from repro import obs

        trace_path = str(tmp_path / "trace.jsonl")
        with obs.tracing(trace_path):
            # no promises: the small-commutator strategy labels id batches
            # through the dense oracle's vectorized path
            instance = dihedral_instance(8, promises={})
            assert instance.oracle.dense_engine is not None
            sampler = FourierSampler(rng=np.random.default_rng(6))
            spec = NoiseSpec("oracle-flip", 0.6)
            install_noise(spec, instance, sampler, run_seed=41)
            solve_hsp(instance, sampler=sampler, noise=spec)
        channel = instance.oracle.noise
        events = obs.load_trace_events([trace_path])
        flip_spans = [e for e in events if e["name"] == "noise.oracle_flip"]
        assert any(e["attrs"]["queries"] > 1 for e in flip_spans)
        assert sum(e["counters"]["flips"] for e in flip_spans) == channel.flips > 0
        assert "noise" in obs.summarise_trace(events)["phases"]
