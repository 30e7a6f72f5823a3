"""Tests for the parallel experiment-orchestration subsystem.

Covers the determinism contract (sweep expansion, per-run seeding,
``workers=1`` vs ``workers=4`` byte-identity), the accounting contract (the
aggregate query totals of a BENCH file are the exact ``QueryCounter`` sum of
the per-run reports), the instance registry, and the
``python -m repro.experiments`` command line.
"""

import json
import os

import numpy as np
import pytest

import repro.experiments.runner as runner_module
from conftest import no_engine
from repro.blackbox.oracle import QueryCounter
from repro.experiments import (
    RunSpec,
    SamplerSpec,
    SweepSpec,
    WORKLOADS,
    build_instance,
    execute_run,
    execute_run_safe,
    families,
    get_workload,
    run_sweep,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.results import load_bench, rows_bytes
from repro.experiments.specs import derive_seed
from repro.quantum.sampling import BACKENDS

SEED = 20010202


def tiny_spec(name="tiny", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8, 12]}, **defaults)


class TestSpecs:
    def test_expansion_is_deterministic(self):
        first = tiny_spec().expand()
        second = tiny_spec().expand()
        assert first == second
        assert [run.index for run in first] == list(range(4))

    def test_per_run_seeds_are_distinct_and_index_derived(self):
        runs = tiny_spec().expand()
        seeds = [run.seed for run in runs]
        assert len(set(seeds)) == len(seeds)
        assert seeds == [derive_seed(SEED, index) for index in range(len(runs))]

    def test_grid_points_walk_sorted_keys_row_major(self):
        spec = SweepSpec.from_grid("grid", "extraspecial_random", {"p": [3, 5], "rank": [1, 2]})
        points = spec.points()
        assert points == [
            {"p": 3, "rank": 1},
            {"p": 3, "rank": 2},
            {"p": 5, "rank": 1},
            {"p": 5, "rank": 2},
        ]

    def test_run_specs_are_picklable_and_hashable(self):
        import pickle

        for run in tiny_spec().expand():
            assert pickle.loads(pickle.dumps(run)) == run
            hash(run)

    def test_overrides(self):
        spec = tiny_spec().with_overrides(seed=7, repeats=1)
        assert spec.seed == 7 and spec.repeats == 1
        assert len(spec.expand()) == 2

    def test_invalid_overrides_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            tiny_spec().with_overrides(repeats=0)
        with pytest.raises(ValueError, match="seed"):
            tiny_spec().with_overrides(seed=-1)

    def test_spec_json_round_trip_is_json_safe(self):
        payload = json.dumps(tiny_spec().to_json_dict())
        assert json.loads(payload)["family"] == "dihedral_rotation"


class TestRegistry:
    TINY_PARAMS = {
        "abelian_random": {"moduli": (8, 9)},
        "dihedral_rotation": {"n": 8},
        "dihedral_bounded_quotient": {"d": 3},
        "diagnostic_fault": {"n": 8},
        "metacyclic_core": {"pq": (7, 3)},
        "symmetric_alternating": {"n": 4},
        "extraspecial_center": {"p": 3},
        "extraspecial_random": {"p": 3},
        "wreath_random": {"k": 2},
    }

    def test_every_family_has_tiny_params(self):
        assert set(self.TINY_PARAMS) == set(families())

    @pytest.mark.parametrize("family", sorted(TINY_PARAMS))
    def test_family_builds_and_solves(self, family):
        spec = SweepSpec.from_grid(
            f"tiny-{family}", family, {key: [value] for key, value in self.TINY_PARAMS[family].items()}
        )
        (record,) = (execute_run(run) for run in spec.expand())
        assert record.success, (family, record)
        assert record.query_report["quantum_queries"] >= 0

    def test_builders_are_rng_deterministic(self):
        a = build_instance("extraspecial_random", {"p": 5}, np.random.default_rng(SEED))
        b = build_instance("extraspecial_random", {"p": 5}, np.random.default_rng(SEED))
        assert a.hidden_generators == b.hidden_generators

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown instance family"):
            build_instance("no-such-family", {}, np.random.default_rng(0))

    def test_unknown_solver_options_fail_fast(self):
        spec = SweepSpec.from_grid(
            "bad-options", "dihedral_rotation", {"n": [8]}, solver_options={"quotient_bound": 64}
        )
        with pytest.raises(ValueError, match="unsupported solver_options"):
            execute_run(spec.expand()[0])

    def test_retired_table_cache_option_fails_loudly(self, tmp_path):
        # The persistent Cayley-table cache is gone; a spec still asking for
        # it must fail like any other unknown option, not run uncached.  The
        # key is assembled so the retired name has no literal use left.
        retired = "_".join(("engine", "cache", "dir"))
        spec = SweepSpec.from_grid(
            "cached", "dihedral_rotation", {"n": [8]}, solver_options={retired: str(tmp_path)}
        )
        with pytest.raises(ValueError, match=rf"unsupported solver_options \['{retired}'\]"):
            execute_run(spec.expand()[0])


class TestRunnerDeterminism:
    def test_workers_1_and_4_byte_identical_rows(self, tmp_path):
        spec = tiny_spec("parity")
        path1, serial = run_sweep(spec, workers=1, out_dir=str(tmp_path / "serial"))
        path4, pooled = run_sweep(spec, workers=4, out_dir=str(tmp_path / "pooled"))
        assert rows_bytes(serial) == rows_bytes(pooled)
        # The acceptance rerun: workers=1 again at the same seed.
        _, again = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(serial) == rows_bytes(again)
        # And the files really were written.
        assert os.path.exists(path1) and os.path.exists(path4)

    def test_rows_cover_strategy_queries_and_generators(self):
        _, payload = run_sweep(tiny_spec(), workers=1, out_dir=None)
        for row in payload["rows"]:
            assert row["strategy"] == "hidden_normal"
            assert row["success"] is True
            assert row["generators"], "recovered subgroup generators must be recorded"
            assert row["query_report"]["quantum_queries"] > 0

    def test_aggregate_totals_equal_sum_of_per_run_reports(self):
        _, payload = run_sweep(tiny_spec(), workers=2, out_dir=None)
        merged = sum(
            (QueryCounter.from_snapshot(row["query_report"]) for row in payload["rows"]),
            QueryCounter(),
        )
        assert payload["aggregate"]["query_totals"] == {
            key: int(value) for key, value in sorted(merged.snapshot().items())
        }

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, tmp_path, workers):
        # 0 is the BENCH marker of an externally executed (queue) sweep
        with pytest.raises(ValueError, match="workers must be a positive integer"):
            run_sweep(tiny_spec(), workers=workers, out_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_engine_and_scalar_configs_report_identical_queries(self, monkeypatch):
        # The accounting contract: the engine-less fallback path (the one
        # groups too large for an engine take) reports identical totals.
        spec = tiny_spec("cfg")
        _, engine_payload = run_sweep(spec, workers=1, out_dir=None)
        groups = []

        def recording_build(*args):
            instance = build_instance(*args)
            groups.append(instance.group.group)
            return instance

        monkeypatch.setattr(runner_module, "build_instance", recording_build)
        with no_engine():
            _, scalar_payload = run_sweep(spec, workers=1, out_dir=None)
        assert len(groups) == len(spec.expand())
        assert all(getattr(group, "_cayley_engine", None) is None for group in groups)
        for engine_row, scalar_row in zip(engine_payload["rows"], scalar_payload["rows"]):
            assert engine_row["generators"] == scalar_row["generators"]
            assert engine_row["query_report"] == scalar_row["query_report"]


class TestSamplerSpec:
    def test_an_unknown_backend_is_refused_at_declaration(self):
        with pytest.raises(ValueError, match="unknown backend 'statevectr'"):
            tiny_spec(sampler=SamplerSpec(backend="statevectr"))
        with pytest.raises(ValueError, match="unknown backend 'statevectr'"):
            SamplerSpec.from_json_dict({"backend": "statevectr"})
        for backend in BACKENDS:
            assert tiny_spec(sampler=SamplerSpec(backend=backend)).sampler.backend == backend

    @pytest.mark.parametrize("keyword", ["shards", "statevector_limit"])
    def test_retired_sampler_spec_keywords_raise_type_error(self, keyword):
        with pytest.raises(TypeError):
            SamplerSpec(**{keyword: 2})

    @pytest.mark.parametrize("entry", [execute_run, execute_run_safe], ids=lambda f: f.__name__)
    def test_the_retired_shard_pool_keyword_raises_type_error(self, entry):
        with pytest.raises(TypeError):
            entry(tiny_spec().expand()[0], shard_pool=None)


class TestWorkloads:
    def test_smoke_workload_declared(self):
        spec = get_workload("smoke")
        assert spec.family == "dihedral_rotation"
        assert len(spec.expand()) == 4

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("definitely-not-declared")

    def test_workload_names_are_unique_specs(self):
        assert len(WORKLOADS) == len({spec.name for spec in WORKLOADS.values()})
        for name, spec in WORKLOADS.items():
            assert name == spec.name


class TestCLI:
    def test_run_writes_bench_file_with_two_workers(self, tmp_path, capsys):
        status = cli_main(["run", "smoke", "--workers", "2", "--out", str(tmp_path)])
        assert status == 0
        path = tmp_path / "BENCH_smoke.json"
        assert path.exists()
        payload = load_bench(str(path))
        assert payload["workers"] == 2
        assert payload["aggregate"]["successes"] == payload["aggregate"]["runs"] == 4
        assert "wrote" in capsys.readouterr().out

    def test_list_prints_workloads_and_families(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "dihedral_rotation" in output

    def test_report_reads_back_a_bench_file(self, tmp_path, capsys):
        cli_main(["run", "smoke", "--out", str(tmp_path)])
        capsys.readouterr()
        assert cli_main(["report", "smoke", "--out", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "aggregate" in output and "hidden_normal" in output

    def test_report_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert cli_main(["report", "nothing-here", "--out", str(tmp_path)]) == 1

    def test_report_rejects_foreign_bench_schema(self, tmp_path, capsys):
        foreign = tmp_path / "BENCH_scaling.json"
        foreign.write_text(json.dumps({"benchmark": "scaling-dense-vs-prekernel", "aggregate": {}}))
        assert cli_main(["report", str(foreign)]) == 1
        assert "not a sweep BENCH file" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_run_rejects_a_worker_count_below_one_at_parse_time(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit):
            cli_main(["run", "smoke", "--workers", value, "--out", str(tmp_path)])
        assert "positive integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_rejects_bad_overrides_cleanly(self, tmp_path, capsys):
        assert cli_main(["run", "smoke", "--repeats", "0", "--out", str(tmp_path)]) == 1
        assert "repeats" in capsys.readouterr().err
        assert not (tmp_path / "BENCH_smoke.json").exists()
        assert cli_main(["run", "no-such-sweep", "--out", str(tmp_path)]) == 1

    def test_run_exits_nonzero_when_a_solve_fails(self, tmp_path, capsys, monkeypatch):
        import repro.experiments.cli as cli_module

        def failing_run_sweep(spec, workers=1, out_dir=".", max_failures=None, resume=False, trace=None):
            payload = {
                "workers": workers,
                "rows": [],
                "timings": [],
                "aggregate": {
                    "runs": 2,
                    "successes": 1,
                    "errors": 0,
                    "success_rate": 0.5,
                    "strategies": {},
                    "query_totals": {},
                    "wall_time_seconds": 0.0,
                },
            }
            return str(tmp_path / "BENCH_broken.json"), payload

        monkeypatch.setattr(cli_module, "run_sweep", failing_run_sweep)
        assert cli_module.main(["run", "smoke", "--out", str(tmp_path)]) == 1
        assert "FAILED" in capsys.readouterr().err
