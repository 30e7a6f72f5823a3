"""Fault-tolerance and checkpoint/resume tests (PR 3).

The contract under test:

* a run that raises becomes a ``status="error"`` row (with the traceback)
  instead of killing the sweep, and ``max_failures`` bounds the tolerance;
* completed rows are journaled as they finish; an interrupted sweep resumed
  with ``resume=True`` produces final ``rows`` byte-identical to an
  uninterrupted ``workers=1`` run at the same seed;
* ``write_bench`` is atomic — a crash mid-write never corrupts an existing
  BENCH file.
"""

import json
import os

import pytest

from repro.experiments import (
    RunRecord,
    SweepAborted,
    SweepSpec,
    execute_run_safe,
    get_workload,
    load_bench,
    run_sweep,
    write_bench,
)
import repro.experiments.runner as runner_module
from repro.experiments.cli import main as cli_main
from repro.experiments.results import (
    aggregate_records,
    journal_path,
    load_journal,
    rows_bytes,
)

SEED = 20010202


def tiny_spec(name="tiny", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8, 12]}, **defaults)


def faulty_spec(name="faulty", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "diagnostic_fault", {"n": [8], "fail": [False, True]}, **defaults)


class TestErrorCapture:
    def test_raising_run_becomes_error_record(self):
        run = faulty_spec().expand()[-1]  # a fail=True point
        record = execute_run_safe(run)
        assert record.status == "error"
        assert record.success is False
        assert record.generators == [] and record.query_report == {}
        assert "diagnostic fault injected" in record.error
        assert "Traceback" in record.error
        # tracebacks are path-normalized: the row bytes must not depend on
        # where the repo is checked out
        assert 'File "/' not in record.error
        assert 'File "registry.py"' in record.error

    def test_sweep_with_errors_completes_and_reports(self, tmp_path):
        path, payload = run_sweep(faulty_spec(), workers=1, out_dir=str(tmp_path))
        aggregate = payload["aggregate"]
        assert aggregate["runs"] == 4
        assert aggregate["successes"] == 2
        assert aggregate["errors"] == 2
        assert aggregate["success_rate"] == 0.5
        # completion removes the journal
        assert not os.path.exists(journal_path(str(tmp_path), "faulty"))
        # error rows round-trip through the persisted JSON byte-identically
        assert rows_bytes(load_bench(path)) == rows_bytes(payload)
        error_rows = [row for row in payload["rows"] if row["status"] == "error"]
        assert len(error_rows) == 2
        for row in error_rows:
            assert row["success"] is False and "RuntimeError" in row["error"]

    def test_error_rows_identical_across_worker_counts(self):
        _, serial = run_sweep(faulty_spec(), workers=1, out_dir=None)
        _, pooled = run_sweep(faulty_spec(), workers=2, out_dir=None)
        assert rows_bytes(serial) == rows_bytes(pooled)

    def test_max_failures_budget_aborts_and_keeps_journal(self, tmp_path):
        with pytest.raises(SweepAborted, match="max-failures 0"):
            run_sweep(faulty_spec(), workers=1, out_dir=str(tmp_path), max_failures=0)
        jpath = journal_path(str(tmp_path), "faulty")
        assert os.path.exists(jpath)
        journaled = load_journal(jpath, faulty_spec())
        # the two healthy runs and the first error were journaled before the abort
        assert len(journaled) == 3
        assert sum(1 for record in journaled.values() if record.status == "error") == 1

    def test_generous_max_failures_tolerates_the_errors(self):
        _, payload = run_sweep(faulty_spec(), workers=1, out_dir=None, max_failures=2)
        assert payload["aggregate"]["errors"] == 2


class TestResume:
    def test_kill_and_resume_rows_byte_identical(self, tmp_path, monkeypatch):
        spec = tiny_spec("interrupted")
        real_execute = runner_module.execute_run

        def dying_execute(run):
            if run.index == 2:
                raise KeyboardInterrupt
            return real_execute(run)

        monkeypatch.setattr(runner_module, "execute_run", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=1, out_dir=str(tmp_path))
        jpath = journal_path(str(tmp_path), "interrupted")
        assert os.path.exists(jpath)
        assert len(load_journal(jpath, spec)) == 2

        monkeypatch.setattr(runner_module, "execute_run", real_execute)
        path, resumed = run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(resumed) == rows_bytes(baseline)
        assert rows_bytes(load_bench(path)) == rows_bytes(baseline)
        assert not os.path.exists(jpath), "a completed sweep removes its journal"

    def test_resume_retries_journaled_errors_against_a_fresh_budget(self, tmp_path):
        spec = faulty_spec()
        with pytest.raises(SweepAborted):
            run_sweep(spec, workers=1, out_dir=str(tmp_path), max_failures=0)
        # the journaled error is retried (and deterministically fails again);
        # together with the remaining error that exceeds a budget of 1
        with pytest.raises(SweepAborted, match="2 failed"):
            run_sweep(spec, workers=1, out_dir=str(tmp_path), max_failures=1, resume=True)

    def test_resume_heals_transient_errors(self, tmp_path, monkeypatch):
        spec = tiny_spec("transient")
        real_execute = runner_module.execute_run

        def flaky_execute(run):
            if run.index == 1:
                raise RuntimeError("transient outage")
            return real_execute(run)

        monkeypatch.setattr(runner_module, "execute_run", flaky_execute)
        with pytest.raises(SweepAborted):
            run_sweep(spec, workers=1, out_dir=str(tmp_path), max_failures=0)
        # cause fixed: the errored run is retried and the sweep completes clean
        monkeypatch.setattr(runner_module, "execute_run", real_execute)
        _, resumed = run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        assert resumed["aggregate"]["errors"] == 0
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(resumed) == rows_bytes(baseline)

    def test_pooled_abort_journals_completed_runs(self, tmp_path):
        spec = faulty_spec()
        with pytest.raises(SweepAborted):
            run_sweep(spec, workers=2, out_dir=str(tmp_path), max_failures=0)
        journaled = load_journal(journal_path(str(tmp_path), "faulty"), spec)
        assert journaled, "completed runs must be journaled before a pooled abort"
        assert any(record.status == "error" for record in journaled.values())

    def test_resume_with_mismatched_spec_is_refused(self, tmp_path, monkeypatch):
        spec = tiny_spec("pinned")
        real_execute = runner_module.execute_run

        def dying_execute(run):
            if run.index == 1:
                raise KeyboardInterrupt
            return real_execute(run)

        monkeypatch.setattr(runner_module, "execute_run", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=1, out_dir=str(tmp_path))
        monkeypatch.setattr(runner_module, "execute_run", real_execute)
        with pytest.raises(ValueError, match="different sweep configuration"):
            run_sweep(spec.with_overrides(seed=7), workers=1, out_dir=str(tmp_path), resume=True)

    def test_resume_without_journal_runs_everything(self, tmp_path):
        spec = tiny_spec("fresh")
        path, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        assert payload["aggregate"]["runs"] == 4
        assert os.path.exists(path)

    def test_torn_trailing_journal_line_is_dropped(self, tmp_path, monkeypatch):
        spec = tiny_spec("torn")
        real_execute = runner_module.execute_run

        def dying_execute(run):
            if run.index == 2:
                raise KeyboardInterrupt
            return real_execute(run)

        monkeypatch.setattr(runner_module, "execute_run", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=1, out_dir=str(tmp_path))
        monkeypatch.setattr(runner_module, "execute_run", real_execute)
        jpath = journal_path(str(tmp_path), "torn")
        with open(jpath, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2, "seed": 123, "trunc')  # crash mid-append
        assert len(load_journal(jpath, spec)) == 2
        _, resumed = run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(resumed) == rows_bytes(baseline)

    def test_torn_fragment_then_second_interruption_keeps_checkpoints(self, tmp_path, monkeypatch):
        # Crash leaves a torn, newline-less fragment; the first resume must
        # compact the journal so its own appends start on a clean line —
        # otherwise a second interruption merges the fragment with the next
        # record and a later resume silently loses every checkpoint after it.
        spec = tiny_spec("double-crash")
        real_execute = runner_module.execute_run

        def die_at(index):
            def dying(run):
                if run.index == index:
                    raise KeyboardInterrupt
                return real_execute(run)

            return dying

        monkeypatch.setattr(runner_module, "execute_run", die_at(2))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=1, out_dir=str(tmp_path))
        jpath = journal_path(str(tmp_path), "double-crash")
        with open(jpath, "a", encoding="utf-8") as handle:
            handle.write('{"index": 2, "torn')  # no trailing newline
        monkeypatch.setattr(runner_module, "execute_run", die_at(3))
        with pytest.raises(KeyboardInterrupt):
            run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        # rows 0-2 must all have survived both interruptions
        assert len(load_journal(jpath, spec)) == 3
        monkeypatch.setattr(runner_module, "execute_run", real_execute)
        _, resumed = run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(resumed) == rows_bytes(baseline)

    def test_resume_over_headerless_journal_reinitialises_it(self, tmp_path):
        spec = tiny_spec("headerless")
        jpath = journal_path(str(tmp_path), "headerless")
        open(jpath, "w").close()  # a crash landed inside the header write
        path, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path), resume=True)
        assert payload["aggregate"]["runs"] == 4
        assert not os.path.exists(jpath)
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_journal_records_round_trip(self):
        record = RunRecord(
            sweep="s",
            index=3,
            family="diagnostic_fault",
            params={"n": 8, "fail": True},
            repeat=1,
            seed=99,
            strategy="auto",
            success=False,
            generators=[],
            query_report={},
            status="error",
            error="Traceback ...\nRuntimeError: boom\n",
        )
        round_tripped = RunRecord.from_json_dict(json.loads(json.dumps(record.to_json_dict())))
        assert round_tripped.row() == record.row()


class TestAtomicWrite:
    def test_failed_write_preserves_existing_bench_file(self, tmp_path):
        out = str(tmp_path)
        path = write_bench(out, "atomic", {"rows": [1, 2, 3]})
        original = open(path, "rb").read()
        with pytest.raises(TypeError):
            write_bench(out, "atomic", {"rows": {1, 2, 3}})  # sets are not JSON
        assert open(path, "rb").read() == original
        assert [n for n in os.listdir(out) if n.startswith("BENCH_atomic")] == ["BENCH_atomic.json"]


class TestAggregates:
    def test_empty_record_list_does_not_report_full_success(self):
        aggregate = aggregate_records([])
        assert aggregate["runs"] == 0
        assert aggregate["successes"] == 0
        assert aggregate["success_rate"] is None


class TestStatisticsWorkloads:
    def test_reserved_grid_keys_reach_the_solver(self):
        spec = SweepSpec.from_grid(
            "reserved",
            "dihedral_rotation",
            {"n": [8], "strategy": ["classical"], "confidence": [4]},
        )
        (run,) = spec.expand()
        assert run.strategy == "classical"
        assert run.options_dict()["confidence"] == 4
        assert run.instance_params() == {"n": 8}
        assert run.params_dict() == {"confidence": 4, "n": 8, "strategy": "classical"}

    def test_confidence_scan_trades_success_for_rounds(self):
        spec = SweepSpec.from_grid(
            "confidence-scan",
            "dihedral_rotation",
            {"n": [16], "confidence": [1, 16]},
            repeats=3,
            seed=7,
        )
        _, payload = run_sweep(spec, workers=1, out_dir=None)
        rows = {1: [], 16: []}
        for row in payload["rows"]:
            rows[dict(row["params"])["confidence"]].append(row)
        assert all(row["success"] for row in rows[16])
        low_queries = max(row["query_report"]["quantum_queries"] for row in rows[1])
        high_queries = min(row["query_report"]["quantum_queries"] for row in rows[16])
        assert low_queries < high_queries, "a lower confidence must use fewer sampling rounds"

    def test_strategy_crossover_runs_both_strategies(self):
        spec = SweepSpec.from_grid(
            "crossover",
            "dihedral_rotation",
            {"n": [8], "strategy": ["hidden_normal", "classical"]},
        )
        _, payload = run_sweep(spec, workers=1, out_dir=None)
        by_strategy = {row["strategy"]: row for row in payload["rows"]}
        assert set(by_strategy) == {"hidden_normal", "classical"}
        assert all(row["success"] for row in payload["rows"])
        assert by_strategy["classical"]["query_report"]["quantum_queries"] == 0
        assert by_strategy["hidden_normal"]["query_report"]["quantum_queries"] > 0

    def test_declared_statistics_workloads_expand(self):
        for name in ("success-vs-rounds", "success-vs-rounds-abelian", "strategy-crossover"):
            spec = get_workload(name)
            runs = spec.expand()
            assert runs, name
            assert len({run.seed for run in runs}) == len(runs)


class TestCLI:
    def test_run_with_errors_exits_nonzero_but_writes_bench(self, tmp_path, capsys):
        status = cli_main(["run", "fault-smoke", "--out", str(tmp_path)])
        assert status == 1
        assert (tmp_path / "BENCH_fault-smoke.json").exists()
        captured = capsys.readouterr()
        assert "errors: 2" in captured.out
        assert "FAILED" in captured.err

    def test_interrupt_via_max_failures_then_resume_matches_baseline(self, tmp_path, capsys):
        resumed_dir, baseline_dir = str(tmp_path / "resumed"), str(tmp_path / "baseline")
        # interrupted attempt: budget 0 aborts at the first error, journal kept
        assert cli_main(["run", "fault-smoke", "--max-failures", "0", "--out", resumed_dir]) == 1
        assert "aborted" in capsys.readouterr().err
        assert os.path.exists(journal_path(resumed_dir, "fault-smoke"))
        assert not os.path.exists(os.path.join(resumed_dir, "BENCH_fault-smoke.json"))
        # resume executes the remainder (status 1: the sweep has error rows)
        assert cli_main(["run", "fault-smoke", "--resume", "--out", resumed_dir]) == 1
        assert not os.path.exists(journal_path(resumed_dir, "fault-smoke"))
        # uninterrupted baseline at the same seed
        assert cli_main(["run", "fault-smoke", "--out", baseline_dir]) == 1
        resumed = load_bench(os.path.join(resumed_dir, "BENCH_fault-smoke.json"))
        baseline = load_bench(os.path.join(baseline_dir, "BENCH_fault-smoke.json"))
        assert rows_bytes(resumed) == rows_bytes(baseline)

    @pytest.mark.parametrize("field,value", [("batch", False), ("shards", 2)], ids=["batch", "shards"])
    def test_resume_refuses_a_journal_of_a_retired_sampler_switch(self, tmp_path, capsys, field, value):
        out = str(tmp_path)
        assert cli_main(["run", "fault-smoke", "--max-failures", "0", "--out", out]) == 1
        capsys.readouterr()
        journal = journal_path(out, "fault-smoke")
        with open(journal, encoding="utf-8") as handle:
            header, *records = handle.readlines()
        header = json.loads(header)
        header["sweep"]["sampler"][field] = value
        edited = [json.dumps(header, sort_keys=True) + "\n", *records]
        with open(journal, "w", encoding="utf-8") as handle:
            handle.writelines(edited)
        # a journal of another configuration must not be resumed as this one
        assert cli_main(["run", "fault-smoke", "--resume", "--out", out]) == 1
        assert "different sweep configuration" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "BENCH_fault-smoke.json"))
        with open(journal, encoding="utf-8") as handle:
            assert handle.readlines() == edited

    def test_report_marks_error_rows(self, tmp_path, capsys):
        cli_main(["run", "fault-smoke", "--out", str(tmp_path)])
        capsys.readouterr()
        assert cli_main(["report", "fault-smoke", "--out", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "ERR" in output
        assert "errors=2" in output
