"""The sidecar observability layer: span tracing.

The contract under test:

* spans are the only record: there is no counter registry and no
  standalone event, and every line a traced sweep writes is a span;
* :func:`repro.obs.span` returns the shared null singleton when no tracer
  is installed (no allocation, nothing emitted) and a real nested span —
  with parent ids, durations, attrs and counters — when one is; span ids
  are unique across every tracer a process installs;
* **the sidecar invariant**: a traced sweep produces BENCH rows
  byte-identical to an untraced one, with the exact same row key sets —
  telemetry lands only in its own files;
* ``trace summarise`` aggregates multi-writer JSONL traces into per-phase
  *exclusive* time (a span's duration minus its direct children's), with
  the roots' own time as ``unattributed``, so phase self times plus
  ``unattributed`` add up to the roots' wall time; children written by
  other processes (pool workers under the ``sweep`` span) subtract the
  union of their wall-clock intervals; it covers solver phases, sampler
  batches and engine builds.
"""

import importlib.util
import json
import os
import sys

import pytest

from repro import obs
from repro.experiments.cli import main as cli_main
from repro.experiments.distributed import work_queue
from repro.experiments.results import rows_bytes
from repro.experiments.runner import run_sweep
from repro.experiments.specs import SweepSpec
from repro.groups.engine import CayleyBackend
from repro.groups.perm import PermutationGroup, symmetric_group
from repro.groups.products import dihedral_semidirect
from repro.obs import trace as trace_mod

SEED = 20010202


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Every test leaves the process as it found it, with no tracer —
    the tracer is process-global state, and leakage here would poison
    unrelated tests."""
    yield
    trace_mod.install_tracer(None)


def tiny_spec(name="obs", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8]}, **defaults)


class TestTracer:
    def test_span_is_the_shared_null_singleton_when_disabled(self):
        assert trace_mod.current_tracer() is None
        first = obs.span("anything", attr=1)
        second = obs.span("else")
        assert first is obs.NULL_SPAN and second is obs.NULL_SPAN
        with first as active:
            active.add("counter")
            active.set(key="value")  # all no-ops, nothing raised

    @pytest.mark.parametrize(
        "name",
        [
            "Metrics",
            "count",
            "get_metrics",
            "reset_metrics",
            "event",
            "configure",
            "restore",
            "observed",
            "gauge",
            "observe",
            "timed",
            "timed_call",
        ],
    )
    def test_the_retired_registry_and_event_helpers_are_gone(self, name):
        # spans are the only record: counters ride on them via Span.add
        assert not hasattr(obs, name)
        assert not hasattr(trace_mod, name)
        assert not hasattr(trace_mod.Tracer, name)

    def test_the_metrics_module_is_gone(self):
        assert importlib.util.find_spec("repro.obs.metrics") is None

    def test_nested_spans_record_parent_ids_and_durations(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_mod.tracing(path, worker="w-test"):
            with obs.span("outer", stage="demo") as outer:
                outer.add("touched", 2)
                with obs.span("inner"):
                    pass
        events = [json.loads(line) for line in open(path)]
        by_name = {entry["name"]: entry for entry in events}
        inner, outer = by_name["inner"], by_name["outer"]
        # inner closes first (appended first) and points at outer
        assert events[0]["name"] == "inner"
        assert inner["parent"] == outer["span"]
        assert outer["parent"] is None
        assert outer["dur"] >= inner["dur"] >= 0.0
        assert outer["attrs"] == {"stage": "demo"}
        assert outer["counters"] == {"touched": 2}
        assert all(entry["worker"] == "w-test" for entry in events)
        assert all(entry["span"].startswith(f"{os.getpid()}-") for entry in events)

    def test_span_ids_stay_unique_across_tracers_in_one_process(self, tmp_path):
        # a second tracer installed in the same process must not restart
        # the numbering: the summary matches children to parents by id
        path = str(tmp_path / "trace.jsonl")
        for _ in range(2):
            with trace_mod.tracing(path):
                with obs.span("outer"):
                    with obs.span("inner"):
                        pass
        ids = [json.loads(line)["span"] for line in open(path)]
        assert len(ids) == 4 and len(set(ids)) == 4

    def test_span_records_the_exception_type(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with trace_mod.tracing(path):
            with pytest.raises(RuntimeError):
                with obs.span("doomed"):
                    raise RuntimeError("boom")
        (entry,) = [json.loads(line) for line in open(path)]
        assert entry["error"] == "RuntimeError"

    def test_tracing_installs_and_restores(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        assert trace_mod.current_tracer() is None
        with obs.tracing(path, worker="scoped") as tracer:
            assert trace_mod.current_tracer() is tracer
            assert tracer.worker == "scoped"
        assert trace_mod.current_tracer() is None

    def test_tracing_none_is_a_passthrough(self):
        with obs.tracing(None) as tracer:
            assert tracer is None
            assert trace_mod.current_tracer() is None

    def test_a_tracer_parent_adopts_its_top_level_spans(self, tmp_path):
        # how a pool worker's run spans hang under the dispatching sweep
        path = str(tmp_path / "trace.jsonl")
        tracer = obs.Tracer(path)
        tracer.parent = "1-7"
        obs.install_tracer(tracer)
        with obs.span("run"):
            with obs.span("inner"):
                pass
        by_name = {entry["name"]: entry for entry in map(json.loads, open(path))}
        assert by_name["run"]["parent"] == "1-7"
        assert by_name["inner"]["parent"] == by_name["run"]["span"]

    @pytest.mark.parametrize(
        "build, order",
        [
            (lambda: dihedral_semidirect(64), 128),
            (lambda: symmetric_group(5), 120),
            (lambda: PermutationGroup([tuple((i + 1) % 20 for i in range(20))], name="C20"), 20),
        ],
        ids=["D_64", "S_5", "C20"],
    )
    def test_engine_build_span_records_group_mode_and_size(self, tmp_path, build, order):
        # One id rule for every group: the span names no key path.
        path = str(tmp_path / "trace.jsonl")
        group = build()
        with trace_mod.tracing(path):
            CayleyBackend(group)
        (entry,) = [json.loads(line) for line in open(path)]
        assert entry["name"] == "engine.build"
        assert entry["attrs"] == {"group": group.name, "mode": "kernel"}
        assert entry["counters"] == {"interned": order}


class TestSidecarInvariant:
    """Satellite 3b + the tentpole's hard invariant: telemetry never touches
    the BENCH ledger."""

    def test_traced_sweep_rows_are_byte_identical(self, tmp_path):
        spec = tiny_spec()
        _, baseline = run_sweep(spec, out_dir=None)
        trace = str(tmp_path / "trace.jsonl")
        _, traced = run_sweep(spec, out_dir=None, trace=trace)
        assert rows_bytes(traced) == rows_bytes(baseline)
        assert [sorted(row) for row in traced["rows"]] == [
            sorted(row) for row in baseline["rows"]
        ]
        assert os.path.getsize(trace) > 0

    @pytest.mark.parametrize("entry", ["run_sweep", "work_queue"])
    def test_the_retired_profile_dir_raises_type_error(self, tmp_path, entry):
        with pytest.raises(TypeError):
            if entry == "run_sweep":
                run_sweep(tiny_spec(), out_dir=None, profile_dir=str(tmp_path / "prof"))
            else:
                work_queue(str(tmp_path / "q.sqlite"), profile_dir=str(tmp_path / "prof"))
        assert list(tmp_path.iterdir()) == []

    def test_noop_tracer_adds_no_keys_to_bench_rows(self):
        # with observability completely off, rows carry exactly the
        # pre-observability schema — no stray telemetry keys
        _, payload = run_sweep(tiny_spec(), out_dir=None)
        expected = {
            "index",
            "family",
            "params",
            "repeat",
            "seed",
            "strategy",
            "status",
            "error",
            "success",
            "generators",
            "query_report",
        }
        for row in payload["rows"]:
            assert set(row) == expected

    def test_worker_pool_with_tracing_matches_untraced(self, tmp_path):
        spec = tiny_spec(name="obs-pool")
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        trace = str(tmp_path / "pool-trace.jsonl")
        _, traced = run_sweep(spec, workers=2, out_dir=None, trace=trace)
        assert rows_bytes(traced) == rows_bytes(baseline)
        events = obs.load_trace_events([trace])
        # the pool children traced too, under their own writer names
        writers = {e.get("worker") for e in events if e.get("worker")}
        assert any(str(w).startswith("pool-") for w in writers)
        # and their run spans hang under the parent process's sweep span
        (sweep,) = [e for e in events if e["name"] == "sweep"]
        runs = [e for e in events if e["name"] == "run"]
        assert len(runs) == 2
        assert all(e["parent"] == sweep["span"] and e["pid"] != sweep["pid"] for e in runs)
        summary = obs.summarise_trace(events)
        assert summary["roots"] == 1
        assert summary["spans"]["sweep"]["self_s"] < sweep["dur"]


class TestTraceSummary:
    def test_loader_skips_torn_lines_and_raises_on_missing_files(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"event":"span","name":"a","dur":0.5,"pid":1}\n'
            '{"event":"run_metrics","pid":1,"metrics":{"counters":{}}}\n'  # not a span
            '{"event":"span","name":"a","dur'  # torn concurrent tail
        )
        events = obs.load_trace_events([str(path)])
        assert len(events) == 1
        with pytest.raises(OSError):
            obs.load_trace_events([str(tmp_path / "missing.jsonl")])

    def test_summary_aggregates_spans(self):
        # spans without a loaded parent are roots: their time is unattributed
        events = [
            {"event": "span", "name": "run", "dur": 1.0, "pid": 1, "worker": "w1"},
            {
                "event": "span",
                "name": "run",
                "dur": 3.0,
                "pid": 2,
                "worker": "w2",
                "counters": {"samples": 5},
            },
        ]
        summary = obs.summarise_trace(events)
        run = summary["spans"]["run"]
        assert run["count"] == 2
        assert run["total_s"] == pytest.approx(4.0)
        assert run["self_s"] == pytest.approx(4.0)
        assert run["max_s"] == pytest.approx(3.0)
        assert run["counters"] == {"samples": 5}
        assert summary["workers"] == ["w1", "w2"]
        assert summary["phases"] == {}
        assert summary["roots"] == 2
        assert summary["root_s"] == pytest.approx(4.0)
        assert summary["unattributed_s"] == pytest.approx(4.0)
        assert summary["self_s"] == pytest.approx(4.0)
        rendered = obs.format_trace_summary(summary)
        assert "run" in rendered and "samples=5" in rendered
        assert "metric counters" not in rendered
        assert "unattributed" in rendered
        assert "share" in rendered and "100.0%" in rendered

    @staticmethod
    def _span(span_id, parent, dur, name):
        return {
            "event": "span",
            "name": name,
            "span": span_id,
            "parent": parent,
            "dur": dur,
            "pid": int(span_id.split("-")[0]),
        }

    def test_self_time_subtracts_direct_children(self):
        summary = obs.summarise_trace(
            [
                self._span("1-1", None, 3.0, "root"),
                self._span("1-2", "1-1", 1.0, "a.child"),
                self._span("1-3", "1-1", 0.5, "b.child"),
            ]
        )
        assert summary["spans"]["root"]["self_s"] == pytest.approx(1.5)
        assert summary["unattributed_s"] == pytest.approx(1.5)
        assert summary["phases"]["a"] == {
            "span_count": 1,
            "self_s": 1.0,
            "share": pytest.approx(1 / 3),
        }
        assert summary["phases"]["b"]["self_s"] == pytest.approx(0.5)
        assert summary["root_s"] == pytest.approx(3.0)

    def test_grandchild_is_subtracted_only_from_its_direct_parent(self):
        summary = obs.summarise_trace(
            [
                self._span("1-1", None, 3.0, "root"),
                self._span("1-2", "1-1", 2.0, "mid.step"),
                self._span("1-3", "1-2", 0.5, "leaf.step"),
            ]
        )
        assert summary["unattributed_s"] == pytest.approx(1.0)
        assert summary["phases"]["mid"]["self_s"] == pytest.approx(1.5)
        assert summary["phases"]["leaf"]["self_s"] == pytest.approx(0.5)

    def test_a_span_whose_parent_is_not_loaded_counts_as_a_root(self):
        # the parent line was torn, or lives in another writer's file
        summary = obs.summarise_trace(
            [
                self._span("1-2", "1-1", 2.0, "orphan.step"),
                self._span("1-3", "1-2", 0.5, "leaf.step"),
            ]
        )
        assert summary["roots"] == 1
        assert summary["root_s"] == pytest.approx(2.0)
        assert summary["unattributed_s"] == pytest.approx(1.5)
        assert "orphan" not in summary["phases"]
        assert summary["phases"]["leaf"]["self_s"] == pytest.approx(0.5)

    def test_equal_suffixes_under_different_pids_do_not_match(self):
        summary = obs.summarise_trace(
            [
                self._span("100-1", None, 2.0, "first"),
                self._span("200-1", None, 1.0, "second"),
                self._span("200-2", "200-1", 0.5, "leaf.step"),
                self._span("100-2", "100-1", 0.25, "leaf.step"),
            ]
        )
        assert summary["spans"]["first"]["self_s"] == pytest.approx(1.75)
        assert summary["spans"]["second"]["self_s"] == pytest.approx(0.5)
        assert summary["roots"] == 2
        assert summary["phases"]["leaf"]["self_s"] == pytest.approx(0.75)

    def test_children_from_other_pids_subtract_the_union_of_their_intervals(self):
        # pool workers run concurrently under the parent's sweep span
        summary = obs.summarise_trace(
            [
                dict(self._span("1-1", None, 100.0, "sweep"), ts=0.0),
                dict(self._span("2-1", "1-1", 50.0, "run"), ts=10.0),
                dict(self._span("3-1", "1-1", 70.0, "run"), ts=20.0),
            ]
        )
        assert summary["spans"]["sweep"]["self_s"] == pytest.approx(20.0)
        assert summary["unattributed_s"] == pytest.approx(20.0)
        assert summary["roots"] == 1 and summary["root_s"] == pytest.approx(100.0)
        assert summary["phases"]["run"]["self_s"] == pytest.approx(120.0)
        # shares are of the summed self time, not of the root wall time
        assert summary["self_s"] == pytest.approx(140.0)
        assert summary["phases"]["run"]["share"] == pytest.approx(120.0 / 140.0)

    @staticmethod
    def _assert_exclusive_split_adds_up(summary):
        attributed = sum(phase["self_s"] for phase in summary["phases"].values())
        assert abs(attributed + summary["unattributed_s"] - summary["root_s"]) < 1e-6
        assert summary["root_s"] > 0.0

    def test_exclusive_split_adds_up_to_root_wall_time(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        run_sweep(tiny_spec(name="obs-split"), workers=1, out_dir=None, trace=trace)
        events = obs.load_trace_events([trace])
        summary = obs.summarise_trace(events)
        (sweep,) = [e for e in events if e.get("event") == "span" and e["name"] == "sweep"]
        assert summary["roots"] == 1
        assert summary["root_s"] == pytest.approx(sweep["dur"], abs=1e-9)
        self._assert_exclusive_split_adds_up(summary)
        # a second sweep appended to the same file keeps every id distinct
        run_sweep(tiny_spec(name="obs-split"), workers=1, out_dir=None, trace=trace)
        events = obs.load_trace_events([trace])
        ids = [e["span"] for e in events if e.get("event") == "span"]
        assert len(ids) == len(set(ids))
        summary = obs.summarise_trace(events)
        assert summary["roots"] == 2
        self._assert_exclusive_split_adds_up(summary)

    def test_solver_phases_sampler_batches_and_engine_events_covered(self, tmp_path):
        trace = str(tmp_path / "trace.jsonl")
        run_sweep(tiny_spec(name="obs-phases"), out_dir=None, trace=trace)
        summary = obs.summarise_trace(obs.load_trace_events([trace]))
        names = set(summary["spans"])
        assert "solver.choose_strategy" in names
        assert any(name.startswith("solver.strategy.") for name in names)
        assert "sampler.batch" in names
        assert "engine.build" in names
        assert summary["spans"]["sampler.batch"]["counters"]["samples"] > 0
        # spans are the only record the trace holds
        lines = [json.loads(line) for line in open(trace)]
        assert {entry["event"] for entry in lines} == {"span"}
        # the engine's build time shows as its own phase, exclusive of the
        # solver and sampler spans around it
        phases = summary["phases"]
        assert {"solver", "sampler", "engine"} <= set(phases)
        assert phases["engine"]["span_count"] > 0
        assert phases["engine"]["self_s"] > 0.0


class TestTraceCLI:
    def test_cli_run_with_trace_then_summarise(self, tmp_path, capsys):
        out = str(tmp_path)
        trace = str(tmp_path / "trace.jsonl")
        assert cli_main(["run", "smoke", "--out", out, "--trace", trace]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "summarise", trace]) == 0
        rendered = capsys.readouterr().out
        assert "solver.choose_strategy" in rendered
        assert "sampler.batch" in rendered
        assert "phase" in rendered and "calls" in rendered

    def test_summarize_alias_and_multiple_files(self, tmp_path, capsys):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        first.write_text('{"event":"span","name":"x","dur":1.0,"pid":1}\n')
        second.write_text('{"event":"span","name":"x","dur":1.0,"pid":2}\n')
        assert cli_main(["trace", "summarize", str(first), str(second)]) == 0
        assert "2 trace event(s)" in capsys.readouterr().out

    def test_empty_trace_exits_nonzero(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert cli_main(["trace", "summarise", str(empty)]) == 1
        assert "no trace events" in capsys.readouterr().err

    def test_a_closed_stdout_pipe_exits_quietly(self, tmp_path, monkeypatch):
        # ``trace summarise t.jsonl | head``: the reader goes away early
        trace = tmp_path / "trace.jsonl"
        trace.write_text('{"event":"span","name":"x","dur":1.0,"pid":1}\n')
        sink = open(tmp_path / "stdout.txt", "w")

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return sink.fileno()

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli_main(["trace", "summarise", str(trace)]) == 0
        # the descriptor behind stdout now discards what is left
        os.write(sink.fileno(), b"dropped")
        sink.close()
        assert (tmp_path / "stdout.txt").read_text() == ""

    def test_missing_trace_file_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["trace", "summarise", str(tmp_path / "nope.jsonl")]) == 1
        assert capsys.readouterr().err

    def test_report_shows_per_strategy_timings(self, tmp_path, capsys):
        out = str(tmp_path)
        assert cli_main(["run", "smoke", "--out", out]) == 0
        capsys.readouterr()
        assert cli_main(["report", "smoke", "--out", out]) == 0
        rendered = capsys.readouterr().out
        assert "per-strategy timings:" in rendered
        assert "hidden_normal" in rendered
        assert "mean=" in rendered and "max=" in rendered
