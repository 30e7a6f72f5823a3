"""The queue-backed distributed runner (PR 5) and its SQLite transport.

The contract under test, for the single-file SQLite WAL queue at its
default ``.sqlite`` path, at an extensionless one, and as a caller-owned
``SqliteTransport`` held open across every call:

* a ``RunSpec`` round-trips exactly through its JSON task form — the
  descriptor *is* the unit of work a worker executes;
* ``enqueue`` materialises the pending runs as claimable tasks; ``work``
  processes claim them exactly-once under contention, heartbeat their
  leases, reclaim stale leases of dead workers, and append to per-worker
  shards;
* ``collect`` merges the shards — dedup by ``(index, seed)``, ok preferred
  over error — and produces rows byte-identical to a single-process
  ``run`` of the same spec, refusing an incomplete queue loudly;
* a task whose payload will not parse is *quarantined* at claim time and
  reported once — never crash-looped through stale-reclaim ping-pong;
* a fully covered queue with a live lease still outstanding refuses
  ``collect`` (``--force`` overrides with deterministic rows);
* killing a worker mid-task (the integration drill) loses nothing: the
  lease is reclaimed, a survivor re-executes the run, and the collected
  BENCH matches the uninterrupted baseline;
* a BENCH file and a surviving journal that *disagree* fail every reader
  loudly, naming the divergent ``(index, seed)`` pairs.
"""

import copy
import itertools
import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments import (
    LedgerDivergence,
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    RunRecord,
    SweepSpec,
    check_journal_agreement,
    collect_queue,
    enqueue_sweep,
    load_bench,
    run_sweep,
    work_queue,
    write_bench,
)
from repro.experiments.cli import main as cli_main
from repro.experiments.distributed import (
    claim_next,
    corrupt_report,
    default_heartbeat,
    lease_report,
    load_queue_spec,
    queue_db_path,
    queue_progress,
    queue_status,
    reclaim_stale,
    validate_lease_timings,
)
from repro.experiments.runner import execute_run_safe
from repro.obs import load_trace_events, summarise_trace
from repro.experiments.results import (
    append_journal,
    journal_path,
    load_journal,
    merge_record_streams,
    rows_bytes,
    write_journal_header,
)
from repro.experiments.specs import RunSpec, SamplerSpec
from repro.experiments.transports import (
    Claim,
    CorruptTask,
    SqliteTransport,
    resolve_transport,
)

SEED = 20010202
SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# "sqlite-bare" is a SQLite queue at an extensionless path — QUEUE_<name>,
# the location a retired directory queue used to occupy.  Routing never
# looks at the extension, so every behaviour must hold there too.
# "sqlite-open" passes the library calls one caller-owned SqliteTransport
# (the other half of ``QueueLike``) whose connection stays open for the
# whole test, so every transaction must leave it reusable; the CLI and
# worker subprocesses of that leg open the same database by path.
TRANSPORTS = ["sqlite", "sqlite-bare", "sqlite-open"]

# the caller-owned transports of the "sqlite-open" leg, closed at teardown
_OPEN_TRANSPORTS = []


def tiny_spec(name="queued", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(name, "dihedral_rotation", {"n": [8, 12]}, **defaults)


def faulty_spec(name="queued-faulty", **kwargs):
    defaults = dict(repeats=2, seed=SEED)
    defaults.update(kwargs)
    return SweepSpec.from_grid(
        name, "diagnostic_fault", {"n": [8], "fail": [False, True]}, **defaults
    )


def open_transport(path):
    transport = SqliteTransport(path)
    _OPEN_TRANSPORTS.append(transport)
    return transport


def make_queue(tmp_path, kind, spec):
    """The queue of ``spec`` for a queue leg under ``tmp_path``: a path, or
    for the "sqlite-open" leg a caller-owned transport."""
    db = queue_db_path(str(tmp_path), spec.name)
    if kind == "sqlite-bare":
        return os.path.splitext(db)[0]
    if kind == "sqlite-open":
        return open_transport(db)
    return db


def location(queue):
    """The path of ``queue`` for a CLI argument or a worker subprocess."""
    return queue.location if isinstance(queue, SqliteTransport) else queue


def cli_queue_args(tmp_path, kind, name="queue-smoke"):
    """(queue, enqueue argv) for a CLI lifecycle test of ``kind``: bare
    SQLite queues by an explicit ``--queue-db`` path, the others at their
    default ``QUEUE_<name>.sqlite`` path under ``--out``."""
    out = str(tmp_path)
    if kind == "sqlite-bare":
        path = os.path.join(out, f"QUEUE_{name}")
        return path, ["enqueue", name, "--queue-db", path]
    path = os.path.join(out, f"QUEUE_{name}.sqlite")
    if kind == "sqlite-open":
        return open_transport(path), ["enqueue", name, "--out", out]
    return path, ["enqueue", name, "--out", out]


def force_stale(queue, age=900.0):
    """Backdate every live lease's liveness stamp by ``age`` seconds — the
    holder 'died' that long ago and its heartbeat froze."""
    resolve_transport(queue)._connect().execute(
        "UPDATE tasks SET heartbeat_at = heartbeat_at - ? WHERE status = 'running'",
        (age,),
    )


def plant_corrupt_task(queue):
    """Corrupt the lowest-indexed pending task's payload (torn mid-write /
    hand-edited)."""
    resolve_transport(queue)._connect().execute(
        "UPDATE tasks SET run_json = '{\"torn' "
        "WHERE idx = (SELECT MIN(idx) FROM tasks WHERE status = 'pending')"
    )


def rewrite_lowest_pending_task(queue, edit):
    """Apply ``edit`` to the lowest-indexed pending task's parsed payload
    (a well-formed task from another build)."""
    con = resolve_transport(queue)._connect()
    idx, run_json = con.execute(
        "SELECT idx, run_json FROM tasks WHERE status = 'pending' ORDER BY idx LIMIT 1"
    ).fetchone()
    payload = json.loads(run_json)
    edit(payload)
    con.execute(
        "UPDATE tasks SET run_json = ? WHERE idx = ?", (json.dumps(payload, sort_keys=True), idx)
    )


def _parent_of(payload, path):
    """The mapping that holds the field at key ``path`` of ``payload``."""
    for key in path[:-1]:
        payload = payload[key]
    return payload


def with_field(payload, path, value):
    """A deep copy of ``payload`` with the field at key ``path`` set to
    ``value``."""
    edited = copy.deepcopy(payload)
    _parent_of(edited, path)[path[-1]] = value
    return edited


def without_field(payload, path):
    """A deep copy of ``payload`` with the field at key ``path`` removed."""
    edited = copy.deepcopy(payload)
    del _parent_of(edited, path)[path[-1]]
    return edited


def _spec_reader_legs():
    """``(reader, payload, path, constant)`` for every retired configuration
    switch each spec reader still reads: the switch at key ``path`` of the
    well-formed ``payload`` serialises as ``constant`` and may only be
    absent or equal to it."""
    sampler_switches = {"batch": True, "shards": None, "statevector_limit": 16384}
    readers = [
        ("sampler", SamplerSpec.from_json_dict, SamplerSpec().to_json_dict(), ()),
        ("run", RunSpec.from_json_dict, tiny_spec().expand()[0].to_json_dict(), ("sampler",)),
        ("sweep", SweepSpec.from_json_dict, tiny_spec().to_json_dict(), ("sampler",)),
    ]
    legs = []
    for owner, reader, payload, sampler_path in readers:
        switches = [(sampler_path + (key,), value) for key, value in sampler_switches.items()]
        if owner != "sampler":
            switches.insert(0, (("engine",), True))
        for path, constant in switches:
            legs.append(pytest.param(reader, payload, path, constant, id=f"{owner}-{path[-1]}"))
    return legs


SPEC_READERS = _spec_reader_legs()

#: Values a hand-edited or foreign spec might carry for a retired switch.
#: Each is refused unless it is the switch's constant, of the same JSON type
#: (``1`` is not ``true`` and ``16384.0`` is not ``16384``).
RETIRED_SWITCH_VALUES = [False, "false", "true", 0, 1, None, 2, 16384.0, "16384", "null"]

REFUSED_SWITCH_VALUES = [
    pytest.param(*leg.values, value, id=f"{leg.id}-{value!r}")
    for leg in SPEC_READERS
    for value in RETIRED_SWITCH_VALUES
    if not (type(value) is type(leg.values[3]) and value == leg.values[3])
]


@pytest.fixture(params=TRANSPORTS)
def kind(request):
    yield request.param
    while _OPEN_TRANSPORTS:
        _OPEN_TRANSPORTS.pop().close()


class TestSpecSerialization:
    def test_run_spec_round_trips_through_json(self):
        spec = SweepSpec.from_grid(
            "rt",
            "abelian_random",
            {"moduli": [(16, 9, 5)], "confidence": [4]},
            repeats=3,
            seed=7,
            sampler=SamplerSpec(backend="analytic"),
            solver_options={"confidence": 4},
        )
        for run in spec.expand():
            payload = run.to_json_dict()
            # the retired switches serialise as constants, so every
            # committed header and queue task keeps its bytes
            assert payload["engine"] is True
            assert payload["sampler"] == {
                "backend": "analytic", "batch": True, "shards": None, "statevector_limit": 16384
            }
            round_tripped = RunSpec.from_json_dict(json.loads(json.dumps(payload)))
            assert round_tripped == run

    def test_sweep_spec_round_trips_through_json(self):
        for spec in (tiny_spec(), faulty_spec(), SweepSpec.from_grid(
            "rt2", "abelian_random", {"moduli": [(8, 9), (16, 9, 5)]}, description="d"
        )):
            round_tripped = SweepSpec.from_json_dict(json.loads(json.dumps(spec.to_json_dict())))
            assert round_tripped == spec
            assert round_tripped.expand() == spec.expand()

    def test_sampler_spec_round_trips(self):
        for sampler in (SamplerSpec(), SamplerSpec(backend="statevector")):
            assert SamplerSpec.from_json_dict(sampler.to_json_dict()) == sampler

    @pytest.mark.parametrize("reader,payload,path,constant,value", REFUSED_SWITCH_VALUES)
    def test_a_retired_switch_other_than_its_constant_is_refused(
        self, reader, payload, path, constant, value
    ):
        # bool("false") is True and 1 == True: a coercing reader would
        # silently run the one configuration left while the payload asks
        # for another
        with pytest.raises(ValueError, match=f"'{path[-1]}' must be {json.dumps(constant)} "):
            reader(with_field(payload, path, value))

    @pytest.mark.parametrize("reader,payload,path,constant", SPEC_READERS)
    def test_a_retired_switch_reads_when_constant_or_absent(self, reader, payload, path, constant):
        absent = without_field(payload, path)
        assert reader(with_field(absent, path, constant)) == reader(absent) == reader(payload)


class TestTransportResolution:
    def test_urls_are_refused_and_paths_resolve_to_sqlite(self, tmp_path):
        # a URL names the retired HTTP coordinator; it must never become a
        # SQLite path (an `http:/` directory holding a `127.0.0.1:1` file).
        # Paths resolve lazily: no database needs to exist to resolve one
        for url in ("http://127.0.0.1:1", "https://example.org/queue"):
            with pytest.raises(QueueCorrupt, match="retired HTTP coordinator"):
                resolve_transport(url)
        assert isinstance(resolve_transport(str(tmp_path / "q.sqlite")), SqliteTransport)
        assert isinstance(resolve_transport(str(tmp_path / "QUEUE_q")), SqliteTransport)

    def test_a_database_without_extension_round_trips(self, tmp_path):
        spec = tiny_spec()
        queue = str(tmp_path / "queue-without-extension")
        enqueue_sweep(spec, queue)
        assert isinstance(resolve_transport(queue), SqliteTransport)
        assert load_queue_spec(queue) == spec

    def test_a_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "not-a-queue.sqlite"
        path.write_text("just some text")
        with pytest.raises(QueueCorrupt, match="unreadable"):
            load_queue_spec(str(path))
        with pytest.raises(QueueCorrupt):
            enqueue_sweep(tiny_spec(), str(path))
        assert path.read_text() == "just some text"

    def test_a_directory_is_refused_as_a_retired_directory_queue(self, tmp_path):
        with pytest.raises(QueueCorrupt, match="retired directory queue"):
            resolve_transport(str(tmp_path))

    def test_transport_instances_pass_through(self, tmp_path):
        transport = SqliteTransport(str(tmp_path / "q.sqlite"))
        assert resolve_transport(transport) is transport


class TestEnqueue:
    def test_enqueue_materialises_every_run_as_a_task(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        counts = enqueue_sweep(spec, queue)
        assert counts == {"enqueued": 4, "already_done": 0}
        status = queue_status(queue)
        assert status == {"tasks": 4, "leases": 0, "shards": 0, "corrupt": 0}
        assert load_queue_spec(queue) == spec
        # tasks parse back to the exact expansion
        runs = []
        while True:
            claim = claim_next(queue, "w0")
            if claim is None:
                break
            assert isinstance(claim, Claim)
            runs.append(claim.run)
        assert runs == spec.expand()

    def test_enqueue_refuses_a_busy_queue(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        with pytest.raises(ValueError, match="outstanding"):
            enqueue_sweep(spec, queue)

    def test_enqueue_refuses_a_different_spec(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        with pytest.raises(ValueError, match="different sweep configuration"):
            enqueue_sweep(spec.with_overrides(seed=7), queue)

    def test_reenqueue_of_a_drained_queue_retries_errors_only(self, tmp_path, kind):
        spec = faulty_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        counts = enqueue_sweep(spec, queue)  # 2 ok rows stay done, 2 errors retry
        assert counts == {"enqueued": 2, "already_done": 2}
        status = queue_status(queue)
        assert status["tasks"] == 2


class TestClaimAndLease:
    def test_claim_is_exactly_once(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        seen = set()
        for worker in ("a", "b", "a", "b", "a"):
            claim = claim_next(queue, worker)
            if claim is None:
                break
            assert claim.run.index not in seen
            seen.add(claim.run.index)
        assert seen == {0, 1, 2, 3}
        assert claim_next(queue, "c") is None

    def test_fresh_leases_are_not_reclaimed(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        claim_next(queue, "w0")
        assert reclaim_stale(queue, stale_after=60.0) == 0
        assert queue_status(queue)["leases"] == 1

    def test_stale_lease_is_reclaimed_and_reexecuted(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        claim_next(queue, "dead")
        force_stale(queue)  # the holder died; its heartbeat froze
        assert reclaim_stale(queue, stale_after=10.0) == 1
        status = queue_status(queue)
        assert (status["tasks"], status["leases"]) == (4, 0)
        # a live worker drains everything, including the reclaimed run
        stats = work_queue(queue, worker_id="alive")
        assert stats["executed"] == 4
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_lease_clock_starts_at_the_claim_not_at_enqueue(self, tmp_path, kind, monkeypatch):
        # a task claimed long after it was enqueued must not be born stale
        # and reclaimed out from under its live holder: the liveness stamp
        # is the claim time, never the enqueue time
        from repro.experiments.transports import sqlite as sqlite_mod

        clock = {"t": 1000.0}
        monkeypatch.setattr(sqlite_mod, "_now", lambda: clock["t"])
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        clock["t"] += 900.0                     # the task waited 15 minutes
        assert isinstance(claim_next(queue, "slowpoke"), Claim)
        clock["t"] += 5.0
        assert reclaim_stale(queue, stale_after=60.0) == 0
        assert queue_status(queue)["leases"] == 1
        clock["t"] += 60.0                      # now genuinely silent
        assert reclaim_stale(queue, stale_after=60.0) == 1

    def test_a_worker_id_resumed_later_continues_its_shard(self, tmp_path, kind):
        # a worker started again under the same id appends after the records
        # of its first life: one shard, every run once, rows identical to run
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        assert work_queue(queue, worker_id="w0", max_tasks=2)["executed"] == 2
        assert work_queue(queue, worker_id="w0")["executed"] == 2
        progress = queue_progress(queue)
        assert [(e["worker"], e["records"]) for e in progress["workers"]] == [("w0", 4)]
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)


class TestCorruptQuarantine:
    """The corrupt-task lease bugfix: quarantine instead of the old
    crash-holding-the-lease → stale-reclaim → crash-again ping-pong."""

    def test_corrupt_task_is_quarantined_and_queue_drains(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        plant_corrupt_task(queue)
        stats = work_queue(queue, worker_id="w0")
        # the queue drained around the corrupt task instead of crashing
        assert stats["executed"] == 3
        assert stats["corrupt"] == 1
        status = queue_status(queue)
        assert status["tasks"] == 0
        assert status["leases"] == 0
        assert status["corrupt"] == 1
        reports = corrupt_report(queue)
        assert len(reports) == 1
        assert isinstance(reports[0], CorruptTask)
        assert reports[0].reason

    def test_claim_next_surfaces_the_quarantine(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        plant_corrupt_task(queue)
        claim = claim_next(queue, "w0")
        assert isinstance(claim, CorruptTask)
        # the quarantined task is out of the claimable set: no lease exists,
        # so no reclaim ping-pong can ever start
        assert queue_status(queue)["leases"] == 0
        assert reclaim_stale(queue, stale_after=0.001) == 0
        nxt = claim_next(queue, "w0")
        assert isinstance(nxt, Claim)

    @pytest.mark.parametrize(
        "edit,reason",
        [
            pytest.param(lambda task: task.update(engine=False), "'engine' must be true", id="engine"),
            pytest.param(
                lambda task: task["sampler"].update(batch=False), "'batch' must be true", id="batch"
            ),
            pytest.param(
                lambda task: task["sampler"].update(shards=2), "'shards' must be null", id="shards"
            ),
            # a misspelt backend from another build is refused the same way
            pytest.param(
                lambda task: task["sampler"].update(backend="statevectr"),
                "unknown backend 'statevectr'",
                id="unknown-backend",
            ),
        ],
    )
    def test_a_task_asking_for_a_retired_switch_is_quarantined(self, tmp_path, kind, edit, reason):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        rewrite_lowest_pending_task(queue, edit)
        claim = claim_next(queue, "w0")
        assert isinstance(claim, CorruptTask)
        assert reason in claim.reason
        assert queue_status(queue)["leases"] == 0
        assert isinstance(claim_next(queue, "w0"), Claim)

    def test_collect_refuses_a_quarantined_queue_naming_tasks(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        plant_corrupt_task(queue)
        work_queue(queue, worker_id="w0")
        with pytest.raises(QueueCorrupt, match="quarantined 1 corrupt task"):
            collect_queue(queue, str(tmp_path))

    def test_reenqueue_reissues_quarantined_tasks(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        plant_corrupt_task(queue)
        work_queue(queue, worker_id="w0")
        counts = enqueue_sweep(spec, queue)
        assert counts == {"enqueued": 1, "already_done": 3}
        assert corrupt_report(queue) == []
        work_queue(queue, worker_id="w1")
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_work_cli_reports_quarantine_once_and_exits_nonzero(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        plant_corrupt_task(queue)
        assert cli_main(["work", location(queue), "--worker-id", "w0"]) == 1
        captured = capsys.readouterr()
        assert "executed 3 task(s)" in captured.out
        assert captured.err.count("CORRUPT:") == 1
        assert "re-enqueue" in captured.err


class TestCollectBusy:
    """The collect-with-live-lease bugfix: a covered expansion plus an
    outstanding lease (a reclaim-after-append duplicate still executing)
    refuses collect unless forced."""

    def _covered_queue_with_live_lease(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        # simulate the reclaim-after-append state: the run's record is in
        # w0's shard, but a re-issued task for it is claimed and live
        resolve_transport(queue).enqueue([spec.expand()[0]])
        claim = claim_next(queue, "w-live")
        assert isinstance(claim, Claim)
        return spec, queue

    def test_collect_refuses_while_a_lease_is_live(self, tmp_path, kind):
        _, queue = self._covered_queue_with_live_lease(tmp_path, kind)
        with pytest.raises(QueueBusy, match="live lease"):
            collect_queue(queue, str(tmp_path))

    def test_force_collects_the_covered_rows(self, tmp_path, kind):
        spec, queue = self._covered_queue_with_live_lease(tmp_path, kind)
        _, payload = collect_queue(queue, str(tmp_path), force=True)
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_collect_cli_force_warns_but_succeeds(self, tmp_path, kind, capsys):
        _, queue = self._covered_queue_with_live_lease(tmp_path, kind)
        assert cli_main(["collect", location(queue), "--out", str(tmp_path)]) == 1
        assert "live lease" in capsys.readouterr().err
        assert cli_main(["collect", location(queue), "--out", str(tmp_path), "--force"]) == 0
        assert "warning: collected with 1 live lease(s)" in capsys.readouterr().err

    def test_incomplete_beats_busy_in_the_error_report(self, tmp_path, kind):
        # with records actually missing the error must say *incomplete*
        # (run more workers), not busy (wait) — the actionable message wins
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        claim = claim_next(queue, "w-live")
        assert isinstance(claim, Claim)
        with pytest.raises(QueueIncomplete, match="1 outstanding lease"):
            collect_queue(queue, str(tmp_path))


class TestLeaseTimings:
    """The heartbeat-default bugfix: 'every few seconds', never a quarter of
    the staleness threshold; degenerate timings rejected up front."""

    def test_default_heartbeat_is_a_tenth_capped_at_five_seconds(self):
        assert default_heartbeat(300.0) == 5.0  # was 75 s (stale/4)
        assert default_heartbeat(20.0) == 2.0
        assert default_heartbeat(1.2) == pytest.approx(0.12)

    def test_validate_rejects_degenerate_timings(self):
        with pytest.raises(ValueError, match="stale-after must be positive"):
            validate_lease_timings(0.0, 1.0, None)
        with pytest.raises(ValueError, match="stale-after must be positive"):
            validate_lease_timings(-5.0, 1.0, None)
        with pytest.raises(ValueError, match="poll must be positive"):
            validate_lease_timings(300.0, 0.0, None)
        with pytest.raises(ValueError, match="heartbeat"):
            validate_lease_timings(300.0, 1.0, 300.0)  # heartbeat == stale
        with pytest.raises(ValueError, match="heartbeat"):
            validate_lease_timings(300.0, 1.0, 0.0)
        validate_lease_timings(300.0, 1.0, 5.0)  # sane values pass

    def test_work_queue_rejects_zero_stale_after(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        with pytest.raises(ValueError, match="stale-after"):
            work_queue(queue, worker_id="w0", stale_after=0.0)

    def test_work_cli_rejects_nonpositive_timings_at_parse_time(self, tmp_path, capsys):
        for flags in (["--stale-after", "0"], ["--poll", "-1"], ["--heartbeat", "0"]):
            with pytest.raises(SystemExit):
                cli_main(["work", str(tmp_path)] + flags)
            assert "positive" in capsys.readouterr().err

    def test_work_cli_rejects_heartbeat_at_or_past_stale_after(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        assert cli_main(["work", location(queue), "--stale-after", "10", "--heartbeat", "10"]) == 1
        assert "heartbeat" in capsys.readouterr().err


class TestWorkAndCollect:
    def test_single_worker_queue_matches_run(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        stats = work_queue(queue, worker_id="solo")
        assert stats == {"executed": 4, "errors": 0, "reclaimed": 0, "corrupt": 0}
        path, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        assert rows_bytes(load_bench(path)) == rows_bytes(baseline)

    def test_two_alternating_workers_match_run(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        # interleave two workers one task at a time: four shard-wise splits
        executed = 0
        while executed < 4:
            for worker in ("w1", "w2"):
                executed += work_queue(queue, worker_id=worker, max_tasks=1)["executed"]
        assert queue_status(queue)["shards"] == 2
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)

    def test_noisy_sweep_distributed_matches_run(self, tmp_path, kind):
        # The noise-channel determinism drill: corrupted answers derive from
        # the per-run seed, never from which worker executes the run, so a
        # noisy 2-worker work/collect is byte-identical to the
        # single-process `run` on both queue legs.
        spec = SweepSpec.from_grid(
            "queued-noisy",
            "dihedral_rotation",
            {
                "n": [8, 12],
                "noise": ["oracle-flip(0.3)"],
                "strategy": ["hidden_normal", "classical_adaptive"],
            },
            repeats=2,
            seed=SEED,
        )
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        executed = 0
        while executed < len(spec.expand()):
            for worker in ("w1", "w2"):
                executed += work_queue(queue, worker_id=worker, max_tasks=1)["executed"]
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        statuses = {row["status"] for row in payload["rows"]}
        assert "error" not in statuses

    def test_error_rows_flow_through_the_queue(self, tmp_path, kind):
        spec = faulty_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        stats = work_queue(queue, worker_id="w0")
        assert stats["executed"] == 4 and stats["errors"] == 2
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        assert payload["aggregate"]["errors"] == 2

    def test_collect_refuses_an_incomplete_queue(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0", max_tasks=2)
        with pytest.raises(QueueIncomplete, match=r"2 run\(s\) have no journaled record"):
            collect_queue(queue, str(tmp_path))

    def test_collect_refuses_foreign_shard_records(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        rogue = RunRecord(
            sweep=spec.name, index=99, family="dihedral_rotation", params={"n": 8},
            repeat=0, seed=1, strategy="auto", success=True, generators=[], query_report={},
        )
        resolve_transport(queue).append_record("w0", rogue)
        with pytest.raises(QueueCorrupt, match="outside the pinned sweep expansion"):
            collect_queue(queue, str(tmp_path))

    def test_a_done_task_without_a_record_counts_as_missing(self, tmp_path, kind):
        # collect trusts the records, never the task states: a run whose
        # record is gone (an insert that never committed) is missing even
        # though its task was released as done
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        resolve_transport(queue)._connect().execute(
            "DELETE FROM records WHERE seq = (SELECT MAX(seq) FROM records)"
        )
        assert queue_status(queue)["tasks"] == 0
        with pytest.raises(QueueIncomplete, match=r"1 run\(s\) have no journaled record"):
            collect_queue(queue, str(tmp_path))

    def test_duplicate_records_across_shards_dedup_preferring_ok(self, tmp_path, kind):
        spec = faulty_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        # a reclaimed-after-append duplicate: the same runs journaled again
        # by a second worker, with one legitimate error row flipped to ok —
        # the merge must prefer the ok record wherever one exists
        transport = resolve_transport(queue)
        streams = dict(transport.record_streams())
        (records,) = streams.values()
        import dataclasses

        for key, record in sorted(records.items()):
            if record.status == "error":
                record = dataclasses.replace(record, status="ok", error=None, success=True)
            transport.append_record("w1", record)
        streams = [recs for _, recs in transport.record_streams()]
        merged = merge_record_streams(streams)
        assert len(merged) == 4
        assert all(record.status == "ok" for record in merged.values())
        # and the reverse shard order makes no difference
        reversed_merge = merge_record_streams(reversed(streams))
        assert {k: v.row() for k, v in merged.items()} == {
            k: v.row() for k, v in reversed_merge.items()
        }


class TestSqliteSpecifics:
    def test_database_runs_in_wal_mode(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        (mode,) = resolve_transport(queue)._connect().execute("PRAGMA journal_mode").fetchone()
        assert mode == "wal"

    def test_record_rows_store_journal_identical_lines(self, tmp_path):
        # the byte-identity contract rests on queue records and journal
        # lines serializing to the exact same sorted-key JSON form
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0", max_tasks=1)
        (line,) = resolve_transport(queue)._connect().execute(
            "SELECT record_json FROM records"
        ).fetchone()
        record = RunRecord.from_json_dict(json.loads(line))
        assert json.dumps(record.to_json_dict(), sort_keys=True) == line

    def test_wrong_layout_version_is_refused(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        resolve_transport(queue)._connect().execute(
            "UPDATE meta SET value = '999' WHERE key = 'queue_version'"
        )
        with pytest.raises(QueueCorrupt, match="layout version"):
            load_queue_spec(queue)

    @pytest.mark.parametrize(
        "path,value,reason",
        [
            pytest.param(("engine",), False, "'engine' must be true", id="engine"),
            pytest.param(("sampler", "shards"), 2, "'shards' must be null", id="shards"),
        ],
    )
    def test_a_queue_pinning_a_retired_switch_is_corrupt(self, tmp_path, path, value, reason):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        con = resolve_transport(queue)._connect()
        (pinned,) = con.execute("SELECT value FROM meta WHERE key = 'sweep'").fetchone()
        con.execute(
            "UPDATE meta SET value = ? WHERE key = 'sweep'",
            (json.dumps(with_field(json.loads(pinned), path, value), sort_keys=True),),
        )
        with pytest.raises(QueueCorrupt, match=f"does not pin a sweep spec: .*{reason}"):
            load_queue_spec(queue)
        with pytest.raises(QueueCorrupt, match=reason):
            work_queue(queue, worker_id="w0")

    def test_unparseable_record_row_stops_that_shard_stream(self, tmp_path):
        # mirror of the journal torn-line contract: a hand-edited record row
        # ends that shard at the last good record instead of crashing
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        resolve_transport(queue)._connect().execute(
            "UPDATE records SET record_json = 'garbage' WHERE seq = 2"
        )
        with pytest.raises(QueueIncomplete, match=r"2 run\(s\)"):
            collect_queue(queue, str(tmp_path))

    def test_missing_database_is_a_corrupt_queue(self, tmp_path):
        with pytest.raises(QueueCorrupt, match="does not exist"):
            work_queue(str(tmp_path / "no-such.sqlite"), worker_id="w0")


class TestKillAWorker:
    def _spawn_worker(self, queue, worker_id):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro.experiments", "work", location(queue),
                "--worker-id", worker_id,
                "--stale-after", "1.2", "--poll", "0.1", "--heartbeat", "0.25",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )

    def _live_leases(self, queue):
        rows = resolve_transport(queue)._connect().execute(
            "SELECT worker FROM tasks WHERE status = 'running'"
        ).fetchall()
        return [worker for (worker,) in rows]

    def test_sigkilled_worker_loses_nothing(self, tmp_path, kind):
        # 3 workers on one queue; one is SIGKILLed mid-task.  Its lease must
        # go stale and be reclaimed, a survivor re-executes the run, and the
        # collected BENCH rows are byte-identical to an uninterrupted
        # single-process run.  The diagnostic family's `delay` parameter
        # guarantees a wide mid-task window to land the kill in.
        spec = SweepSpec.from_grid(
            "kill-drill",
            "diagnostic_fault",
            {"n": [8], "delay": [0.4]},
            repeats=6,
            seed=SEED,
        )
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        workers = {wid: self._spawn_worker(queue, wid) for wid in ("w0", "w1", "w2")}
        victim = None
        deadline = time.time() + 20.0
        while time.time() < deadline:
            held = self._live_leases(queue)
            if held:
                victim = held[0]
                break
            time.sleep(0.005)
        assert victim is not None, "no worker ever claimed a task"
        workers[victim].send_signal(signal.SIGKILL)
        workers[victim].wait(timeout=30)
        survivor_output = []
        for wid, proc in workers.items():
            if wid == victim:
                continue
            out, _ = proc.communicate(timeout=90)
            survivor_output.append(out)
            assert proc.returncode == 0, out
        assert queue_status(queue)["tasks"] == 0
        assert queue_status(queue)["leases"] == 0, "the dead worker's lease must be reclaimed"
        path, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        assert rows_bytes(load_bench(path)) == rows_bytes(baseline)
        assert payload["aggregate"]["runs"] == 6
        assert payload["aggregate"]["errors"] == 0


class TestLedgerDivergence:
    def _completed_bench_with_journal(self, tmp_path, mutate):
        spec = tiny_spec("diverge")
        path, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path))
        # resurrect the journal as if the process crashed between write_bench
        # and remove_journal, then apply `mutate` to the payload rows to
        # fabricate the disagreement
        jpath = journal_path(str(tmp_path), "diverge")
        write_journal_header(jpath, spec)
        for row in payload["rows"]:
            entry = dict(row)
            entry["sweep"] = spec.name
            entry["wall_time_seconds"] = 0.0
            record = RunRecord.from_json_dict(entry)
            append_journal(jpath, record)
        mutated = json.loads(json.dumps(payload))
        mutate(mutated)
        write_bench(str(tmp_path), "diverge", mutated)
        return path

    def test_agreeing_journal_is_accepted(self, tmp_path):
        path = self._completed_bench_with_journal(tmp_path, lambda payload: None)
        assert cli_main(["report", "diverge", "--out", str(tmp_path)]) == 0

    def test_divergent_journal_fails_report_naming_pairs(self, tmp_path, capsys):
        def flip(payload):
            payload["rows"][1]["success"] = not payload["rows"][1]["success"]

        self._completed_bench_with_journal(tmp_path, flip)
        assert cli_main(["report", "diverge", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "disagree" in err
        assert "(1," in err  # the divergent (index, seed) pair is named

    def test_divergent_journal_fails_summarise(self, tmp_path, capsys):
        def flip(payload):
            payload["rows"][0]["query_report"]["quantum_queries"] = 10**6

        self._completed_bench_with_journal(tmp_path, flip)
        assert cli_main(["summarise", "diverge", "--out", str(tmp_path)]) == 1
        assert "disagree" in capsys.readouterr().err

    def test_journal_of_a_different_spec_is_divergence(self, tmp_path):
        spec = tiny_spec("diverge2")
        _, payload = run_sweep(spec, workers=1, out_dir=str(tmp_path))
        jpath = journal_path(str(tmp_path), "diverge2")
        write_journal_header(jpath, spec.with_overrides(seed=99))
        with pytest.raises(LedgerDivergence, match="different sweep configuration"):
            check_journal_agreement(payload, jpath, path="BENCH_diverge2.json")


class TestQueueCLI:
    def test_enqueue_work_collect_lifecycle(self, tmp_path, kind, capsys):
        out = str(tmp_path)
        queue, enqueue_argv = cli_queue_args(tmp_path, kind)
        assert cli_main(enqueue_argv) == 0
        assert "enqueued 6 task(s)" in capsys.readouterr().out
        assert cli_main(["work", location(queue), "--worker-id", "w1", "--max-tasks", "3"]) == 0
        assert cli_main(["work", location(queue), "--worker-id", "w2"]) == 0
        assert cli_main(["collect", location(queue), "--out", out]) == 0
        captured = capsys.readouterr().out
        assert "6 runs" in captured
        assert os.path.exists(os.path.join(out, "BENCH_queue-smoke.json"))

    def test_enqueue_queue_db_overrides_location(self, tmp_path):
        db = str(tmp_path / "nested" / "my-queue.db")
        assert cli_main(["enqueue", "queue-smoke", "--queue-db", db]) == 0
        assert os.path.exists(db)
        assert queue_status(db)["tasks"] == 6
        assert load_queue_spec(db).name == "queue-smoke"

    def test_collect_incomplete_queue_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path)
        queue = os.path.join(out, "QUEUE_queue-smoke.sqlite")
        assert cli_main(["enqueue", "queue-smoke", "--out", out]) == 0
        assert cli_main(["collect", queue, "--out", out]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_enqueue_unknown_workload_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["enqueue", "no-such-sweep", "--out", str(tmp_path)]) == 1
        assert "unknown workload" in capsys.readouterr().err

    def test_work_on_a_non_queue_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["work", str(tmp_path / "no-such.sqlite")]) == 1
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["work", "collect", "status"])
    def test_a_retired_directory_queue_exits_nonzero(self, tmp_path, command, capsys):
        legacy = tmp_path / "QUEUE_queue-smoke"
        (legacy / "tasks").mkdir(parents=True)
        assert cli_main([command, str(legacy)]) == 1
        assert "retired directory queue" in capsys.readouterr().err

    def test_enqueue_with_overrides_round_trips(self, tmp_path, kind):
        queue, enqueue_argv = cli_queue_args(tmp_path, kind)
        assert cli_main(enqueue_argv + ["--repeats", "1", "--seed", "5"]) == 0
        spec = load_queue_spec(queue)
        assert spec.repeats == 1 and spec.seed == 5
        assert queue_status(queue)["tasks"] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["enqueue", "queue-smoke", "--out", ".", "--transport", "sqlite"],
            ["enqueue", "queue-smoke", "--out", ".", "--queue", "q"],
            ["enqueue", "queue-smoke", "--out", ".", "--queue-url", "http://127.0.0.1:1"],
            ["run", "smoke", "--out", ".", "--profile", "d"],
            ["work", "QUEUE_queue-smoke.sqlite", "--profile", "d"],
        ],
        ids=["enqueue-transport", "enqueue-queue", "enqueue-queue-url", "run-profile", "work-profile"],
    )
    def test_retired_flags_are_rejected(self, tmp_path, argv, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli_main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
        assert not os.listdir(str(tmp_path))

    def test_enqueue_into_a_retired_directory_queue_exits_nonzero(self, tmp_path, capsys):
        legacy = tmp_path / "QUEUE_queue-smoke"
        (legacy / "tasks").mkdir(parents=True)
        assert cli_main(["enqueue", "queue-smoke", "--queue-db", str(legacy)]) == 1
        assert "retired directory queue" in capsys.readouterr().err
        assert os.listdir(str(legacy)) == ["tasks"]

    @pytest.mark.parametrize(
        "argv",
        [["enqueue", "queue-smoke", "--queue-db"], ["work"], ["collect"], ["status"]],
        ids=["enqueue", "work", "collect", "status"],
    )
    def test_a_retired_coordinator_url_exits_nonzero(self, tmp_path, argv, capsys, monkeypatch):
        # a URL is refused by name, never opened as a SQLite path relative
        # to the working directory
        monkeypatch.chdir(tmp_path)
        assert cli_main(argv + ["http://127.0.0.1:8765"]) == 1
        assert "retired HTTP coordinator" in capsys.readouterr().err
        assert os.listdir(str(tmp_path)) == []

    def test_the_retired_serve_command_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", queue_db_path(str(tmp_path), "queue-smoke")])
        assert excinfo.value.code != 0
        assert "invalid choice" in capsys.readouterr().err
        assert os.listdir(str(tmp_path)) == []

    def test_enqueue_writes_a_sqlite_queue_under_out_by_default(self, tmp_path):
        assert cli_main(["enqueue", "queue-smoke", "--out", str(tmp_path)]) == 0
        queue = queue_db_path(str(tmp_path), "queue-smoke")
        assert isinstance(resolve_transport(queue), SqliteTransport)
        assert queue_status(queue)["tasks"] == 6


class TestStatusObservability:
    """The PR 7 observability surface: transport status parity, lease
    details with heartbeat ages, the heartbeat clock-step regression, and
    the traced-drain byte-identity acceptance check."""

    def test_status_parity_across_all_task_states(self, tmp_path):
        # every queue leg must report identical counts at every lifecycle
        # stage: pending, quarantined, running, and done-with-shard
        spec = tiny_spec()
        histories = {}
        for kind in TRANSPORTS:
            root = tmp_path / kind
            root.mkdir()
            queue = make_queue(root, kind, spec)
            enqueue_sweep(spec, queue)
            transport = resolve_transport(queue)
            history = [transport.status()]                    # all pending
            plant_corrupt_task(queue)
            first = transport.claim_next("w0")
            assert isinstance(first, CorruptTask)
            history.append(transport.status())                # one quarantined
            claim = transport.claim_next("w0")
            assert isinstance(claim, Claim)
            history.append(transport.status())                # one running
            record = execute_run_safe(claim.run)
            transport.append_record("w0", record)
            transport.release(claim)
            history.append(transport.status())                # done + shard
            transport.close()
            histories[kind] = history
        for kind in TRANSPORTS:
            assert histories[kind] == histories["sqlite"]
        assert histories["sqlite"] == [
            {"tasks": 4, "leases": 0, "shards": 0, "corrupt": 0},
            {"tasks": 3, "leases": 0, "shards": 0, "corrupt": 1},
            {"tasks": 2, "leases": 1, "shards": 0, "corrupt": 1},
            {"tasks": 2, "leases": 0, "shards": 1, "corrupt": 1},
        ]

    def test_lease_details_name_holder_and_age(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        assert lease_report(queue) == []
        claim = claim_next(queue, "w-obs")
        (entry,) = lease_report(queue)
        assert entry["task_id"] == claim.task_id
        assert entry["worker"] == "w-obs"
        assert 0.0 <= entry["age_seconds"] < 60.0
        force_stale(queue, age=900.0)
        (aged,) = lease_report(queue)
        assert aged["age_seconds"] > 800.0
        # purely observational: reading details must not touch liveness
        assert reclaim_stale(queue, stale_after=600.0) == 1

    def test_sqlite_heartbeat_survives_a_backwards_clock_step(self, tmp_path, monkeypatch):
        # regression: an NTP step back between beats used to rewind
        # heartbeat_at into the stale window, so a *live* lease was
        # reclaimed out from under its holder
        from repro.experiments.transports import sqlite as sqlite_mod

        spec = tiny_spec()
        queue = make_queue(tmp_path, "sqlite", spec)
        enqueue_sweep(spec, queue)
        transport = resolve_transport(queue)
        clock = {"t": 1000.0}
        monkeypatch.setattr(sqlite_mod, "_now", lambda: clock["t"])
        claim = transport.claim_next("w0")
        assert isinstance(claim, Claim)
        assert transport.heartbeat(claim)
        clock["t"] = 400.0                      # wall clock steps back 10 min
        assert transport.heartbeat(claim)       # stamp must not rewind
        clock["t"] = 1005.0
        (entry,) = transport.lease_details()
        assert entry["age_seconds"] == pytest.approx(5.0)
        assert transport.reclaim_stale(300.0) == 0  # the live lease survives
        clock["t"] = 1400.0                     # now genuinely silent
        assert transport.reclaim_stale(300.0) == 1

    def test_queue_progress_reports_per_worker_records(self, tmp_path, kind):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w1", max_tasks=3)
        work_queue(queue, worker_id="w2")
        progress = queue_progress(queue)
        assert progress["name"] == spec.name
        assert progress["expected"] == 4 and progress["covered"] == 4
        assert progress["errors"] == 0
        by_worker = {entry["worker"]: entry["records"] for entry in progress["workers"]}
        assert by_worker == {"w1": 3, "w2": 1}

    def test_traced_two_worker_drain_matches_untraced_run(self, tmp_path, kind):
        # the PR acceptance check: tracing through work_queue leaves the
        # collected BENCH byte-identical, and the trace covers the solver,
        # sampler, and engine layers plus the worker loop itself
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        trace = str(tmp_path / "trace.jsonl")
        executed = 0
        while executed < 4:
            for worker in ("w1", "w2"):
                executed += work_queue(
                    queue, worker_id=worker, max_tasks=1, trace=trace
                )["executed"]
        _, payload = collect_queue(queue, str(tmp_path))
        _, baseline = run_sweep(spec, workers=1, out_dir=None)
        assert rows_bytes(payload) == rows_bytes(baseline)
        summary = summarise_trace(load_trace_events([trace]))
        assert {"w1", "w2"} <= set(summary["workers"])
        names = set(summary["spans"])
        assert {"worker", "task", "run", "sampler.batch", "engine.build"} <= names
        assert any(name.startswith("solver.strategy.") for name in names)
        assert summary["spans"]["worker"]["counters"]["executed"] == 4


class TestStatusCLI:
    def test_status_shows_progress_workers_and_leases(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w1", max_tasks=2)
        claim = claim_next(queue, "w2")  # leave one live lease outstanding
        assert isinstance(claim, Claim)
        assert cli_main(["status", location(queue)]) == 0
        out = capsys.readouterr().out
        assert "2/4 run(s) journaled" in out
        assert "w1: 2 record(s)" in out
        assert "held by w2" in out
        assert "STALE" not in out

    def test_status_flags_stale_leases(self, tmp_path, kind, capsys):
        spec = tiny_spec()
        queue = make_queue(tmp_path, kind, spec)
        enqueue_sweep(spec, queue)
        claim_next(queue, "w-dead")
        force_stale(queue, age=900.0)
        assert cli_main(["status", location(queue)]) == 0
        out = capsys.readouterr().out
        assert "held by w-dead" in out
        assert "STALE (reclaimable)" in out

    def test_status_on_a_non_queue_exits_nonzero(self, tmp_path, capsys):
        assert cli_main(["status", str(tmp_path / "nope")]) == 1
        assert capsys.readouterr().err

    def test_status_cli_rejects_nonpositive_stale_after_at_parse_time(self, tmp_path, capsys):
        # the staleness annotation uses the same lease-timing validation as
        # `work`: zero/negative thresholds are argparse errors, not silent
        # every-lease-is-stale reports
        for value in ("0", "-3"):
            with pytest.raises(SystemExit):
                cli_main(["status", str(tmp_path), "--stale-after", value])
            assert "positive" in capsys.readouterr().err

    def test_traced_work_cli_matches_untraced_collect(self, tmp_path, kind, capsys):
        # end-to-end through the CLI: --trace on work never perturbs collect
        out = str(tmp_path)
        queue, enqueue_argv = cli_queue_args(tmp_path, kind)
        trace = os.path.join(out, "trace.jsonl")
        assert cli_main(enqueue_argv) == 0
        assert cli_main(["work", location(queue), "--worker-id", "w1", "--trace", trace]) == 0
        assert cli_main(["collect", location(queue), "--out", out]) == 0
        capsys.readouterr()
        from repro.experiments.workloads import get_workload

        _, baseline = run_sweep(get_workload("queue-smoke"), out_dir=None)
        collected = load_bench(os.path.join(out, "BENCH_queue-smoke.json"))
        assert rows_bytes(collected) == rows_bytes(baseline)
        assert cli_main(["trace", "summarise", trace]) == 0
        assert "worker" in capsys.readouterr().out


class TestMergeStatusRanking:
    """The cross-shard merge ranks ``ok > no_convergence > error`` — a
    reclaimed-after-append duplicate can never demote a success to a
    diagnostic row, whatever order the shards enumerate in."""

    _RANK = {"error": 0, "no_convergence": 1, "ok": 2}

    @staticmethod
    def _record(status):
        return RunRecord(
            sweep="merge", index=0, family="dihedral_rotation", params={"n": 8},
            repeat=0, seed=1, strategy="auto", success=status == "ok",
            generators=[], query_report={}, status=status,
            error="boom" if status == "error" else None,
        )

    @pytest.mark.parametrize(
        "first,second",
        list(itertools.permutations(["ok", "no_convergence", "error"], 2)),
    )
    def test_higher_rank_wins_in_either_arrival_order(self, first, second):
        merged = merge_record_streams([
            {(0, 1): self._record(first)},
            {(0, 1): self._record(second)},
        ])
        winner = max(first, second, key=self._RANK.get)
        assert merged[(0, 1)].status == winner

    def test_equal_rank_keeps_the_first_shard_record(self):
        for status in ("ok", "no_convergence", "error"):
            first, duplicate = self._record(status), self._record(status)
            merged = merge_record_streams([{(0, 1): first}, {(0, 1): duplicate}])
            assert merged[(0, 1)] is first

    def test_unknown_statuses_rank_with_error_at_the_bottom(self):
        import dataclasses

        exotic = dataclasses.replace(self._record("error"), status="future-status")
        for other in ("ok", "no_convergence"):
            merged = merge_record_streams([{(0, 1): exotic}, {(0, 1): self._record(other)}])
            assert merged[(0, 1)].status == other
        # against error it is a rank tie, and ties keep the first arrival
        merged = merge_record_streams([{(0, 1): exotic}, {(0, 1): self._record("error")}])
        assert merged[(0, 1)] is exotic


class TestSqliteErrorTranslation:
    """heartbeat/release translate backend failures into QueueCorrupt like
    every other operation — a worker's beat loop sees the transport's
    exception vocabulary, never a raw sqlite3.Error."""

    class _FailingConnection:
        def execute(self, *args, **kwargs):
            raise sqlite3.OperationalError("disk I/O error")

        def close(self):
            pass

    def _claimed_transport(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        transport = SqliteTransport(queue)
        claim = transport.claim_next("w0")
        assert isinstance(claim, Claim)
        transport.close()
        transport._con = self._FailingConnection()
        return transport, claim

    def test_heartbeat_translates_sqlite_errors(self, tmp_path):
        transport, claim = self._claimed_transport(tmp_path)
        with pytest.raises(QueueCorrupt, match="refused the heartbeat"):
            transport.heartbeat(claim)

    def test_release_translates_sqlite_errors(self, tmp_path):
        transport, claim = self._claimed_transport(tmp_path)
        with pytest.raises(QueueCorrupt, match="refused the release"):
            transport.release(claim)

    def test_a_refused_begin_translates_without_a_rollback(self, tmp_path):
        # BEGIN IMMEDIATE itself can fail (the write lock is held past the
        # busy timeout); no transaction began, so there is nothing to roll
        # back and the lock error must surface as QueueCorrupt
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        transport = SqliteTransport(queue)
        transport._connect().execute("PRAGMA busy_timeout=0")
        blocker = sqlite3.connect(queue, isolation_level=None)
        blocker.execute("BEGIN IMMEDIATE")
        try:
            with pytest.raises(QueueCorrupt, match="refused the claim: database is locked"):
                transport.claim_next("w0")
        finally:
            blocker.execute("ROLLBACK")
            blocker.close()
        assert isinstance(transport.claim_next("w0"), Claim)
        transport.close()

    def test_a_foreign_schema_is_refused_naming_the_schema_error(self, tmp_path):
        # a valid SQLite file whose `tasks` table has another shape: the
        # schema error surfaces as QueueCorrupt, never as a raw sqlite3
        # error, and the schema is created inside the transaction, so no
        # table is added to the file
        path = str(tmp_path / "foreign.sqlite")
        con = sqlite3.connect(path)
        con.execute("CREATE TABLE tasks (idx INTEGER PRIMARY KEY, payload TEXT)")
        con.commit()
        con.close()
        with pytest.raises(QueueCorrupt, match="could not be initialised: no such column: status"):
            enqueue_sweep(tiny_spec(), path)
        con = sqlite3.connect(path)
        try:
            assert con.execute("SELECT name FROM sqlite_master").fetchall() == [("tasks",)]
        finally:
            con.close()


class TestSqliteTransportContract:
    """The lease, shard and header contracts documented on SqliteTransport,
    checked on the transport itself."""

    @pytest.fixture
    def transport(self, tmp_path):
        spec = tiny_spec()
        transport = SqliteTransport(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, transport)
        yield transport
        transport.close()

    def test_describe_names_the_database(self, tmp_path):
        path = queue_db_path(str(tmp_path), "q")
        assert SqliteTransport(path).describe() == f"sqlite:{path}"
        assert resolve_transport(path).describe() == f"sqlite:{path}"

    def test_a_reclaimed_lease_stops_heartbeating(self, transport):
        claim = transport.claim_next("w0")
        assert transport.heartbeat(claim)
        force_stale(transport)
        assert transport.reclaim_stale(10.0) == 1
        assert not transport.heartbeat(claim)

    def test_a_late_release_leaves_the_new_holders_lease_alone(self, transport):
        # the old holder finishes after its lease was reclaimed and re-issued:
        # its release must not complete the new holder's task
        old = transport.claim_next("w0")
        force_stale(transport)
        assert transport.reclaim_stale(10.0) == 1
        new = transport.claim_next("w1")
        assert new.run == old.run
        transport.release(old)
        (entry,) = transport.lease_details()
        assert (entry["task_id"], entry["worker"]) == (new.task_id, "w1")
        assert transport.heartbeat(new)
        transport.release(new)
        assert transport.status()["leases"] == 0

    def test_records_within_a_shard_are_last_wins_in_append_order(self, transport):
        import dataclasses

        claim = transport.claim_next("w0")
        record = execute_run_safe(claim.run)
        assert record.status == "ok"
        transport.append_record("w0", dataclasses.replace(record, status="error", error="boom"))
        transport.append_record("w0", record)
        transport.append_record("w1", dataclasses.replace(record, status="error", error="boom"))
        streams = dict(transport.record_streams())
        assert sorted(streams) == ["w0", "w1"]
        key = (record.index, record.seed)
        assert streams["w0"] == {key: record}
        assert streams["w1"][key].status == "error"

    def test_clear_corrupt_counts_and_drops_the_quarantine(self, transport):
        plant_corrupt_task(transport)
        quarantined = transport.claim_next("w0")
        assert isinstance(quarantined, CorruptTask)
        assert transport.corrupt_tasks() == [quarantined]
        assert transport.clear_corrupt() == 1
        assert transport.corrupt_tasks() == []
        assert transport.clear_corrupt() == 0
        assert transport.status() == {"tasks": 3, "leases": 0, "shards": 0, "corrupt": 0}

    def test_exists_only_once_a_spec_is_pinned(self, tmp_path):
        assert not SqliteTransport(str(tmp_path / "missing.sqlite")).exists()
        text = tmp_path / "text.sqlite"
        text.write_text("just some text")
        assert not SqliteTransport(str(text)).exists()
        empty = str(tmp_path / "empty.sqlite")
        sqlite3.connect(empty).close()
        assert not SqliteTransport(empty).exists()
        transport = SqliteTransport(empty)
        transport.initialise(tiny_spec())
        assert transport.exists()
        transport.close()

    def test_initialise_keeps_the_first_pinned_spec(self, transport):
        spec = transport.load_spec()
        transport.initialise(spec.with_overrides(seed=7))
        assert transport.load_spec() == spec

    def test_a_non_sqlite_failure_rolls_back_and_frees_the_lock(self, transport, monkeypatch):
        # an exception that is not a sqlite3.Error, raised mid-claim, must
        # still roll the claim back: the flip to running is undone and the
        # write lock is free for the next writer, on any connection
        from repro.experiments.transports import sqlite as sqlite_mod

        def broken_clock():
            raise RuntimeError("clock failed")

        monkeypatch.setattr(sqlite_mod, "_now", broken_clock)
        with pytest.raises(RuntimeError, match="clock failed"):
            transport.claim_next("w0")
        assert not transport._connect().in_transaction
        other = sqlite3.connect(transport.location, isolation_level=None)
        try:
            other.execute("PRAGMA busy_timeout=0")
            other.execute("BEGIN IMMEDIATE")
            other.execute("ROLLBACK")
        finally:
            other.close()
        monkeypatch.undo()
        assert transport.status() == {"tasks": 4, "leases": 0, "shards": 0, "corrupt": 0}
        assert transport.claim_next("w0").task_id == "task #0"


class TestTransportClose:
    """SqliteTransport.close() plumbing: helpers close what they open, so a
    drained SQLite queue leaves no WAL sidecar files behind, and transports
    owned by the caller are never closed out from under them."""

    @staticmethod
    def _sidecars(tmp_path):
        return sorted(
            name for name in os.listdir(str(tmp_path))
            if name.endswith(("-wal", "-shm"))
        )

    def test_drained_cycle_leaves_no_wal_sidecars(self, tmp_path):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        work_queue(queue, worker_id="w0")
        collect_queue(queue, str(tmp_path))
        queue_status(queue)
        lease_report(queue)
        queue_progress(queue)
        assert self._sidecars(tmp_path) == []
        assert os.path.exists(queue)

    def test_status_cli_leaves_no_wal_sidecars(self, tmp_path, capsys):
        spec = tiny_spec()
        queue = queue_db_path(str(tmp_path), spec.name)
        enqueue_sweep(spec, queue)
        assert cli_main(["status", queue]) == 0
        capsys.readouterr()
        assert self._sidecars(tmp_path) == []

    def test_caller_owned_transports_stay_open(self, tmp_path):
        spec = tiny_spec()
        transport = SqliteTransport(queue_db_path(str(tmp_path), spec.name))
        enqueue_sweep(spec, transport)
        assert transport._con is not None, "helpers must not close a caller's transport"
        assert queue_status(transport)["tasks"] == 4
        assert transport._con is not None
        transport.close()
        assert transport._con is None
        transport.close()  # idempotent
