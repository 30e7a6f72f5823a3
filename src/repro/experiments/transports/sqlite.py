"""The SQLite queue transport behind the distributed runner.

One database file (``QUEUE_<name>.sqlite``) holds the whole queue: a
``meta`` table pins the sweep spec, a ``tasks`` status table
(pending/running/done/failed) holds the claimable work and its leases,
and a ``records`` table keyed by worker id holds the per-worker shards.
Each record row stores the exact sorted-key JSON line a run journal
would hold, so the byte-identity contract (``collect`` == single-process
``run``) rests on the same serialized form as ``run --resume``.

Claiming is the ``BEGIN IMMEDIATE`` transactional idiom: the claim
transaction takes the database write lock up front, selects the
lowest-indexed pending task, flips it to ``running`` and commits — under
contention exactly one worker wins each task, the others are serialized
behind the lock (with ``busy_timeout`` retries, never an error).
Heartbeats are row-timestamp updates on the running row; a dead worker's
row stops updating and ``reclaim_stale`` flips it back to ``pending``
inside the same kind of transaction.

A task whose stored payload will not parse back into a ``RunSpec`` is
*quarantined* at claim time: flipped to ``failed`` with the parse error
in its ``note`` column, never leased, and surfaced as a
:class:`CorruptTask` so the worker reports it once and keeps draining.  A
worker must never die holding the lease of an unknowable task, which
would put the task into an infinite stale-reclaim/crash ping-pong between
workers.

The database runs in WAL mode: readers never block the single writer, a
SIGKILLed worker's half-finished transaction rolls back on the next open,
and the file is safe for concurrent processes *on one host*.  WAL
explicitly does not work across network filesystems, so every worker of
a sweep runs on the host that holds the database.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.results import RunRecord, _safe_name
from repro.experiments.specs import RunSpec, SweepSpec

__all__ = [
    "Claim",
    "CorruptTask",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "QUEUE_VERSION",
    "SqliteTransport",
    "queue_db_path",
]

#: Queue layout version; bumped if the on-disk layout ever changes so a
#: worker from an older build refuses the queue rather than misreading it.
QUEUE_VERSION = 1


class QueueIncomplete(RuntimeError):
    """``collect`` was asked to merge a queue that still has unfinished work."""

    def __init__(self, queue: str, missing: List[Tuple[int, int]], tasks: int, leases: int):
        self.queue = queue
        self.missing = missing
        shown = ", ".join(str(key) for key in missing[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        super().__init__(
            f"queue {queue!r} is incomplete: {len(missing)} run(s) have no journaled "
            f"record ((index, seed) pairs {shown}{suffix}); {tasks} unclaimed task(s) "
            f"and {leases} outstanding lease(s) remain — run more workers (or wait "
            f"for stale leases to be reclaimed) before collecting"
        )


class QueueCorrupt(RuntimeError):
    """A queue artifact (header, task payload or quarantine) is unusable.

    A task payload that will not parse means the stored task was edited
    or damaged; either way the unit of work is unknowable.  The transport quarantines
    it at claim time and ``collect`` raises this error naming the
    quarantined tasks — re-enqueue the sweep to reissue them.
    """


class QueueBusy(RuntimeError):
    """``collect`` found live leases outstanding on an otherwise covered queue.

    Reclaim-after-append duplicates can fully cover the expansion while a
    worker holding a re-claimed lease is still executing (and will append
    to its shard when it finishes).  Collecting mid-flight reads a
    moving ledger, so ``collect`` refuses unless forced.
    """

    def __init__(self, queue: str, leases: int):
        self.queue = queue
        self.leases = leases
        super().__init__(
            f"queue {queue!r} still has {leases} live lease(s) outstanding; the "
            f"expansion is covered but a worker is still executing — wait for it "
            f"to drain (or pass --force to collect the covered rows anyway)"
        )


@dataclass(frozen=True)
class Claim:
    """A successfully claimed task: the run to execute plus the lease handle.

    ``handle`` is the ``(task row, worker id)`` pair the lease is keyed by;
    callers only pass it back to :meth:`SqliteTransport.heartbeat` /
    :meth:`SqliteTransport.release`.
    """

    task_id: str
    run: RunSpec
    handle: Tuple[int, str]


@dataclass(frozen=True)
class CorruptTask:
    """A task quarantined at claim time because its payload would not parse."""

    task_id: str
    reason: str


def _now() -> float:
    """Wall-clock source for lease timing; an indirection so tests can mock
    a clock step without patching the global ``time`` module."""
    return time.time()


#: The queue layout, one statement each, so that ``initialise`` runs it
#: inside its transaction.
_SCHEMA = (
    """CREATE TABLE IF NOT EXISTS meta (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )""",
    """CREATE TABLE IF NOT EXISTS tasks (
        idx          INTEGER PRIMARY KEY,
        -- TEXT: per-run seeds are unsigned 64-bit and can overflow SQLite's
        -- signed INTEGER; the JSON payload is the authoritative value anyway.
        seed         TEXT NOT NULL,
        run_json     TEXT NOT NULL,
        status       TEXT NOT NULL DEFAULT 'pending'
                     CHECK (status IN ('pending', 'running', 'done', 'failed')),
        worker       TEXT,
        heartbeat_at REAL,
        note         TEXT
    )""",
    "CREATE INDEX IF NOT EXISTS tasks_by_status ON tasks(status, idx)",
    """CREATE TABLE IF NOT EXISTS records (
        shard       TEXT NOT NULL,
        seq         INTEGER NOT NULL,
        idx         INTEGER NOT NULL,
        seed        TEXT NOT NULL,
        status      TEXT NOT NULL,
        record_json TEXT NOT NULL,
        PRIMARY KEY (shard, seq)
    )""",
)


def queue_db_path(out_dir: str, name: str) -> str:
    """The queue database of a sweep: ``<out_dir>/QUEUE_<name>.sqlite``."""
    return os.path.join(out_dir, f"QUEUE_{_safe_name(name)}.sqlite")


class SqliteTransport:
    """The coordination backend of the distributed queue: WAL-mode SQLite
    with ``BEGIN IMMEDIATE`` claim transactions.

    :meth:`claim_next` is exactly-once under contention (two workers can
    never both claim one task), a worker never holds the lease of an
    unparseable task (it is quarantined instead), and records are stored
    in append order per shard so the last record for an ``(index, seed)``
    key within a shard wins — the same semantics
    :func:`~repro.experiments.results.load_journal` gives a run journal.
    Every backend failure surfaces as :class:`QueueCorrupt`, never as a
    raw ``sqlite3.Error``.
    """

    def __init__(self, path: str):
        #: The queue database path, for log lines and error messages.
        self.location = path
        self._con: Optional[sqlite3.Connection] = None
        # One connection shared between the worker loop and its heartbeat
        # thread; the lock serialises statements (sqlite3 connections are
        # not thread-safe under concurrent use even with
        # check_same_thread=False).
        self._lock = threading.RLock()

    def describe(self) -> str:
        """``sqlite:<path>``, for log lines and trace spans."""
        return f"sqlite:{self.location}"

    # -- connection ---------------------------------------------------------

    def _connect(self, create: bool = False) -> sqlite3.Connection:
        if self._con is not None:
            return self._con
        if not create and not os.path.exists(self.location):
            raise QueueCorrupt(
                f"{self.location!r} does not exist; not a sweep queue database"
            )
        if create:
            os.makedirs(os.path.dirname(self.location) or ".", exist_ok=True)
        try:
            con = sqlite3.connect(
                self.location,
                timeout=30.0,
                check_same_thread=False,
                isolation_level=None,  # autocommit; transactions are explicit
            )
            con.execute("PRAGMA journal_mode=WAL")
            con.execute("PRAGMA synchronous=NORMAL")
            con.execute("PRAGMA busy_timeout=30000")
        except sqlite3.Error as error:
            raise QueueCorrupt(
                f"queue database {self.location!r} is unreadable: {error}"
            ) from None
        self._con = con
        return con

    def close(self) -> None:
        """Close the connection, letting SQLite remove the WAL ``-wal``/``-shm``
        sidecar files.  Idempotent; the transport reconnects lazily if used
        again."""
        with self._lock:
            if self._con is not None:
                self._con.close()
                self._con = None

    def _query(self, sql: str, params: Tuple = ()) -> List[Tuple]:
        with self._lock:
            try:
                return self._connect().execute(sql, params).fetchall()
            except sqlite3.Error as error:
                raise QueueCorrupt(
                    f"queue database {self.location!r} is unusable: {error}"
                ) from None

    @contextmanager
    def _transaction(self, refusal: str, create: bool = False) -> Iterator[sqlite3.Connection]:
        """A ``BEGIN IMMEDIATE`` ... ``COMMIT`` block under the connection lock.

        Any failure rolls back whatever part of the transaction began; a
        ``sqlite3.Error`` surfaces as :class:`QueueCorrupt` reading
        ``queue database <path> <refusal>: <error>``.
        """
        with self._lock:
            con = self._connect(create=create)
            try:
                con.execute("BEGIN IMMEDIATE")
                yield con
                con.execute("COMMIT")
            except BaseException as error:
                if con.in_transaction:
                    con.execute("ROLLBACK")
                if isinstance(error, sqlite3.Error):
                    raise QueueCorrupt(
                        f"queue database {self.location!r} {refusal}: {error}"
                    ) from None
                raise

    # -- queue lifecycle ----------------------------------------------------

    def exists(self) -> bool:
        """True when the queue has been initialised (a spec is pinned)."""
        if not os.path.exists(self.location):
            return False
        try:
            return bool(self._query("SELECT 1 FROM meta WHERE key = 'sweep'"))
        except QueueCorrupt:
            return False

    def initialise(self, spec: SweepSpec) -> None:
        """Create the queue layout and pin ``spec`` as its header.

        The schema is created inside the transaction, so a database whose
        existing tables do not fit it is refused untouched.
        """
        with self._transaction("could not be initialised", create=True) as con:
            for statement in _SCHEMA:
                con.execute(statement)
            have = con.execute("SELECT 1 FROM meta WHERE key = 'sweep'").fetchone()
            if have is None:
                con.execute(
                    "INSERT INTO meta (key, value) VALUES ('queue_version', ?)",
                    (str(QUEUE_VERSION),),
                )
                con.execute(
                    "INSERT INTO meta (key, value) VALUES ('sweep', ?)",
                    (json.dumps(spec.to_json_dict(), sort_keys=True),),
                )

    def load_spec(self) -> SweepSpec:
        """The pinned sweep spec (validated header); :class:`QueueCorrupt` if unusable."""
        rows = dict(self._query("SELECT key, value FROM meta WHERE key IN ('queue_version', 'sweep')"))
        if "sweep" not in rows:
            raise QueueCorrupt(
                f"{self.location!r} has no pinned sweep spec; not a sweep queue database"
            )
        if rows.get("queue_version") != str(QUEUE_VERSION):
            raise QueueCorrupt(
                f"queue {self.location!r} has layout version {rows.get('queue_version')!r}, "
                f"expected {QUEUE_VERSION!r}; re-enqueue with this build"
            )
        try:
            return SweepSpec.from_json_dict(json.loads(rows["sweep"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            raise QueueCorrupt(
                f"queue {self.location!r} does not pin a sweep spec: {error}"
            ) from None

    # -- tasks and leases ---------------------------------------------------

    def enqueue(self, runs: Sequence[RunSpec]) -> None:
        """Materialise ``runs`` as claimable (pending) tasks."""
        with self._transaction("refused the enqueue") as con:
            for run in runs:
                # Re-enqueue resets a done/failed row back to a fresh
                # pending task with a clean payload.
                con.execute(
                    "INSERT OR REPLACE INTO tasks (idx, seed, run_json, status) "
                    "VALUES (?, ?, ?, 'pending')",
                    (run.index, str(run.seed), json.dumps(run.to_json_dict(), sort_keys=True)),
                )

    def claim_next(self, worker_id: str) -> Optional[Union[Claim, CorruptTask]]:
        """Atomically claim the lowest-indexed pending task, if any.

        Returns a :class:`Claim` on success, a :class:`CorruptTask` when
        the claimed payload would not parse (the task is quarantined, not
        leased — the caller reports it and keeps going), or ``None`` when
        nothing is claimable.
        """
        # BEGIN IMMEDIATE takes the write lock before the SELECT, so the
        # select-lowest-pending + flip-to-running pair is one atomic claim:
        # under contention exactly one worker wins each task, the rest
        # serialize behind the lock.
        with self._transaction("refused the claim") as con:
            row = con.execute(
                "SELECT idx, run_json FROM tasks WHERE status = 'pending' "
                "ORDER BY idx LIMIT 1"
            ).fetchone()
            if row is None:
                return None
            idx, run_json = row
            task_id = f"task #{idx}"
            try:
                run = RunSpec.from_json_dict(json.loads(run_json))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
                # Quarantine inside the claim transaction: the task goes to
                # 'failed' without ever being leased, so no worker can die
                # holding it and no reclaim ping-pong can start.
                reason = str(error)
                con.execute(
                    "UPDATE tasks SET status = 'failed', worker = ?, "
                    "heartbeat_at = NULL, note = ? WHERE idx = ?",
                    (worker_id, reason, idx),
                )
                return CorruptTask(task_id=task_id, reason=reason)
            con.execute(
                "UPDATE tasks SET status = 'running', worker = ?, "
                "heartbeat_at = ?, note = NULL WHERE idx = ?",
                (worker_id, _now(), idx),
            )
            return Claim(task_id=task_id, run=run, handle=(idx, worker_id))

    def heartbeat(self, claim: Claim) -> bool:
        """Refresh the lease's liveness stamp; False when the lease is gone."""
        idx, worker = claim.handle
        with self._lock:
            # MAX(...) clamps the stamp monotonically non-decreasing per row:
            # if the wall clock steps backwards between beats, the row keeps
            # its newest stamp instead of rewinding into reclaim_stale's
            # stale window — a live lease must never look abandoned because
            # of NTP.  (A forward step is already safe: the lease just looks
            # fresher.)
            try:
                cursor = self._connect().execute(
                    "UPDATE tasks SET heartbeat_at = MAX(COALESCE(heartbeat_at, 0), ?) "
                    "WHERE idx = ? AND worker = ? AND status = 'running'",
                    (_now(), idx, worker),
                )
            except sqlite3.Error as error:
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the heartbeat: {error}"
                ) from None
            return cursor.rowcount == 1

    def release(self, claim: Claim) -> None:
        """Complete the task: drop the lease (idempotent if already reclaimed)."""
        idx, worker = claim.handle
        with self._lock:
            # rowcount 0 means the lease was reclaimed from under us while we
            # executed; harmless — collect dedups the re-execution.
            try:
                self._connect().execute(
                    "UPDATE tasks SET status = 'done', heartbeat_at = NULL "
                    "WHERE idx = ? AND worker = ? AND status = 'running'",
                    (idx, worker),
                )
            except sqlite3.Error as error:
                raise QueueCorrupt(
                    f"queue database {self.location!r} refused the release: {error}"
                ) from None

    def reclaim_stale(self, stale_after: float) -> int:
        """Return leases idle for more than ``stale_after`` seconds to the
        pending set; returns the number reclaimed."""
        with self._transaction("refused the reclaim") as con:
            return con.execute(
                "UPDATE tasks SET status = 'pending', worker = NULL, "
                "heartbeat_at = NULL WHERE status = 'running' AND heartbeat_at < ?",
                (_now() - stale_after,),
            ).rowcount

    # -- shards -------------------------------------------------------------

    def append_record(self, worker_id: str, record: RunRecord) -> None:
        """Append one completed record to the worker's own shard.

        Record inserts are transactional — a SIGKILL mid-insert rolls back
        on the next open — so a shard never has a torn tail, and the sweep
        spec is pinned once in ``meta`` for the whole database.
        """
        # The stored line is byte-identical to a run-journal line, so
        # queue records and journals parse through the same record reader.
        line = json.dumps(record.to_json_dict(), sort_keys=True)
        with self._transaction("refused the record append") as con:
            (seq,) = con.execute(
                "SELECT COALESCE(MAX(seq), -1) + 1 FROM records WHERE shard = ?",
                (worker_id,),
            ).fetchone()
            con.execute(
                "INSERT INTO records (shard, seq, idx, seed, status, record_json) "
                "VALUES (?, ?, ?, ?, ?, ?)",
                (worker_id, seq, record.index, str(record.seed), record.status, line),
            )

    def record_streams(self) -> List[Tuple[str, Mapping[Tuple[int, int], RunRecord]]]:
        """Every shard as ``(shard_id, records-by-(index, seed))``, sorted by
        shard id and deduplicated last-wins in append order."""
        rows = self._query(
            "SELECT shard, record_json FROM records ORDER BY shard, seq"
        )
        streams: Dict[str, Dict[Tuple[int, int], RunRecord]] = {}
        dead: set = set()
        for shard, line in rows:
            if shard in dead:
                continue
            records = streams.setdefault(shard, {})
            try:
                record = RunRecord.from_json_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # Mirror the journal-reader contract: a hand-edited or
                # unparseable entry stops that shard's stream at the last
                # good record instead of crashing the merge or guessing.
                dead.add(shard)
                continue
            records[(record.index, record.seed)] = record
        return sorted(streams.items())

    # -- status -------------------------------------------------------------

    def status(self) -> Dict[str, int]:
        """``{"tasks": pending, "leases": running, "shards": n, "corrupt": quarantined}``."""
        counts = dict(self._query("SELECT status, COUNT(*) FROM tasks GROUP BY status"))
        (shards,) = self._query("SELECT COUNT(DISTINCT shard) FROM records")[0]
        return {
            "tasks": int(counts.get("pending", 0)),
            "leases": int(counts.get("running", 0)),
            "shards": int(shards),
            "corrupt": int(counts.get("failed", 0)),
        }

    def lease_details(self) -> List[Dict[str, object]]:
        """One entry per live lease, sorted by task id:
        ``{"task_id": str, "worker": str, "age_seconds": float}`` where
        ``age_seconds`` is the time since the last heartbeat (>= 0).  A
        purely observational read — it never touches lease liveness."""
        now = _now()
        return [
            {
                "task_id": f"task #{idx}",
                "worker": str(worker or "?"),
                "age_seconds": max(0.0, now - float(heartbeat_at or 0.0)),
            }
            for idx, worker, heartbeat_at in self._query(
                "SELECT idx, worker, heartbeat_at FROM tasks "
                "WHERE status = 'running' ORDER BY idx"
            )
        ]

    def corrupt_tasks(self) -> List[CorruptTask]:
        """The quarantined tasks, oldest first."""
        return [
            CorruptTask(task_id=f"task #{idx}", reason=str(note or "unparseable task payload"))
            for idx, note in self._query(
                "SELECT idx, note FROM tasks WHERE status = 'failed' ORDER BY idx"
            )
        ]

    def clear_corrupt(self) -> int:
        """Drop the quarantine (a re-enqueue reissues the runs); returns the
        number cleared."""
        with self._lock:
            cursor = self._connect().execute("DELETE FROM tasks WHERE status = 'failed'")
            return cursor.rowcount
