"""The HTTP queue coordinator: workers need a URL, not a mount.

The SQLite transport requires every worker to share a filesystem with
the queue database.  This module removes that constraint with two
halves speaking one tiny JSON-over-HTTP protocol:

* the **server** (``python -m repro.experiments serve QUEUE.sqlite``) — a
  stdlib :class:`~http.server.ThreadingHTTPServer` wrapping a local
  :class:`~repro.experiments.transports.sqlite.SqliteTransport`.  Every
  :class:`~repro.experiments.transports.base.Transport` operation is one
  ``POST /api/<operation>`` endpoint taking and returning JSON; the
  SQLite transport's own lock serialises concurrent handler threads, so
  claims stay exactly-once under contention exactly as they are locally.
* the **client** (:class:`HttpTransport`) — a full ``Transport``
  implementation over a persistent :mod:`http.client` connection, so
  ``work http://coordinator:8765`` and ``collect http://coordinator:8765``
  behave byte-for-byte like a worker on the coordinator's own disk.

The wire protocol is pinned by :data:`HTTP_PROTOCOL_VERSION`: the client
performs a ``handshake`` exchange before its first real operation and
refuses a coordinator speaking a different protocol (or serving a
different :data:`~repro.experiments.transports.base.QUEUE_VERSION`
layout); the server independently rejects requests whose
``X-Queue-Protocol`` header disagrees, so a mixed-build fleet fails
loudly at the first request instead of corrupting the queue.

**Restart resilience**: every client call retries connection-level
failures (refused, reset, dropped mid-response) with exponential backoff
before giving up, so restarting the coordinator does not kill live
workers mid-lease — they stall for the gap and carry on.  The retry is
safe for every operation because the lease protocol already tolerates
replays: a ``claim_next`` whose response was lost leaves a dangling lease
that stale-reclamation returns to the pending set, a replayed
``append_record`` is deduplicated by ``(index, seed)`` at collect time,
and ``release``/``heartbeat`` are idempotent.

**Security caveat**: the coordinator speaks plain HTTP with **no
authentication** — anyone who can reach the port can claim tasks and
append records.  Bind it to localhost or a trusted network only.
"""

from __future__ import annotations

import http.client
import json
import os
import socket
import sys
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.results import RunRecord
from repro.experiments.specs import RunSpec, SweepSpec
from repro.experiments.transports.base import (
    QUEUE_VERSION,
    Claim,
    CorruptTask,
    QueueCorrupt,
    Transport,
)
from repro.experiments.transports.sqlite import SqliteTransport

__all__ = [
    "HTTP_PROTOCOL_VERSION",
    "DEFAULT_PORT",
    "MAX_REQUEST_BYTES",
    "HttpTransport",
    "make_server",
    "serve",
]

#: Wire-protocol version of the coordinator's JSON API; bumped on any
#: incompatible change so mismatched builds refuse each other at the
#: handshake instead of misreading requests.
HTTP_PROTOCOL_VERSION = 1

#: Default coordinator port of the ``serve`` CLI subcommand.
DEFAULT_PORT = 8765

#: Hard cap on a request body.  The largest legitimate payload is a full
#: ``enqueue`` expansion (a few KB per run); anything past this is a
#: stuck client or junk traffic and is rejected with 413 unread.
MAX_REQUEST_BYTES = 16 * 1024 * 1024

#: Exception names the server reports that the client re-raises as the
#: same type; anything unrecognised degrades to :class:`QueueCorrupt`.
_ERROR_TYPES = {
    "QueueCorrupt": QueueCorrupt,
    "ValueError": ValueError,
}


def _encode_handle(handle: object) -> object:
    """A lease handle as JSON (tuples survive as lists, see ``_decode``)."""
    if isinstance(handle, tuple):
        return list(handle)
    return handle


def _decode_handle(handle: object) -> object:
    if isinstance(handle, list):
        return tuple(handle)
    return handle


# -- server-side operation table --------------------------------------------
#
# One entry per Transport operation: (transport, request payload) -> a
# JSON-serializable result.  The handler wraps these uniformly (errors
# become typed JSON error bodies), so adding an operation is one line
# here plus one client method below.


def _spec_from(payload: Dict[str, object]) -> SweepSpec:
    return SweepSpec.from_json_dict(payload["spec"])


def _claim_from(payload: Dict[str, object]) -> Claim:
    return Claim(
        task_id=str(payload["task_id"]),
        run=None,  # heartbeat/release only touch the handle
        handle=_decode_handle(payload["handle"]),
    )


def _op_handshake(transport: Transport, payload: Dict[str, object]) -> Dict[str, object]:
    return {
        "protocol": HTTP_PROTOCOL_VERSION,
        "queue_version": QUEUE_VERSION,
        "backend": transport.kind,
    }


def _op_exists(transport: Transport, payload: Dict[str, object]) -> bool:
    return transport.exists()


def _op_initialise(transport: Transport, payload: Dict[str, object]) -> None:
    transport.initialise(_spec_from(payload))


def _op_load_spec(transport: Transport, payload: Dict[str, object]) -> Dict[str, object]:
    return transport.load_spec().to_json_dict()


def _op_enqueue(transport: Transport, payload: Dict[str, object]) -> None:
    transport.enqueue([RunSpec.from_json_dict(run) for run in payload["runs"]])


def _op_claim_next(transport: Transport, payload: Dict[str, object]) -> Dict[str, object]:
    claim = transport.claim_next(str(payload["worker_id"]))
    if claim is None:
        return {"outcome": "none"}
    if isinstance(claim, CorruptTask):
        return {"outcome": "corrupt", "task_id": claim.task_id, "reason": claim.reason}
    return {
        "outcome": "claim",
        "task_id": claim.task_id,
        "run": claim.run.to_json_dict(),
        "handle": _encode_handle(claim.handle),
    }


def _op_heartbeat(transport: Transport, payload: Dict[str, object]) -> bool:
    return transport.heartbeat(_claim_from(payload))


def _op_release(transport: Transport, payload: Dict[str, object]) -> None:
    transport.release(_claim_from(payload))


def _op_reclaim_stale(transport: Transport, payload: Dict[str, object]) -> int:
    return transport.reclaim_stale(float(payload["stale_after"]))


def _op_prepare_shard(transport: Transport, payload: Dict[str, object]) -> None:
    spec = _spec_from(payload)
    if transport.exists() and transport.load_spec() != spec:
        raise ValueError(
            "shard refused: the worker's sweep is a different sweep configuration "
            "(name/seed/grid/sampler mismatch) than the one this queue pins"
        )
    transport.prepare_shard(spec, str(payload["worker_id"]))


def _op_append_record(transport: Transport, payload: Dict[str, object]) -> None:
    transport.append_record(
        _spec_from(payload),
        str(payload["worker_id"]),
        RunRecord.from_json_dict(payload["record"]),
    )


def _op_record_streams(transport: Transport, payload: Dict[str, object]) -> List[List[object]]:
    # Each stream's mapping iterates in append order (deduplicated
    # last-wins by the backend), so serializing the values as an ordered
    # list preserves exactly the semantics the client must rebuild.
    return [
        [shard_id, [record.to_json_dict() for record in records.values()]]
        for shard_id, records in transport.record_streams(_spec_from(payload))
    ]


def _op_status(transport: Transport, payload: Dict[str, object]) -> Dict[str, int]:
    return transport.status()


def _op_lease_details(transport: Transport, payload: Dict[str, object]) -> List[Dict[str, object]]:
    return transport.lease_details()


def _op_corrupt_tasks(transport: Transport, payload: Dict[str, object]) -> List[Dict[str, str]]:
    return [
        {"task_id": task.task_id, "reason": task.reason}
        for task in transport.corrupt_tasks()
    ]


def _op_clear_corrupt(transport: Transport, payload: Dict[str, object]) -> int:
    return transport.clear_corrupt()


_OPERATIONS = {
    "handshake": _op_handshake,
    "exists": _op_exists,
    "initialise": _op_initialise,
    "load_spec": _op_load_spec,
    "enqueue": _op_enqueue,
    "claim_next": _op_claim_next,
    "heartbeat": _op_heartbeat,
    "release": _op_release,
    "reclaim_stale": _op_reclaim_stale,
    "prepare_shard": _op_prepare_shard,
    "append_record": _op_append_record,
    "record_streams": _op_record_streams,
    "status": _op_status,
    "lease_details": _op_lease_details,
    "corrupt_tasks": _op_corrupt_tasks,
    "clear_corrupt": _op_clear_corrupt,
}


class QueueRequestHandler(BaseHTTPRequestHandler):
    """One ``POST /api/<operation>`` endpoint per Transport operation."""

    # HTTP/1.1 keeps worker connections persistent: one TCP session per
    # worker instead of a connect per heartbeat.
    protocol_version = "HTTP/1.1"
    server_version = "repro-queue-coordinator"

    def log_message(self, format, *args):  # noqa: A002 - BaseHTTPRequestHandler API
        pass  # the coordinator is silent; failures surface as JSON errors

    def setup(self) -> None:
        super().setup()
        self.server.track_connection(self.connection)

    def finish(self) -> None:
        super().finish()
        self.server.untrack_connection(self.connection)

    def _reply(self, status: int, payload: Dict[str, object], close: bool = False) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _reply_error(self, status: int, error: BaseException, close: bool = False) -> None:
        self._reply(
            status,
            {"error": {"type": type(error).__name__, "message": str(error)}},
            close=close,
        )

    def do_GET(self) -> None:
        self.send_response(405)
        self.send_header("Allow", "POST")
        self.send_header("Content-Length", "0")
        self.end_headers()

    def do_POST(self) -> None:
        if not self.path.startswith("/api/"):
            self._reply_error(404, QueueCorrupt(f"unknown endpoint {self.path!r}"), close=True)
            return
        operation = _OPERATIONS.get(self.path[len("/api/"):])
        if operation is None:
            self._reply_error(404, QueueCorrupt(f"unknown operation {self.path!r}"), close=True)
            return
        spoken = self.headers.get("X-Queue-Protocol")
        if spoken is not None and spoken != str(HTTP_PROTOCOL_VERSION):
            self._reply_error(
                400,
                QueueCorrupt(
                    f"client speaks queue protocol {spoken}, this coordinator speaks "
                    f"{HTTP_PROTOCOL_VERSION}; run matching builds on both ends"
                ),
                close=True,
            )
            return
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            self._reply_error(
                411, QueueCorrupt("request needs a valid Content-Length"), close=True
            )
            return
        if length > MAX_REQUEST_BYTES:
            # Reject unread: draining an adversarially huge body would be
            # the denial of service it claims to prevent.
            self._reply_error(
                413,
                QueueCorrupt(
                    f"request body of {length} bytes exceeds the {MAX_REQUEST_BYTES}-byte cap"
                ),
                close=True,
            )
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError(f"expected a JSON object, got {type(payload).__name__}")
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as error:
            self._reply_error(
                400, QueueCorrupt(f"malformed request body: {error}"), close=True
            )
            return
        try:
            result = operation(self.server.queue_transport, payload)
        except (KeyError, TypeError) as error:
            # A structurally wrong payload (missing field, bad shape) is a
            # client bug, not a queue fault.
            self._reply_error(400, QueueCorrupt(f"malformed request payload: {error!r}"))
            return
        except (QueueCorrupt, ValueError) as error:
            self._reply_error(400, error)
            return
        except Exception as error:  # pragma: no cover - defensive
            self._reply_error(500, error)
            return
        self._reply(200, {"result": result})


class QueueHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one local queue transport."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], transport: Transport):
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, QueueRequestHandler)
        self.queue_transport = transport

    def track_connection(self, connection) -> None:
        with self._connections_lock:
            self._connections.add(connection)

    def untrack_connection(self, connection) -> None:
        with self._connections_lock:
            self._connections.discard(connection)

    def handle_error(self, request, client_address) -> None:
        # A worker SIGKILLed mid-request, or a connection dropped while the
        # reply was in flight, is a normal lease-protocol event (the stale
        # reclaim heals it) — not a coordinator fault worth a traceback.
        error = sys.exc_info()[1]
        if isinstance(error, (ConnectionError, TimeoutError)):
            return
        super().handle_error(request, client_address)

    def server_close(self) -> None:
        super().server_close()
        # Sever live keep-alive sessions too: handler threads are daemonic,
        # so without this a "stopped" coordinator would keep answering the
        # workers already connected to it.
        with self._connections_lock:
            live, self._connections = list(self._connections), set()
        for connection in live:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already torn down by its handler thread
        self.queue_transport.close()


def make_server(
    queue: Union[str, Transport], host: str = "127.0.0.1", port: int = 0
) -> QueueHTTPServer:
    """Build (but do not run) a coordinator over a local SQLite queue.

    ``queue`` is the ``QUEUE_<name>.sqlite`` path (it need not exist yet —
    a remote ``enqueue`` initialises it) or an already-constructed local
    transport.  ``port=0`` binds an ephemeral port; read the actual
    address back from ``server.server_address``.
    """
    if isinstance(queue, Transport):
        transport = queue
    else:
        location = str(queue)
        if location.startswith(("http://", "https://")):
            raise ValueError(
                "the coordinator serves a *local* queue database — pass the "
                "QUEUE_<name>.sqlite path, not a URL (coordinators do not chain)"
            )
        if os.path.isdir(location):
            raise ValueError(
                f"{location!r} is a retired directory queue; the HTTP coordinator "
                f"serves a SQLite queue database (pass the QUEUE_<name>.sqlite path)"
            )
        transport = SqliteTransport(location)
    if isinstance(transport, HttpTransport):
        raise ValueError("cannot chain one HTTP coordinator behind another")
    return QueueHTTPServer((host, port), transport)


def serve(queue: Union[str, Transport], host: str = "127.0.0.1", port: int = DEFAULT_PORT) -> None:
    """Run a coordinator until interrupted (the ``serve`` CLI body)."""
    server = make_server(queue, host, port)
    try:
        server.serve_forever()
    finally:
        server.server_close()


class HttpTransport(Transport):
    """The client half: the full Transport protocol over JSON POSTs.

    Every call retries connection-level failures with exponential backoff
    (``retries`` attempts beyond the first, delays doubling from
    ``backoff`` up to ``backoff_cap`` seconds), so a coordinator restart
    stalls live workers for the gap instead of killing them.  The
    connection is a persistent keep-alive session shared between the
    worker loop and its heartbeat thread (serialised by a lock) and must
    be released with :meth:`close`; a closed transport transparently
    reconnects if used again.
    """

    kind = "http"

    def __init__(
        self,
        url: str,
        timeout: float = 30.0,
        retries: int = 8,
        backoff: float = 0.1,
        backoff_cap: float = 2.0,
    ):
        parts = urllib.parse.urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.netloc:
            raise ValueError(
                f"{url!r} is not an http(s) queue coordinator URL "
                f"(expected e.g. http://coordinator:8765)"
            )
        self.location = url.rstrip("/")
        self._scheme = parts.scheme
        self._netloc = parts.netloc
        self._base_path = parts.path.rstrip("/")
        self._timeout = float(timeout)
        self._retries = max(0, int(retries))
        self._backoff = float(backoff)
        self._backoff_cap = float(backoff_cap)
        # One keep-alive connection shared between the worker loop and its
        # heartbeat daemon thread; http.client connections are not
        # thread-safe, so the lock serialises whole request/response pairs.
        self._lock = threading.RLock()
        self._conn: Optional[http.client.HTTPConnection] = None
        self._handshaken = False

    # -- wire ---------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            factory = (
                http.client.HTTPSConnection
                if self._scheme == "https"
                else http.client.HTTPConnection
            )
            self._conn = factory(self._netloc, timeout=self._timeout)
        return self._conn

    def _drop_connection(self) -> None:
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
            self._conn = None

    def _rpc(self, operation: str, payload: Optional[Dict[str, object]] = None):
        if operation != "handshake":
            self._ensure_handshake()
        body = json.dumps(payload or {}, sort_keys=True).encode("utf-8")
        headers = {
            "Content-Type": "application/json",
            "X-Queue-Protocol": str(HTTP_PROTOCOL_VERSION),
        }
        with self._lock:
            delay = self._backoff
            for attempt in range(self._retries + 1):
                try:
                    conn = self._connection()
                    conn.request("POST", f"{self._base_path}/api/{operation}", body, headers)
                    response = conn.getresponse()
                    data = response.read()
                    status = response.status
                    break
                except (http.client.HTTPException, OSError) as error:
                    # Connection refused/reset/dropped: the coordinator is
                    # restarting (or the network blipped).  Reconnect with
                    # backoff; the lease protocol tolerates the replay.
                    self._drop_connection()
                    if attempt == self._retries:
                        raise QueueCorrupt(
                            f"queue coordinator {self.location!r} is unreachable "
                            f"after {attempt + 1} attempt(s): {error}"
                        ) from None
                    time.sleep(delay)
                    delay = min(delay * 2.0, self._backoff_cap)
        try:
            parsed = json.loads(data.decode("utf-8"))
            if not isinstance(parsed, dict):
                raise ValueError(f"expected a JSON object, got {type(parsed).__name__}")
        except (UnicodeDecodeError, json.JSONDecodeError, ValueError) as error:
            raise QueueCorrupt(
                f"queue coordinator {self.location!r} returned an unparseable "
                f"response to {operation!r} (HTTP {status}): {error}"
            ) from None
        if status == 200:
            return parsed.get("result")
        error_info = parsed.get("error") or {}
        message = str(error_info.get("message") or f"HTTP {status}")
        raise _ERROR_TYPES.get(str(error_info.get("type")), QueueCorrupt)(message)

    def _ensure_handshake(self) -> None:
        with self._lock:
            if self._handshaken:
                return
            info = self._rpc("handshake")
            if info.get("protocol") != HTTP_PROTOCOL_VERSION:
                raise QueueCorrupt(
                    f"queue coordinator {self.location!r} speaks wire protocol "
                    f"{info.get('protocol')!r}, this build speaks {HTTP_PROTOCOL_VERSION}; "
                    f"run matching builds on both ends"
                )
            if info.get("queue_version") != QUEUE_VERSION:
                raise QueueCorrupt(
                    f"queue coordinator {self.location!r} serves layout version "
                    f"{info.get('queue_version')!r}, expected {QUEUE_VERSION}; "
                    f"re-enqueue with this build"
                )
            self._handshaken = True

    def close(self) -> None:
        """Release the keep-alive session (reconnects lazily if reused)."""
        with self._lock:
            self._drop_connection()

    # -- queue lifecycle ----------------------------------------------------

    def exists(self) -> bool:
        return bool(self._rpc("exists"))

    def initialise(self, spec: SweepSpec) -> None:
        self._rpc("initialise", {"spec": spec.to_json_dict()})

    def load_spec(self) -> SweepSpec:
        return SweepSpec.from_json_dict(self._rpc("load_spec"))

    # -- tasks and leases ---------------------------------------------------

    def enqueue(self, runs: Sequence[RunSpec]) -> None:
        self._rpc("enqueue", {"runs": [run.to_json_dict() for run in runs]})

    def claim_next(self, worker_id: str) -> Optional[Union[Claim, CorruptTask]]:
        result = self._rpc("claim_next", {"worker_id": worker_id})
        outcome = result.get("outcome")
        if outcome == "none":
            return None
        if outcome == "corrupt":
            return CorruptTask(task_id=str(result["task_id"]), reason=str(result["reason"]))
        if outcome != "claim":
            raise QueueCorrupt(
                f"queue coordinator {self.location!r} returned an unknown claim "
                f"outcome {outcome!r}"
            )
        return Claim(
            task_id=str(result["task_id"]),
            run=RunSpec.from_json_dict(result["run"]),
            handle=_decode_handle(result["handle"]),
        )

    def _claim_payload(self, claim: Claim) -> Dict[str, object]:
        return {"task_id": claim.task_id, "handle": _encode_handle(claim.handle)}

    def heartbeat(self, claim: Claim) -> bool:
        return bool(self._rpc("heartbeat", self._claim_payload(claim)))

    def release(self, claim: Claim) -> None:
        self._rpc("release", self._claim_payload(claim))

    def reclaim_stale(self, stale_after: float) -> int:
        return int(self._rpc("reclaim_stale", {"stale_after": float(stale_after)}))

    # -- shards -------------------------------------------------------------

    def prepare_shard(self, spec: SweepSpec, worker_id: str) -> None:
        self._rpc("prepare_shard", {"spec": spec.to_json_dict(), "worker_id": worker_id})

    def append_record(self, spec: SweepSpec, worker_id: str, record: RunRecord) -> None:
        self._rpc(
            "append_record",
            {
                "spec": spec.to_json_dict(),
                "worker_id": worker_id,
                "record": record.to_json_dict(),
            },
        )

    def record_streams(self, spec: SweepSpec) -> List[Tuple[str, Mapping[Tuple[int, int], RunRecord]]]:
        streams = []
        for shard_id, entries in self._rpc("record_streams", {"spec": spec.to_json_dict()}):
            records: Dict[Tuple[int, int], RunRecord] = {}
            for entry in entries:
                record = RunRecord.from_json_dict(entry)
                records[(record.index, record.seed)] = record
            streams.append((str(shard_id), records))
        return streams

    # -- status -------------------------------------------------------------

    def status(self) -> Dict[str, int]:
        return {key: int(value) for key, value in self._rpc("status").items()}

    def lease_details(self) -> List[Dict[str, object]]:
        return list(self._rpc("lease_details"))

    def corrupt_tasks(self) -> List[CorruptTask]:
        return [
            CorruptTask(task_id=str(entry["task_id"]), reason=str(entry["reason"]))
            for entry in self._rpc("corrupt_tasks")
        ]

    def clear_corrupt(self) -> int:
        return int(self._rpc("clear_corrupt"))
