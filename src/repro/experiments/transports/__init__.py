"""Pluggable queue transports for the distributed runner.

The :class:`~repro.experiments.transports.base.Transport` protocol is the
seam between the ``enqueue``/``work``/``collect`` lifecycle (which lives
in :mod:`repro.experiments.distributed`) and the coordination backend.
Two backends ship — a single-file SQLite database, and an HTTP client
speaking to a coordinator serving one — and :func:`resolve_transport`
picks one from a queue location: an ``http://``/``https://`` URL is a
coordinator, any other location a SQLite database.
"""

from __future__ import annotations

import os
from typing import Union

from repro.experiments.transports.base import (
    QUEUE_VERSION,
    Claim,
    CorruptTask,
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    Transport,
)
from repro.experiments.transports.http import (
    HTTP_PROTOCOL_VERSION,
    HttpTransport,
    make_server,
    serve,
)
from repro.experiments.transports.sqlite import SqliteTransport, queue_db_path

__all__ = [
    "HTTP_PROTOCOL_VERSION",
    "QUEUE_VERSION",
    "Claim",
    "CorruptTask",
    "HttpTransport",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "SqliteTransport",
    "Transport",
    "make_server",
    "queue_db_path",
    "resolve_transport",
    "serve",
]


def resolve_transport(queue: Union[str, Transport]) -> Transport:
    """Resolve a queue location (or a ready transport) to a transport.

    An ``http://``/``https://`` location is a coordinator URL; any other
    location is a SQLite queue database (SQLite itself refuses a file that
    is not one).  An existing directory is refused with
    :class:`QueueCorrupt`: it is a queue of the retired directory
    transport, which this build cannot read.
    """
    if isinstance(queue, Transport):
        return queue
    if queue.startswith(("http://", "https://")):
        return HttpTransport(queue)
    if os.path.isdir(queue):
        raise QueueCorrupt(
            f"{queue!r} is a directory: a retired directory queue, which this build "
            f"cannot read; re-enqueue the sweep into a SQLite queue "
            f"(QUEUE_<name>.sqlite, the `enqueue` default)"
        )
    return SqliteTransport(queue)
