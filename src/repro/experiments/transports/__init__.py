"""The queue transport of the distributed runner.

:class:`~repro.experiments.transports.sqlite.SqliteTransport` is the
coordination backend behind the ``enqueue``/``work``/``collect``
lifecycle (which lives in :mod:`repro.experiments.distributed`): a
single-file SQLite database shared by the worker processes of one host.
:func:`resolve_transport` opens one from a queue location.
"""

from __future__ import annotations

import os
from typing import Union

from repro.experiments.transports.sqlite import (
    QUEUE_VERSION,
    Claim,
    CorruptTask,
    QueueBusy,
    QueueCorrupt,
    QueueIncomplete,
    SqliteTransport,
    queue_db_path,
)

__all__ = [
    "QUEUE_VERSION",
    "Claim",
    "CorruptTask",
    "QueueBusy",
    "QueueCorrupt",
    "QueueIncomplete",
    "SqliteTransport",
    "queue_db_path",
    "resolve_transport",
]


def resolve_transport(queue: Union[str, SqliteTransport]) -> SqliteTransport:
    """Resolve a queue location (or a ready transport) to a transport.

    Any location is a SQLite queue database (SQLite itself refuses a file
    that is not one).  Two retired queue kinds are refused with
    :class:`QueueCorrupt`: an existing directory is a queue of the retired
    directory transport, and an ``http://``/``https://`` URL names the
    retired HTTP coordinator.  This build can read neither.
    """
    if isinstance(queue, SqliteTransport):
        return queue
    if queue.startswith(("http://", "https://")):
        raise QueueCorrupt(
            f"{queue!r} is a URL: a queue of the retired HTTP coordinator, which this "
            f"build cannot reach; enqueue the sweep into a SQLite queue "
            f"(QUEUE_<name>.sqlite, the `enqueue` default) and run the workers on its host"
        )
    if os.path.isdir(queue):
        raise QueueCorrupt(
            f"{queue!r} is a directory: a retired directory queue, which this build "
            f"cannot read; re-enqueue the sweep into a SQLite queue "
            f"(QUEUE_<name>.sqlite, the `enqueue` default)"
        )
    return SqliteTransport(queue)
