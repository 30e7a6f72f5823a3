"""Process-local metrics registry: named counters.

The registry mirrors the ``QueryCounter`` discipline used by the black-box
oracle layer: cheap in-process accumulation, a ``snapshot()`` that is plain
JSON data, ``from_snapshot`` to rehydrate, and ``+`` to merge snapshots taken
in different worker processes.  Collection is off by default; :func:`count`
is a no-op until :func:`set_collecting` (normally via ``repro.obs.configure``)
turns it on, so instrumented hot paths cost one boolean check when disabled.
Time is measured by spans only (see :mod:`repro.obs.trace`).
"""

from __future__ import annotations

from typing import Any, Dict

__all__ = [
    "Metrics",
    "collecting",
    "count",
    "get_metrics",
    "reset_metrics",
    "set_collecting",
]

_COLLECTING = False


def collecting() -> bool:
    """Return True when the module-level registry is accepting samples."""

    return _COLLECTING


def set_collecting(on: bool) -> bool:
    """Toggle collection; returns the previous state so callers can restore."""

    global _COLLECTING
    previous = _COLLECTING
    _COLLECTING = bool(on)
    return previous


class Metrics:
    """Named counters for one process."""

    __slots__ = ("counters",)

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(amount)

    def snapshot(self) -> Dict[str, Any]:
        """A JSON-ready copy of the registry state."""

        return {"counters": {name: self.counters[name] for name in sorted(self.counters)}}

    @classmethod
    def from_snapshot(cls, snapshot: Dict[str, Any]) -> "Metrics":
        metrics = cls()
        for name, value in snapshot.get("counters", {}).items():
            metrics.counters[name] = int(value)
        return metrics

    def merge(self, other: "Metrics") -> "Metrics":
        """Fold ``other`` into this registry (counters add)."""

        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        return self

    def __add__(self, other: "Metrics") -> "Metrics":
        merged = Metrics().merge(self)
        return merged.merge(other)

    def __radd__(self, other: Any) -> "Metrics":
        if other == 0:  # let sum() start from 0 like QueryCounter does
            return Metrics().merge(self)
        return NotImplemented  # type: ignore[return-value]

    def diff(self, before: Dict[str, Any]) -> Dict[str, Any]:
        """Delta snapshot relative to an earlier ``snapshot()`` (non-zero only)."""

        counters: Dict[str, int] = {}
        old_counters = before.get("counters", {})
        for name in sorted(self.counters):
            delta = self.counters[name] - int(old_counters.get(name, 0))
            if delta:
                counters[name] = delta
        return {"counters": counters}


_METRICS = Metrics()


def get_metrics() -> Metrics:
    """The process-local registry."""

    return _METRICS


def reset_metrics() -> Metrics:
    """Swap in a fresh registry and return it."""

    global _METRICS
    _METRICS = Metrics()
    return _METRICS


def count(name: str, amount: int = 1) -> None:
    if _COLLECTING:
        _METRICS.count(name, amount)
