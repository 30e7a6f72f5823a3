"""In-memory span recording around the library's public layers.

The benchmark never edits ``src/``: it wraps the public functions and
methods of each layer from outside, records one span per *outermost* call
into a layer, and turns the spans into exclusive (self) time per layer.

Exclusive time: when a span closes, its duration minus the time covered by
its child spans is charged to its layer, and its whole duration is charged
to the parent as child time.  A call into a layer that is already on the
stack (``smith_normal_form`` calling ``hermite_normal_form``,
``evaluate_many`` delegating to ``evaluate_ids``) opens no new span, so its
time and its call count land once, in the span already open.  The root span
of every op is the ``unattributed`` layer: whatever no wrapped layer covers.
The layer self times therefore sum to the traced op total by construction.

Aliases: ``from repro.linalg.zmodule import coset_representative`` binds the
function object into the importing module, so patching the defining module
alone would miss those calls.  :class:`Instrumentation` installs each
wrapper on every ``repro.*`` module attribute bound to the original, and
:meth:`Instrumentation.check_coverage` fails loudly if any alias still points
at an unwrapped original or if a named target no longer exists.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

ROOT_LAYER = "unattributed"


class TargetMissing(RuntimeError):
    """A layer target named by the benchmark no longer exists in the library."""


class UnwrappedAlias(RuntimeError):
    """A ``repro.*`` module still binds an original that should be wrapped."""


class SpanRecorder:
    """Exclusive-time accounting over a stack of open layer spans.

    Only the thread that created the recorder is traced; calls from other
    threads (the queue worker's heartbeat thread) pass straight through.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.thread = threading.get_ident()
        self.self_time: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self._stack: List[list] = []
        self._open: Dict[str, int] = {}

    def is_open(self, layer: str) -> bool:
        return layer in self._open

    def traced_here(self) -> bool:
        return threading.get_ident() == self.thread

    def push(self, layer: str) -> list:
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        self._open[layer] = self._open.get(layer, 0) + 1
        self.calls[layer] = self.calls.get(layer, 0) + 1
        return frame

    def pop(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        if not self._stack or self._stack[-1] is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self._stack.pop()
        layer, start, child_time = frame
        elapsed = self.clock() - start
        self.self_time[layer] = self.self_time.get(layer, 0.0) + (elapsed - child_time)
        if self._stack:
            self._stack[-1][2] += elapsed
        depth = self._open[layer] - 1
        if depth:
            self._open[layer] = depth
        else:
            del self._open[layer]
        return elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, layer: str) -> "_Span":
        return _Span(self, layer)


class _Span:
    def __init__(self, recorder: SpanRecorder, layer: str):
        self._recorder = recorder
        self._layer = layer
        self._frame = None
        self.elapsed = 0.0

    def __enter__(self) -> "_Span":
        self._frame = self._recorder.push(self._layer)
        return self

    def __exit__(self, *exc_info) -> None:
        self.elapsed = self._recorder.pop(self._frame)


def traced(
    recorder: SpanRecorder,
    layer: str,
    fn: Callable,
    note: Optional[Callable] = None,
    note_nested: bool = False,
) -> Callable:
    """``fn`` wrapped in a span of ``layer`` (pass-through when re-entrant).

    ``note(recorder, args, kwargs, result)`` records the layer's work counts.
    It runs for outermost calls only, or for re-entrant calls too when
    ``note_nested`` is set (work that is counted per request, not per span).
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.traced_here():
            return fn(*args, **kwargs)
        if recorder.is_open(layer):
            result = fn(*args, **kwargs)
            if note_nested:
                note(recorder, args, kwargs, result)
            return result
        frame = recorder.push(layer)
        try:
            result = fn(*args, **kwargs)
            if note is not None:
                note(recorder, args, kwargs, result)
            return result
        finally:
            recorder.pop(frame)

    wrapper.__perfbench_original__ = fn
    return wrapper


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``owner`` is a module path, ``owner:Class`` a class."""

    owner: str
    name: str
    layer: str
    note: Optional[Callable] = None
    note_nested: bool = False


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    module = importlib.import_module(module_name)
    if not class_name:
        return module
    try:
        return getattr(module, class_name)
    except AttributeError:
        raise TargetMissing(f"{owner} does not exist") from None


def _repro_modules() -> List[Tuple[str, object]]:
    return [
        (name, module)
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Instrumentation:
    """Installs :func:`traced` wrappers for a list of targets, and removes them."""

    def __init__(self, recorder: SpanRecorder, targets: List[Target]):
        self.recorder = recorder
        self.targets = list(targets)
        self.originals: List[Tuple[Target, Callable]] = []
        self._patches: List[Tuple[object, str, object]] = []

    def install(self) -> "Instrumentation":
        if self._patches:
            raise RuntimeError("instrumentation is already installed")
        try:
            for target in self.targets:
                self._install_one(target)
            self.check_coverage()
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_one(self, target: Target) -> None:
        owner = _resolve_owner(target.owner)
        raw = vars(owner).get(target.name)
        if raw is None:
            raise TargetMissing(f"{target.owner}.{target.name} does not exist")
        is_classmethod = isinstance(raw, classmethod)
        original = raw.__func__ if is_classmethod else raw
        if not callable(original):
            raise TargetMissing(f"{target.owner}.{target.name} is not callable")
        wrapper = traced(self.recorder, target.layer, original, target.note, target.note_nested)
        self._patch(owner, target.name, raw, classmethod(wrapper) if is_classmethod else wrapper)
        self.originals.append((target, original))
        if not isinstance(owner, type):
            for _, module in _repro_modules():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, value, wrapper)

    def _patch(self, owner, attr: str, old, new) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def unwrapped_aliases(self) -> List[str]:
        """Every ``repro.*`` module attribute still bound to an original."""
        by_id = {id(original): target for target, original in self.originals}
        found = []
        for name, module in _repro_modules():
            for attr, value in list(vars(module).items()):
                # A bound method aliases its function through ``__func__``.
                for candidate in (value, getattr(value, "__func__", None)):
                    target = by_id.get(id(candidate))
                    if target is not None:
                        found.append(f"{name}.{attr} -> {target.owner}.{target.name}")
        return found

    def check_coverage(self) -> None:
        """Raise unless every target and every alias of it is wrapped."""
        for target, original in self.originals:
            current = vars(_resolve_owner(target.owner)).get(target.name)
            current = getattr(current, "__func__", current)
            if getattr(current, "__perfbench_original__", None) is not original:
                raise UnwrappedAlias(f"{target.owner}.{target.name} is not wrapped")
        missed = self.unwrapped_aliases()
        if missed:
            raise UnwrappedAlias("unwrapped aliases: " + "; ".join(sorted(missed)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self.originals.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
