"""Exclusive-time arithmetic and alias coverage of the benchmark's tracer."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perf_trace import (  # noqa: E402
    ROOT_LAYER,
    Instrumentation,
    SpanRecorder,
    Target,
    TargetMissing,
    UnwrappedAlias,
    traced,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_spans_charge_self_time_once():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def hermite():  # linalg calling linalg: re-entrant, no new span
        clock.advance(4)

    def smith():
        clock.advance(2)
        wrapped_hermite()

    def sample():
        clock.advance(3)
        wrapped_smith()
        clock.advance(1)

    wrapped_hermite = traced(rec, "linalg", hermite)
    wrapped_smith = traced(rec, "linalg", smith)
    wrapped_sample = traced(rec, "sampler", sample)
    with rec.span(ROOT_LAYER) as root:
        clock.advance(1)
        wrapped_sample()
        clock.advance(1)

    assert root.elapsed == 12
    assert rec.self_time == {"linalg": 6, "sampler": 4, ROOT_LAYER: 2}
    assert sum(rec.self_time.values()) == root.elapsed
    assert rec.calls == {"linalg": 1, "sampler": 1, ROOT_LAYER: 1}


def test_reentry_through_another_layer_counts_once():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def oracle_inner():
        clock.advance(5)

    wrapped_inner = traced(rec, "oracle", oracle_inner)

    def engine():
        clock.advance(2)
        wrapped_inner()  # oracle is already open further down the stack

    wrapped_engine = traced(rec, "engine", engine)

    def oracle_outer():
        clock.advance(1)
        wrapped_engine()

    with rec.span(ROOT_LAYER):
        traced(rec, "oracle", oracle_outer)()

    assert rec.calls["oracle"] == 1
    assert rec.self_time == {"oracle": 1, "engine": 7, ROOT_LAYER: 0}


def test_notes_run_for_outermost_calls_unless_nested_requested():
    rec = SpanRecorder()
    seen = []

    def note(recorder, args, kwargs, result):
        seen.append(args)

    inner = traced(rec, "oracle", lambda x: x, note, note_nested=True)
    outer = traced(rec, "oracle", lambda x: inner(x + 1), note)
    outer(1)
    assert seen == [(2,), (1,)]


def test_exception_closes_the_span():
    clock = FakeClock()
    rec = SpanRecorder(clock=clock)

    def boom():
        clock.advance(3)
        raise ValueError("boom")

    with rec.span(ROOT_LAYER):
        with pytest.raises(ValueError):
            traced(rec, "solver", boom)()
    assert rec.self_time == {"solver": 3, ROOT_LAYER: 0}
    assert not rec.is_open("solver")


def test_aliases_are_wrapped_and_restored():
    import repro.blackbox.instances as instances
    import repro.linalg.zmodule as zmodule

    original = zmodule.coset_representative
    assert instances.coset_representative is original
    inst = Instrumentation(SpanRecorder(), [Target("repro.linalg.zmodule", "coset_representative", "linalg")])
    with inst:
        assert zmodule.coset_representative is not original
        assert instances.coset_representative is zmodule.coset_representative
        assert inst.unwrapped_aliases() == []
    assert zmodule.coset_representative is original
    assert instances.coset_representative is original


def test_late_unwrapped_alias_fails_loudly():
    import repro.linalg.zmodule as zmodule

    original = zmodule.coset_representative
    late = types.ModuleType("repro._perfbench_late_alias")
    inst = Instrumentation(SpanRecorder(), [Target("repro.linalg.zmodule", "coset_representative", "linalg")])
    with inst:
        late.coset_representative = original
        sys.modules[late.__name__] = late
        try:
            with pytest.raises(UnwrappedAlias, match="_perfbench_late_alias"):
                inst.check_coverage()
        finally:
            del sys.modules[late.__name__]


def test_missing_target_fails_loudly_and_leaves_nothing_patched():
    import repro.linalg.zmodule as zmodule

    original = zmodule.coset_representative
    inst = Instrumentation(
        SpanRecorder(),
        [
            Target("repro.linalg.zmodule", "coset_representative", "linalg"),
            Target("repro.linalg.zmodule", "no_such_function", "linalg"),
        ],
    )
    with pytest.raises(TargetMissing, match="no_such_function"):
        inst.install()
    assert zmodule.coset_representative is original
    with pytest.raises(TargetMissing):
        Instrumentation(SpanRecorder(), [Target("repro.linalg.zmodule:NoSuchClass", "f", "x")]).install()


def test_every_library_target_installs_with_full_alias_coverage():
    from perf_layers import LayerProbe

    import repro.core.solver as solver
    from repro.groups.engine import CayleyBackend

    probe = LayerProbe()
    original_solve = solver.solve_hsp
    original_init = CayleyBackend.__init__
    with probe.instrumentation:
        probe.instrumentation.check_coverage()
        assert solver.solve_hsp is not original_solve
        assert CayleyBackend.__init__ is not original_init
    assert solver.solve_hsp is original_solve
    assert CayleyBackend.__init__ is original_init
