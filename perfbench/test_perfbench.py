"""Tests of the benchmark's own arithmetic: span self time and digests.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import types

import pytest

import cases
import layers
import measure


def test_self_time_subtracts_direct_children_only():
    # op [0, 10] > a [1, 4] > b [2, 3];  op > a [5, 6];  op > c [7, 9]
    name = [0, 1, 2, 1, 3]
    start = [0.0, 1.0, 2.0, 5.0, 7.0]
    end = [10.0, 4.0, 3.0, 6.0, 9.0]
    parent = [-1, 0, 1, 0, 0]
    own, calls = layers.self_times(name, start, end, parent, 4)
    assert own.tolist() == [4.0, 3.0, 1.0, 2.0]
    assert calls.tolist() == [1, 2, 1, 1]
    assert own.sum() == pytest.approx(end[0] - start[0])


def test_self_time_of_empty_trace_is_zero():
    own, calls = layers.self_times([], [], [], [], 2)
    assert own.tolist() == [0.0, 0.0]
    assert calls.tolist() == [0, 0]


def test_recorder_partitions_op_time_and_folds_reentry():
    recorder = layers.SpanRecorder()

    traced_leaf = recorder.wrap(lambda: 1, "leaf")

    def inner(depth):
        return traced_leaf() + (traced_inner(depth - 1) if depth else 0)

    traced_inner = recorder.wrap(inner, "inner", count_as="inner.n")
    op = recorder.begin_op("op 0")
    assert traced_inner(2) == 3
    recorder.end_op(op)
    totals = layers.layer_totals(recorder)
    # Re-entering "inner" from inside "inner" folds into one span, but
    # every call is still counted by ``count_as``.
    assert totals["inner"][1] == 1
    assert recorder.counts["inner.n"] == 3
    assert totals["leaf"][1] == 3
    spans = recorder.arrays()
    wall = spans["end"][0] - spans["start"][0]
    assert sum(own for own, _ in totals.values()) == pytest.approx(wall)
    assert set(spans["op"].tolist()) == {0}
    assert recorder.stack == [-1]


def test_recorder_closes_spans_when_the_call_raises():
    recorder = layers.SpanRecorder()

    def boom():
        raise ValueError("x")

    traced = recorder.wrap(boom, "boom")
    with pytest.raises(ValueError):
        traced()
    assert recorder.stack == [-1]
    assert recorder.end[0] >= recorder.start[0]


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    module = types.SimpleNamespace(g=lambda: "g")
    with layers.Patches() as patches:
        patches.replace(Child, "f", lambda fn: lambda self: "patched")
        patches.replace(module, "g", lambda fn: lambda: fn() + "!")
        assert Child().f() == "patched" and Base().f() == "base"
        assert module.g() == "g!"
    assert "f" not in vars(Child)
    assert Child().f() == "base" and module.g() == "g"


def test_instrument_wraps_every_layer_and_restores_the_simulator():
    from repro.cpu.core_model import Core
    from repro.sim import runner

    originals = (runner.generate_trace, vars(Core)["try_emit"])
    recorder = layers.SpanRecorder()
    with layers.Patches() as patches:
        layers.instrument(recorder, patches)
        assert runner.generate_trace is not originals[0]
        wrapped = {recorder.layers[i] for i in range(len(recorder.layers))}
    assert (runner.generate_trace, vars(Core)["try_emit"]) == originals
    assert set(layers.LAYERS) <= wrapped


def test_digest_is_order_independent_for_keys_and_exact_for_floats():
    a = cases.digest_of({"x": 1, "y": [0.1, 2]})
    assert a == cases.digest_of({"y": [0.1, 2], "x": 1})
    assert a != cases.digest_of({"x": 1, "y": [0.1 + 1e-15, 2]})


def test_digest_failures_name_each_moved_missing_or_extra_op():
    pinned = {"a": "1", "b": "2", "c": "3"}
    assert cases.digest_failures(pinned, dict(pinned)) == []
    failures = cases.digest_failures(pinned, {"a": "1", "b": "9", "d": "4"})
    assert [label for label, _ in failures] == ["b", "c", "d"]


def _tiny_cell(seed):
    config = cases.grid_config(seed, cores=4, accesses=40)
    with cases.ResultTap() as tap:
        cases.simulate("fs_rp", "mix1", config)
    (record,) = tap.take()
    return record


def test_cell_digest_repeats_and_follows_the_inputs():
    first, again, other = _tiny_cell(3), _tiny_cell(3), _tiny_cell(4)
    assert first.digest == again.digest
    assert first.digest != other.digest
    assert first.problems == ()
    assert first.requests > 0 and first.dram_commands > 0


def test_pinned_digest_mismatch_counts_as_a_failed_operation(monkeypatch):
    record = _tiny_cell(3)
    outcome = cases.OpOutcome("fs_rp/mix1", [record])
    workload = cases.WORKLOADS["fs_figures"]
    good = workload.digests([outcome])
    monkeypatch.setattr(cases, "pinned", lambda name, seed: good)
    attempted, failures = measure.check_outputs(
        workload, 3, [outcome], None
    )
    assert (attempted, failures) == (1, [])
    monkeypatch.setattr(
        cases, "pinned", lambda name, seed: {"fs_rp/mix1": "0" * 16}
    )
    _, failures = measure.check_outputs(workload, 3, [outcome], None)
    assert [label for label, _ in failures] == ["fs_rp/mix1"]
