import types

import pytest

import tracing
from tracing import Span, Target, covered, self_times


def span(span_id, parent, start, end, name="x", op=1):
    return Span(op, span_id, parent, name, start, end)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4)
    assert covered([(-1, 1), (9, 12)], 0, 10) == pytest.approx(2)
    assert covered([(2, 3), (2, 3)], 0, 10) == pytest.approx(1)
    assert covered([], 0, 10) == 0


def test_self_time_of_nested_spans():
    spans = [
        span(1, None, 0, 10),
        span(2, 1, 1, 4),
        span(3, 2, 2, 3),
        span(4, 1, 5, 9),
    ]
    self_ = self_times(spans)
    assert self_[1] == pytest.approx(10 - 3 - 4)
    assert self_[2] == pytest.approx(3 - 1)
    assert self_[3] == pytest.approx(1)
    assert self_[4] == pytest.approx(4)


def test_self_time_counts_overlapping_children_once():
    # Children on two threads (or matched in from another process) overlap.
    spans = [span(1, None, 0, 10), span(2, 1, 2, 6), span(3, 1, 4, 8), span(4, 1, 9, 12)]
    assert self_times(spans)[1] == pytest.approx(10 - 6 - 1)


def _fake_module():
    module = types.ModuleType("fake_layer")

    class Engine:
        def run(self, x):
            return module.leaf(x) + 1

        @classmethod
        def build(cls, x):
            return cls().run(x)

    def leaf(x):
        return x * 2

    module.Engine = Engine
    module.leaf = leaf
    return module


def test_wrappers_record_nested_spans_and_uninstall(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", module)
    original_leaf = module.leaf
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    tracer.install([
        Target("engine.build", "fake_layer", "Engine.build"),
        Target("engine.run", "fake_layer", "Engine.run"),
        Target("leaf", "fake_layer", "leaf"),
    ])
    assert module.Engine.build(3) == 7  # outside an op: runs, records nothing
    assert tracer.spans == []
    with tracer.op("op.read", tag=("q", None)):
        assert module.Engine.build(3) == 7
    tracer.uninstall()
    assert module.leaf is original_leaf
    assert isinstance(module.Engine.__dict__["build"], classmethod)

    names = {s.name: s for s in tracer.spans}
    assert set(names) == {"op.read", "engine.build", "engine.run", "leaf"}
    assert {s.op for s in tracer.spans} == {names["op.read"].op}
    assert names["engine.build"].parent == names["op.read"].span
    assert names["engine.run"].parent == names["engine.build"].span
    assert names["leaf"].parent == names["engine.run"].span
    assert names["op.read"].tag == ("q", None)


def test_root_and_tail_roles_share_one_op(monkeypatch):
    module = types.ModuleType("fake_server")
    module.handle = lambda request: request.upper()
    module.encode = lambda response: response.encode()
    monkeypatch.setitem(__import__("sys").modules, "fake_server", module)
    tracer = tracing.Tracer()
    tracer.install([
        Target("api.handle", "fake_server", "handle", "root"),
        Target("api.encode", "fake_server", "encode", "tail", lambda args, result: len(result)),
    ])
    for request in ("a", "bb"):
        module.encode(module.handle(request))
    module.encode("no op open: not recorded")
    tracer.uninstall()
    ops = tracing.by_op(tracer.spans)
    assert len(ops) == 2
    for spans in ops.values():
        assert sorted(s.name for s in spans) == ["api.encode", "api.handle"]
    assert sorted(s.tag for s in tracer.spans if s.name == "api.encode") == [1, 2]


def test_spans_round_trip_through_a_dump(tmp_path):
    tracer = tracing.Tracer()
    with tracer.op("op.read", tag=("Q1", 10)):
        pass
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    assert tracing.load_spans(str(path)) == tracer.spans


def test_full_collections_are_recorded_as_spans_of_no_op_until_uninstall():
    import gc

    tracer = tracing.Tracer()
    tracer.watch_gc()
    gc.collect()
    tracer.uninstall()
    gc.collect()
    pauses = [s for s in tracer.spans if s.name == "gc.full"]
    assert len(pauses) == 1
    assert pauses[0].op == 0 and pauses[0].parent is None and pauses[0].duration >= 0.0
