"""Spans, self time, Chrome trace output and wrapper restoration."""

import json

import tracing


class StepClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children(tmp_path):
    tracer = tracing.Tracer(clock=StepClock())
    with tracer.span("ingest"):          # start 1, end 6
        with tracer.span("codec.plain"):  # start 2, end 3
            pass
        with tracer.span("features"):     # start 4, end 5
            pass
    times = tracer.self_times()
    assert times == {"ingest": 3.0, "codec.plain": 1.0, "features": 1.0}
    assert tracer.spans[1].parent == tracer.spans[0].sid

    path = tmp_path / "trace.json"
    tracer.write(path)
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["ph"] for e in events] == ["X", "X", "X"]
    assert events[0]["dur"] == 5e6 and events[1]["args"]["parent"] == 0


def test_mark_excludes_warm_up_spans():
    tracer = tracing.Tracer(clock=StepClock())
    with tracer.span("frontend"):
        pass
    tracer.mark()
    with tracer.span("frontend") as span:
        span.count = 4
    assert tracer.stats("frontend") == (1, 1.0, 4)


def test_instrument_restores_the_program():
    from repro.serve.frontend import StreamFrontend
    from repro.serve.workers import ShardWorker

    build, handle = StreamFrontend.build, ShardWorker.handle
    with tracing.instrument(tracing.Tracer()):
        assert StreamFrontend.build is not build
        assert ShardWorker.handle is not handle
    assert StreamFrontend.build is build
    assert ShardWorker.handle is handle
