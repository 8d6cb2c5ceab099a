"""Spans around calls into the program's layers, from the benchmark's side.

:func:`instrument` wraps public entry points of each layer for the
duration of a traced pass and restores them afterwards; nothing under
``src/`` changes. A span records name, start, end, parent span and the
chunk seq it belongs to. Spans stay in memory; :meth:`Tracer.write`
emits them once, as Chrome trace-event JSON.

Calls made in forked shard workers (the process backend) are not
visible here; for those layers the benchmark reads the program's
``metrics_snapshot()`` counters and ``phase.*`` timers instead. The
one exception is ``ShardWorker.handle``: its wrapper also feeds a
per-worker timer (``bench.handle.w<id>``) into the worker's own
registry, so per-shard engine time survives the snapshot merge.
The wrappers are installed before the service is built, so forked
workers inherit them; spans are only recorded in the tracing process.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    seq: int
    tid: int
    count: int = 0  # layer-specific work count (windows, related queries)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        self.seq = -1
        self.since = 0  # spans before this index belong to set-up/warm-up
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Time the enclosed block; yields the span (set ``count`` on it)."""
        stack = self._stack()
        with self._lock:
            sid = len(self.spans)
            record = Span(sid, name, self.clock(), 0.0,
                          stack[-1] if stack else -1, self.seq,
                          threading.get_ident())
            self.spans.append(record)
        stack.append(sid)
        try:
            yield record
        finally:
            stack.pop()
            record.end = self.clock()

    def mark(self) -> None:
        """Start the timed part: analysis ignores earlier spans."""
        self.since = len(self.spans)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Per span name: summed duration minus direct children's."""
        timed = self.spans[self.since:]
        child = defaultdict(float)
        for span in timed:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        totals: Dict[str, float] = defaultdict(float)
        for span in timed:
            totals[span.name] += span.end - span.start - child[span.sid]
        return dict(totals)

    def stats(self, name: str):
        """``(calls, total seconds, summed count)`` of timed spans."""
        chosen = [s for s in self.spans[self.since:] if s.name == name]
        return (len(chosen), sum(s.end - s.start for s in chosen),
                sum(s.count for s in chosen))

    def write(self, path: Path) -> None:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        tids = {}
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.tid, len(tids))
            events.append({
                "name": span.name, "cat": span.name.split(".")[0], "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": self.pid, "tid": tid,
                "args": {"id": span.sid, "parent": span.parent,
                         "seq": span.seq, "count": span.count},
            })
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}
        ))


# ----------------------------------------------------------------------
# instrumentation
# ----------------------------------------------------------------------


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, count=None):
    original = cls.__dict__[attr]
    if isinstance(original, classmethod):
        func = original.__func__

        def wrapped_cm(klass, *args, **kwargs):
            if os.getpid() != tracer.pid:
                return func(klass, *args, **kwargs)
            with tracer.span(name) as span:
                result = func(klass, *args, **kwargs)
                if count is not None:
                    span.count = count(result, *args)
            return result

        setattr(cls, attr, classmethod(wrapped_cm))
    else:
        def wrapped(self, *args, **kwargs):
            if os.getpid() != tracer.pid:
                return original(self, *args, **kwargs)
            with tracer.span(name) as span:
                result = original(self, *args, **kwargs)
                if count is not None:
                    span.count = count(result, *args)
            return result

        setattr(cls, attr, wrapped)
    return cls, attr, original


def _wrap_function(tracer: Tracer, module, attr: str, name, count=None,
                   materialize=False):
    original = getattr(module, attr)

    def wrapped(*args, **kwargs):
        if os.getpid() != tracer.pid:
            return original(*args, **kwargs)
        label = name(*args) if callable(name) else name
        with tracer.span(label) as span:
            result = original(*args, **kwargs)
            if materialize:  # a generator does its work when consumed
                result = list(result)
            if count is not None:
                span.count = count(result, *args)
        return iter(result) if materialize else result

    setattr(module, attr, wrapped)
    return module, attr, original


def _handle_with_worker_timer(tracer: Tracer, cls):
    """``ShardWorker.handle``: a span in-process, and in every process a
    ``bench.handle.w<id>`` timer in the worker's own registry."""
    original = cls.__dict__["handle"]

    def wrapped(self, message):
        if not message or message[0] not in ("batch", "batch_shm", "flush"):
            return original(self, message)
        with self.registry.phase(f"bench.handle.w{self.worker_id}"):
            if os.getpid() != tracer.pid:
                return original(self, message)
            with tracer.span("engine"):
                return original(self, message)

    cls.handle = wrapped
    return cls, "handle", original


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on each layer's entry points; restore on exit."""
    import repro.core.context as context_mod
    import repro.features.dc_extract as dc_extract
    from repro.archive.backfill import BackfillEngine
    from repro.archive.ring import SketchArchive
    from repro.features.pipeline import FingerprintExtractor
    from repro.index.hq import HashQueryIndex
    from repro.ingest.decoder import ResilientDecoder
    from repro.partition.gridpyramid import GridPyramidPartitioner
    from repro.serve.collector import MatchCollector
    from repro.serve.frontend import StreamFrontend
    from repro.serve.workers import ShardWorker

    patches = [
        _handle_with_worker_timer(tracer, ShardWorker),
        _wrap_function(
            tracer, dc_extract, "decode_dc_coefficients",
            lambda video, *a: (
                "codec.entropy" if video.entropy_coding else "codec.plain"
            ),
            count=lambda grids, *a: len(grids), materialize=True,
        ),
        _wrap_method(tracer, FingerprintExtractor, "features_from_encoded",
                     "features", count=lambda out, *a: len(out)),
        _wrap_method(tracer, GridPyramidPartitioner, "cell_ids",
                     "partition", count=lambda out, *a: len(out)),
        _wrap_method(tracer, ResilientDecoder, "decode_chunk", "ingest",
                     count=lambda out, *a: int(out.clean)),
        _wrap_method(tracer, StreamFrontend, "build", "frontend",
                     count=lambda batch, *a: batch.num_windows),
        _wrap_function(tracer, context_mod, "probe_index", "index.probe",
                       count=lambda related, *a: len(related)),
        _wrap_method(tracer, MatchCollector, "merge", "collector"),
        _wrap_method(tracer, HashQueryIndex, "build", "index.build"),
        _wrap_method(tracer, SketchArchive, "append", "archive.append",
                     count=lambda new, *a: int(new)),
        # The unit of work of both the backfill thread and the public
        # ``pump`` (which runs only in synchronous mode).
        _wrap_method(tracer, BackfillEngine, "_probe_slice", "backfill",
                     count=lambda windows, *a: int(windows)),
    ]
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
