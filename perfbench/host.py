"""The process that hosts the system under test for one phase of a run.

``run.py`` starts this script once per phase with a JSON request on
stdin, so each phase gets a fresh process: its peak RSS (``VmHWM``)
then belongs to that phase's system alone, not to the generator of the
inputs or the serial reference. Replies are JSON lines on stdout.

Phases
------
``segments`` build the system, warm up, then drive the workload's plan:
             closed segments push chunks as fast as BLOCK backpressure
             admits, open ones push each chunk at its due time.
``closed``   the same with one closed segment over every chunk, flush
             (and backfill drain) included in its wall time.
``setup``    build the system and close it (one more ``setup_s`` sample).
``encoded``  the in-process twin of the gateway path: ``ResilientDecoder``
             then a serial ``DetectionService``, closed loop.
``gateway``  build a ``GatewayServer`` over a serial service, reply with
             its port, then serve until ``stop`` arrives on stdin.

With ``"trace": true`` the layer wrappers of :mod:`tracing` are in place
from before the build, spans are written as Chrome trace-event JSON to
``trace_path``, and span summaries ride along in the reply.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import inputs as inputs_mod  # noqa: E402
import loadgen  # noqa: E402
import tracing  # noqa: E402
from inputs import KEYFRAMES_PER_SECOND, WORKLOADS  # noqa: E402

from repro.archive import SketchArchive  # noqa: E402
from repro.core.query import Query  # noqa: E402
from repro.gateway import AdminClient, GatewayServer  # noqa: E402
from repro.ingest.decoder import ResilientDecoder  # noqa: E402
from repro.ingest.sources import StreamChunk  # noqa: E402
from repro.features.pipeline import FingerprintExtractor  # noqa: E402
from repro.serve import DetectionService  # noqa: E402


def reply(payload: Dict) -> None:
    sys.stdout.write(json.dumps(payload, default=str) + "\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------


def _children(pid: int) -> List[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text().split()
        found.extend(int(child) for child in text)
    return found


def hosted_pids() -> List[int]:
    """This process plus the shard workers it forked (not the
    multiprocessing resource tracker, which hosts none of the system)."""
    pids = [os.getpid()]
    for child in _children(os.getpid()):
        try:
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"resource_tracker" not in cmdline:
            pids.append(child)
    return pids


def vm_hwm_mb(pids: List[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            for line in Path(f"/proc/{pid}/status").read_text().splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# building the system
# ----------------------------------------------------------------------


def timed_setup(build):
    """Build the system and close ``setup_s`` on a round trip that every
    worker answers (``metrics_snapshot``), not on the constructor: the
    process backend's workers build their index after the fork."""
    started = time.perf_counter()
    system = build()
    system.metrics_snapshot()
    return system, time.perf_counter() - started


def build_service(inputs) -> DetectionService:
    workload = inputs.workload
    family = inputs.family()
    archive = None
    if workload.archive:
        # Memory-only; segments far larger than a run keep every window.
        archive = SketchArchive(family.fingerprint, workload.num_hashes,
                                segment_windows=1 << 16)
    return DetectionService(
        workload.config(),
        inputs.query_set(family, inputs.resident()),
        KEYFRAMES_PER_SECOND,
        num_workers=workload.num_workers,
        backend=workload.backend,
        sketch_once=True,
        archive=archive,
        supervise=workload.supervise,
    )


class Lifecycle:
    """Applies the workload's subscribe/unsubscribe script at chunk
    boundaries and times each call."""

    def __init__(self, inputs, service: DetectionService) -> None:
        self.inputs = inputs
        self.service = service
        self.family = service.family
        self.at: Dict[int, List] = {}
        for before, op, qid in inputs.ops:
            self.at.setdefault(int(before), []).append((int(op), int(qid)))
        self.latencies: List[float] = []

    def before(self, chunk: int) -> None:
        for op, qid in self.at.get(chunk, ()):
            if op == 1:
                cells = self.inputs.queries[qid]
                distinct = np.unique(cells)
                query = Query(qid=qid, cell_ids=distinct,
                              num_frames=int(cells.size),
                              sketch=self.family.sketch(distinct))
                started = time.perf_counter()
                self.service.subscribe(query,
                                       backfill=self.inputs.workload.backfill)
            else:
                started = time.perf_counter()
                self.service.unsubscribe(qid)
            self.latencies.append(time.perf_counter() - started)


def match_list(matches) -> List[List]:
    return inputs_mod.match_rows(matches).tolist()


# ----------------------------------------------------------------------
# in-process phases
# ----------------------------------------------------------------------


def run_inprocess(request: Dict) -> Dict:
    workload = WORKLOADS[request["workload"]]
    inputs = inputs_mod.load_inputs(workload, request["seed"],
                                    request["seconds"], log=_log)
    phase = request["phase"]
    tracer = tracing.Tracer() if request.get("trace") else None
    scope = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
    with scope:
        service, setup_s = timed_setup(lambda: build_service(inputs))
        result: Dict = {"setup_s": setup_s}
        try:
            if phase != "setup":
                plan = phase_plan(inputs, phase, request["seconds"])
                result.update(_drive(inputs, service, plan, tracer))
            result["snapshot"] = service.metrics_snapshot()
            result["rss_mb"] = vm_hwm_mb(hosted_pids())
        finally:
            service.close()
    if tracer is not None:
        _finish_trace(tracer, request, result)
    return result


def phase_plan(inputs, phase: str, seconds: float) -> List:
    """``segments``: the workload's alternating plan; ``closed``: one
    closed segment over every chunk after the warm-up."""
    workload = inputs.workload
    if phase == "segments":
        return workload.plan(seconds)
    return [("closed", workload.warm_chunks, len(inputs.chunks))]


def plan_reply(result: loadgen.PlanResult) -> Dict:
    positions = sorted(result.open)
    return {
        "closed": result.closed,
        "open_positions": positions,
        "due": [result.open[p][0] for p in positions],
        "done": [result.open[p][1] for p in positions],
        "late_s_max": result.late_s_max,
    }


def _drive(inputs, service, plan, tracer) -> Dict:
    workload = inputs.workload
    lifecycle = Lifecycle(inputs, service)
    warm = workload.warm_chunks
    for position in range(warm):
        lifecycle.before(position)
        service.run([inputs.chunks[position]], flush=False)
    if tracer is not None:
        tracer.mark()
    # service.matches is the concatenation of what each run() call
    # returned, so (return time, count) per call tells when every match
    # reached its consumer.
    calls = [[None, len(service.matches)]]  # warm-up: never timed

    def send(position: int):
        # A chunk's lifecycle ops run when it is sent, before it, so
        # its latency includes the barrier they impose.
        lifecycle.before(position)
        if tracer is not None:
            tracer.seq = position
        got = service.run([inputs.chunks[position]], flush=False)
        now = time.perf_counter()
        calls.append([now, len(got)])
        return [(position, now)]

    started = time.perf_counter()
    result = loadgen.run_plan(plan, workload.chunk_frames / workload.rate_kf_s,
                              send)
    tail = service.flush()
    calls.append([time.perf_counter(), len(tail)])
    service.drain_backfill()
    out: Dict = plan_reply(result)
    out["wall_s"] = time.perf_counter() - started  # flush and backfill included
    out["timed_chunks"] = plan[-1][2] - plan[0][1]
    out["timed_frames"] = out["timed_chunks"] * workload.chunk_frames
    out["delivered_at"] = [at for at, count in calls for _ in range(count)]
    out["live"] = match_list(service.matches)
    out["retro"] = match_list(service.retro_matches)
    out["lifecycle_s"] = lifecycle.latencies
    return out


def run_encoded(request: Dict) -> Dict:
    """Decode each encoded chunk with ``ResilientDecoder`` and feed the
    ids to a serial service: the gateway's work without the socket."""
    workload = WORKLOADS[request["workload"]]
    inputs = inputs_mod.load_inputs(workload, request["seed"],
                                    request["seconds"], log=_log)
    pool = inputs_mod.load_pool(workload, log=_log)
    videos = inputs_mod.encoded_chunks(inputs, pool)
    tracer = tracing.Tracer() if request.get("trace") else None
    scope = tracing.instrument(tracer) if tracer else contextlib.nullcontext()
    decoder = ResilientDecoder(FingerprintExtractor())
    with scope:
        service, setup_s = timed_setup(lambda: build_service(inputs))
        try:
            clean = 0

            def feed(position: int) -> None:
                nonlocal clean
                decoded = decoder.decode_chunk(StreamChunk(
                    stream_id=0, seq=position, payload=videos[position]))
                clean += int(decoded.clean)
                ids = np.concatenate(
                    [cells for _, cells in decoded.segments])
                service.run([ids], flush=False)

            for position in range(workload.warm_chunks):
                feed(position)
            if tracer is not None:
                tracer.mark()
            started = time.perf_counter()
            for position in range(workload.warm_chunks, len(videos)):
                if tracer is not None:
                    tracer.seq = position
                feed(position)
            service.flush()
            wall = time.perf_counter() - started
            result = {
                "setup_s": setup_s, "wall_s": wall,
                "timed_chunks": len(videos) - workload.warm_chunks,
                "clean_chunks": clean, "chunks": len(videos),
                "live": match_list(service.matches),
                "snapshot": service.metrics_snapshot(),
            }
        finally:
            service.close()
    if tracer is not None:
        _finish_trace(tracer, request, result)
    return result


def _finish_trace(tracer: tracing.Tracer, request: Dict, result: Dict) -> None:
    tracer.write(Path(request["trace_path"]))
    names = sorted({span.name for span in tracer.spans})
    result["spans"] = {name: tracer.stats(name) for name in names}
    result["self_s"] = tracer.self_times()


# ----------------------------------------------------------------------
# gateway host
# ----------------------------------------------------------------------


def run_gateway(request: Dict) -> None:
    workload = WORKLOADS[request["workload"]]
    inputs = inputs_mod.load_inputs(workload, request["seed"],
                                    request["seconds"], log=_log)
    handle = None

    def build():
        nonlocal handle
        service = build_service(inputs)
        # The extractor is passed explicitly: left out, the server's
        # decoder has none and refuses every encoded chunk.
        server = GatewayServer(service, credits=8,
                               extractor=FingerprintExtractor())
        handle = server.run_in_thread()
        return _AdminRoundTrip(handle.port)

    admin, setup_s = timed_setup(build)
    try:
        reply({"port": handle.port, "setup_s": setup_s})
        for line in sys.stdin:
            command = line.strip()
            if command == "stats":
                reply({"snapshot": admin.metrics_snapshot(),
                       "rss_mb": vm_hwm_mb(hosted_pids())})
            elif command == "stop":
                break
    finally:
        admin.close()
        handle.stop()
        handle.server.service.close()
    reply({"stopped": True})


class _AdminRoundTrip:
    """The gateway's admin ``stats`` op: one round trip through the
    socket, the service thread and every worker."""

    def __init__(self, port: int) -> None:
        self.client = AdminClient("127.0.0.1", port)

    def metrics_snapshot(self) -> Dict:
        return self.client.stats()

    def close(self) -> None:
        self.client.close()


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def main() -> int:
    request = json.loads(sys.stdin.readline())
    phase = request["phase"]
    if phase == "gateway":
        run_gateway(request)
    elif phase == "encoded":
        reply(run_encoded(request))
    else:
        reply(run_inprocess(request))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
