"""One layered benchmark, from encoded bytes to delivered match.

Usage (from the repository root)::

    python3 perfbench/run.py --workload all --seed 1 --seconds 8
    python3 perfbench/run.py --workload many-queries --seed 3 --seconds 8 --trace 1

Each run builds its inputs from ``--seed`` (cached, see ``inputs.py``),
computes the serial reference over the same cell ids, runs the system
in a fresh host process per phase (``host.py``) and checks every match
stream against the reference. It prints each metric by name with its
unit and, as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` a traced run's per-layer metrics.
Any difference from the reference makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

import inputs as inputs_mod  # noqa: E402
import loadgen  # noqa: E402
from inputs import WORKLOADS, Inputs, match_key  # noqa: E402

OUT_DIR = BENCH_DIR / "out"
HOST_TIMEOUT = 170.0

END_TO_END = {
    "throughput_kf_s": "kf/s",
    "chunk_latency_p50_ms": "ms",
    "chunk_latency_p95_ms": "ms",
    "match_latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "recall": "ratio",
    "detect_delay_windows_p50": "windows",
}

PER_LAYER = {
    "codec.plain.kf_s": "kf/s",
    "codec.entropy.kf_s": "kf/s",
    "codec.share": "ratio",
    "features.kf_s": "kf/s",
    "features.share": "ratio",
    "partition.kf_s": "kf/s",
    "partition.share": "ratio",
    "ingest.chunk_ms": "ms",
    "ingest.clean_frac": "ratio",
    "gateway.overhead_ms_per_chunk": "ms",
    "gateway.bytes_in_per_kf": "B/kf",
    "gateway.credit_stalls": "count",
    "frontend.windows_s": "windows/s",
    "frontend.share": "ratio",
    "index.build_s": "s",
    "index.probe_us": "us",
    "index.related_per_probe": "count",
    "index.useful_frac": "ratio",
    "index.insert_ms": "ms",
    "index.remove_ms": "ms",
    "engine.windows_s": "windows/s",
    "engine.probe_s": "s",
    "engine.combine_s": "s",
    "engine.prune_s": "s",
    "engine.emit_s": "s",
    "engine.prune_frac": "ratio",
    "engine.candidates_mean": "count",
    "serve.bytes_per_window": "B/window",
    "serve.blocked_s": "s",
    "serve.shm_waits": "count",
    "serve.barrier_ms": "ms",
    "serve.shard_skew": "ratio",
    "collector.merge_us": "us",
    "supervisor.snapshots": "count",
    "supervisor.restarts": "count",
    "archive.append_us": "us",
    "backfill.windows_s": "windows/s",
    "backfill.retro_matches": "count",
    "lifecycle.p50_ms": "ms",
    "lifecycle.p95_ms": "ms",
    "latency.samples": "count",
    "reference.kf_s": "kf/s",
    "loadgen.late_ms_max": "ms",
    "trace.overhead_frac": "ratio",
}


def log(message: str) -> None:
    print(message, flush=True)


# ----------------------------------------------------------------------
# host processes
# ----------------------------------------------------------------------


class Host:
    """One ``host.py`` process; JSON lines in, JSON lines out."""

    def __init__(self, request: Dict) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "host.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.send(json.dumps(request))

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def read(self, timeout: float = HOST_TIMEOUT) -> Dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError(f"host process gave no reply (exit "
                               f"{self.proc.poll()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def host_phase(inputs: Inputs, seconds: float, phase: str,
               trace_path: Optional[Path] = None) -> Dict:
    request = {"workload": inputs.workload.name, "seed": inputs.seed,
               "seconds": seconds, "phase": phase}
    if trace_path is not None:
        request.update(trace=True, trace_path=str(trace_path))
    host = Host(request)
    try:
        return host.read()
    finally:
        host.close()


# ----------------------------------------------------------------------
# the gateway path: one ingest client, one watcher thread
# ----------------------------------------------------------------------


def gateway_phase(inputs: Inputs, seconds: float, phase: str) -> Dict:
    from repro.gateway import IngestClient, WatchClient
    from host import phase_plan, plan_reply

    workload = inputs.workload
    videos = inputs_mod.encoded_chunks(
        inputs, inputs_mod.load_pool(workload, log))
    host = Host({"workload": workload.name, "seed": inputs.seed,
                 "seconds": seconds, "phase": "gateway"})
    out: Dict = {}
    try:
        ready = host.read()
        out["setup_s"] = ready["setup_s"]
        if phase == "setup":
            host.send("stats")
            out["rss_mb"] = host.read()["rss_mb"]
            return out
        port = ready["port"]
        received: List[Tuple[Dict, float]] = []
        watcher = WatchClient("127.0.0.1", port, credits=1024)

        def watch() -> None:
            for event in watcher.matches():
                received.append((event, time.perf_counter()))

        thread = threading.Thread(target=watch, name="perfbench-watch")
        thread.start()
        client = IngestClient("127.0.0.1", port)
        try:
            for seq in range(workload.warm_chunks):
                client.push_encoded(seq, videos[seq])
            client.drain()
            reader = loadgen.AckReader(client)
            plan = phase_plan(inputs, phase, seconds)
            started = time.perf_counter()
            result = loadgen.run_plan(
                plan, workload.chunk_frames / workload.rate_kf_s,
                lambda seq: reader.send_encoded(seq, videos[seq]),
                reader.poll)
            client.end()
            thread.join(HOST_TIMEOUT)
            out.update(plan_reply(result))
            out["wall_s"] = time.perf_counter() - started
            out["timed_chunks"] = plan[-1][2] - plan[0][1]
            out["timed_frames"] = out["timed_chunks"] * workload.chunk_frames
            out["chunk_failures"] = (len(client.dropped)
                                     + len(client.chunk_errors))
        finally:
            client.close()
            watcher.close()
            thread.join(HOST_TIMEOUT)
        out["live"] = [[e[f] for f in inputs_mod.MATCH_FIELDS]
                       for e, _ in received]
        out["delivered_at"] = [t for _, t in received]
        host.send("stats")
        stats = host.read()
        out["snapshot"] = stats["snapshot"]
        out["rss_mb"] = stats["rss_mb"]
        return out
    finally:
        try:
            host.send("stop")
            host.read()
        except (OSError, RuntimeError, ValueError):
            pass
        host.close()


def run_phase(inputs: Inputs, seconds: float, phase: str) -> Dict:
    if inputs.workload.kind == "encoded":
        return gateway_phase(inputs, seconds, phase)
    return host_phase(inputs, seconds, phase)


# ----------------------------------------------------------------------
# checking and summarising one phase
# ----------------------------------------------------------------------


class Tally:
    """Operations attempted and failed, over every phase of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, inputs: Inputs, name: str, result: Dict) -> None:
        live, retro = inputs.expected()
        mismatched = 0
        for want, key in ((live, "live"), (retro, "retro")):
            got = Counter(match_key(row) for row in result.get(key, []))
            want = Counter(want)
            mismatched += sum(((got - want) + (want - got)).values())
        counters = result.get("snapshot", {}).get("counters", {})
        restarts = int(counters.get("serve.supervisor.restarts", 0))
        chunk_failures = int(result.get("chunk_failures", 0))
        ops = len(result.get("lifecycle_s", []))
        self.attempted += (result.get("timed_chunks", 0)
                           + inputs.workload.warm_chunks
                           + ops + len(live) + len(retro))
        failed = mismatched + restarts + chunk_failures
        self.failed += failed
        if failed:
            self.notes.append(
                f"{name}: {mismatched} match differences, {restarts} "
                f"restarts, {chunk_failures} failed chunks")


def chunk_of_window(inputs: Inputs, window_index: int) -> int:
    last_frame = (window_index + 1) * inputs.workload.window_frames - 1
    return last_frame // inputs.workload.chunk_frames


def match_latencies(inputs: Inputs, result: Dict) -> List[float]:
    """Delivery time minus the due time of the chunk that completed the
    match's last basic window, for matches whose chunk was sent in an
    open segment."""
    due = dict(zip(result["open_positions"], result["due"]))
    latencies = []
    for row, at in zip(result["live"], result["delivered_at"]):
        chunk = chunk_of_window(inputs, int(row[1]))
        if at is not None and chunk in due:
            latencies.append(at - due[chunk])
    return latencies


def recall_and_delay(inputs: Inputs, result: Dict) -> Tuple[float, List[float]]:
    """Share of planted copies reported (live or retro), and for each
    copy the live path detected, the stream time in basic windows from
    the copy's first frame to the end of the window that first reported
    it. (Measured from the copy's last frame instead, most delays are
    negative: the detector reports a copy before it ends.)"""
    w = inputs.workload.window_frames
    late = set(inputs.late)
    found = 0
    delays = []
    for qid, first, end in inputs.truth:
        def overlapping(rows):
            return [r for r in rows if int(r[0]) == qid
                    and r[2] < end and r[3] > first]
        live_hits = overlapping(result["live"])
        if live_hits or overlapping(result.get("retro", [])):
            found += 1
        if live_hits and qid not in late:
            report_end = (min(int(r[1]) for r in live_hits) + 1) * w
            delays.append((report_end - first) / w)
    return found / len(inputs.truth), delays


def median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def end_to_end(inputs: Inputs, seconds: float, tally: Tally) -> Dict:
    # One system runs the whole plan (closed and open segments in
    # turn); set-up-only builds add setup_s samples around it.
    workload = inputs.workload
    before = workload.setup_repeats // 2
    setups = [run_phase(inputs, seconds, "setup")["setup_s"]
              for _ in range(before)]
    main = run_phase(inputs, seconds, "segments")
    tally.check(inputs, "segments", main)
    setups.append(main["setup_s"])
    setups.extend(run_phase(inputs, seconds, "setup")["setup_s"]
                  for _ in range(workload.setup_repeats - before))
    chunk_ms = [(d - t) * 1e3 for d, t in zip(main["done"], main["due"])]
    match_ms = [x * 1e3 for x in match_latencies(inputs, main)]
    recall, delays = recall_and_delay(inputs, main)
    lifecycle_ms = [x * 1e3 for x in main.get("lifecycle_s", [])]
    # Key frames over time, pooled over the closed segments: a median
    # of segment rates flips between the fast and slow spells of a host
    # whose speed swings within seconds.
    closed_chunks = sum(chunks for chunks, _ in main["closed"])
    metrics = {
        "throughput_kf_s": (closed_chunks * workload.chunk_frames
                            / sum(wall for _, wall in main["closed"])),
        "chunk_latency_p50_ms": loadgen.percentile(chunk_ms, 50),
        "chunk_latency_p95_ms": loadgen.percentile(chunk_ms, 95),
        "match_latency_p50_ms": (
            loadgen.percentile(match_ms, 50) if match_ms else 0.0),
        "setup_s": median(setups),
        "peak_rss_mb": main["rss_mb"],
        "recall": recall,
        "detect_delay_windows_p50": median(delays),
    }
    top = loadgen.highest_supported(len(chunk_ms))
    log(f"# {len(main['closed'])} closed segments; open segments: "
        f"{len(chunk_ms)} chunk samples (highest supported percentile "
        f"p{top:g}), {len(match_ms)} match samples, generator late by at "
        f"most {main['late_s_max'] * 1e3:.2f} ms")
    if lifecycle_ms:
        top = loadgen.highest_supported(len(lifecycle_ms))
        log(f"lifecycle_p50_ms = {loadgen.percentile(lifecycle_ms, 50):.4f} ms")
        log(f"lifecycle_p{top:g}_ms = "
            f"{loadgen.percentile(lifecycle_ms, top):.4f} ms"
            f"  (n={len(lifecycle_ms)})")
    return metrics


def layer_probes(inputs: Inputs) -> Dict:
    """Direct calls into the index layer and the serial reference."""
    from repro.index.hq import HashQueryIndex
    from repro.index.probe import probe_index
    from repro.minhash.windows import build_basic_windows

    workload = inputs.workload
    family = inputs.family()
    w = workload.window_frames
    queries = inputs.query_set(family, inputs.resident())
    caps = queries.max_windows_map(w, workload.config().tempo_scale)
    started = time.perf_counter()
    index = HashQueryIndex.build(queries.sketches(), caps)
    build_s = time.perf_counter() - started
    index.warm_caches()
    stream = np.concatenate(inputs.chunks)
    windows = build_basic_windows(stream, w, family, drop_partial=True)
    spans: Dict[int, List[Tuple[int, int]]] = {}
    for row in inputs.reference:
        spans.setdefault(int(row[0]), []).append((int(row[2]), int(row[3])))
    probe_s, related, useful = [], 0, 0
    for window in windows:
        started = time.perf_counter()
        hits = probe_index(window.sketch, index, workload.threshold,
                           prune=True)
        probe_s.append(time.perf_counter() - started)
        related += len(hits)
        lo, hi = window.start_frame, window.start_frame + window.num_frames
        for hit in hits:
            if any(a < hi and b > lo for a, b in spans.get(hit.qid, ())):
                useful += 1
    # Churn inserts the late queries and removes the scripted residents;
    # the other workloads remove and re-insert a few of their queries.
    if inputs.late:
        inserts = inputs.late
        removes = [int(q) for at, op, q in inputs.ops if op == 2]
    else:
        inserts = removes = sorted(inputs.queries)[:8]
    to_insert = inputs.query_set(family, inserts)
    insert_s, remove_s = [], []
    for qid in removes:
        started = time.perf_counter()
        index.remove(qid)
        remove_s.append(time.perf_counter() - started)
    for qid in inserts:
        query = to_insert.get(qid)
        started = time.perf_counter()
        index.insert(qid, query.sketch,
                     query.max_candidate_windows(w, workload.config().tempo_scale))
        insert_s.append(time.perf_counter() - started)
    _, reference_s = inputs_mod.run_reference(inputs)
    frames = sum(c.size for c in inputs.chunks)
    return {
        "index.build_s": build_s,
        "index.probe_us": median(probe_s) * 1e6,
        "index.related_per_probe": related / max(1, len(windows)),
        "index.useful_frac": useful / related if related else 0.0,
        "index.insert_ms": median(insert_s) * 1e3,
        "index.remove_ms": median(remove_s) * 1e3,
        "reference.kf_s": frames / reference_s,
    }


def _timer(snapshot: Dict, name: str) -> float:
    return float(snapshot.get("timers", {}).get(name, {}).get("seconds", 0.0))


def per_layer(inputs: Inputs, seconds: float, tally: Tally, trace_path: Path) -> Dict:
    workload = inputs.workload
    metrics = {name: 0.0 for name in PER_LAYER}
    if workload.kind == "encoded":
        gateway = gateway_phase(inputs, seconds, "closed")
        tally.check(inputs, "gateway-closed", gateway)
        untraced = host_phase(inputs, seconds, "encoded")
        tally.check(inputs, "encoded-untraced", untraced)
        traced = host_phase(inputs, seconds, "encoded", trace_path)
        tally.check(inputs, "encoded-traced", traced)
        gw_counters = gateway["snapshot"]["gateway"]["counters"]
        kf = gateway["timed_frames"] + workload.warm_chunks * workload.chunk_frames
        metrics["gateway.overhead_ms_per_chunk"] = 1e3 * (
            gateway["wall_s"] / gateway["timed_chunks"]
            - untraced["wall_s"] / untraced["timed_chunks"])
        metrics["gateway.bytes_in_per_kf"] = gw_counters.get("gateway.bytes_in", 0) / kf
        metrics["gateway.credit_stalls"] = gw_counters.get("gateway.credit_stalls", 0)
        metrics["ingest.clean_frac"] = untraced["clean_chunks"] / untraced["chunks"]
    else:
        untraced = host_phase(inputs, seconds, "closed")
        tally.check(inputs, "closed-untraced", untraced)
        traced = host_phase(inputs, seconds, "closed", trace_path)
        tally.check(inputs, "closed-traced", traced)
    segments = run_phase(inputs, seconds, "segments")
    tally.check(inputs, "segments", segments)

    wall = traced["wall_s"]
    spans = traced["spans"]
    self_s = traced["self_s"]

    def rate(name: str) -> float:
        calls, total, count = spans.get(name, (0, 0.0, 0))
        return count / total if total else 0.0

    def mean_us(name: str) -> float:
        calls, total, _ = spans.get(name, (0, 0.0, 0))
        return total / calls * 1e6 if calls else 0.0

    codec_self = self_s.get("codec.plain", 0.0) + self_s.get("codec.entropy", 0.0)
    if workload.kind == "encoded":
        metrics["codec.plain.kf_s"] = rate("codec.plain")
        metrics["codec.entropy.kf_s"] = rate("codec.entropy")
        metrics["codec.share"] = codec_self / wall
        _, _, kf = spans.get("features", (0, 0.0, 0))
        metrics["features.kf_s"] = kf / self_s["features"]
        metrics["features.share"] = self_s["features"] / wall
        metrics["partition.kf_s"] = rate("partition")
        metrics["partition.share"] = self_s.get("partition", 0.0) / wall
        metrics["ingest.chunk_ms"] = mean_us("ingest") / 1e3
    metrics["frontend.windows_s"] = rate("frontend")
    metrics["frontend.share"] = self_s.get("frontend", 0.0) / wall
    metrics["collector.merge_us"] = mean_us("collector")
    metrics["archive.append_us"] = mean_us("archive.append")
    metrics["backfill.windows_s"] = rate("backfill")
    metrics["backfill.retro_matches"] = len(traced.get("retro", []))

    snap = traced["snapshot"]
    counters = snap.get("counters", {})
    shard_s = [entry["seconds"] for name, entry in snap.get("timers", {}).items()
               if name.startswith("bench.handle.w")]
    windows = counters.get("engine.windows_processed", 0)
    if shard_s:
        metrics["engine.windows_s"] = windows / statistics.mean(shard_s)
        metrics["serve.shard_skew"] = max(shard_s) / statistics.mean(shard_s)
    metrics["engine.probe_s"] = _timer(snap, "phase.probe")
    metrics["engine.combine_s"] = _timer(snap, "phase.combine")
    metrics["engine.prune_s"] = _timer(snap, "phase.prune")
    metrics["engine.emit_s"] = _timer(snap, "phase.match_emit")
    combines = counters.get("engine.signature_combines", 0)
    metrics["engine.prune_frac"] = (
        counters.get("engine.signature_prunes", 0) / combines if combines else 0.0)
    metrics["engine.candidates_mean"] = float(
        snap.get("distributions", {}).get("engine.candidates_maintained", {})
        .get("mean") or 0.0)
    moved = (counters.get("serve.transport.shm_bytes", 0)
             + counters.get("serve.transport.inline_bytes", 0))
    sent = counters.get("serve.transport.windows", 0)
    metrics["serve.bytes_per_window"] = moved / sent if sent else 0.0
    metrics["serve.blocked_s"] = sum(
        entry["seconds"] for name, entry in snap.get("timers", {}).items()
        if name.startswith("serve.blocked."))
    metrics["serve.shm_waits"] = counters.get("serve.transport.shm_waits", 0)
    metrics["supervisor.snapshots"] = counters.get("serve.supervisor.snapshots", 0)
    metrics["supervisor.restarts"] = counters.get("serve.supervisor.restarts", 0)

    metrics.update(layer_probes(inputs))
    lifecycle_ms = [x * 1e3 for x in
                    untraced.get("lifecycle_s", []) + segments.get("lifecycle_s", [])]
    if lifecycle_ms:
        metrics["lifecycle.p50_ms"] = loadgen.percentile(lifecycle_ms, 50)
        metrics["lifecycle.p95_ms"] = loadgen.percentile(lifecycle_ms, 95)
        metrics["serve.barrier_ms"] = statistics.mean(lifecycle_ms) - statistics.mean(
            [metrics["index.insert_ms"], metrics["index.remove_ms"]])
    metrics["latency.samples"] = len(segments["done"])
    metrics["loadgen.late_ms_max"] = segments["late_s_max"] * 1e3
    metrics["trace.overhead_frac"] = traced["wall_s"] / untraced["wall_s"] - 1.0
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> Tuple[Dict, Tally]:
    workload = WORKLOADS[name]
    if trace:
        # A traced run makes four passes over its stream, so the stream
        # is half as long; its figures have no bound.
        seconds = seconds / 2
    inputs = inputs_mod.load_inputs(workload, seed, seconds, log)
    tally = Tally()
    if trace:
        path = OUT_DIR / f"trace-{name}-s{seed}.json"
        metrics = per_layer(inputs, seconds, tally, path)
        log(f"# spans written to {path.relative_to(BENCH_DIR.parent)}")
        units = PER_LAYER
    else:
        metrics = end_to_end(inputs, seconds, tally)
        units = END_TO_END
    frac = tally.failed / tally.attempted
    log(f"== {name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for key, unit in units.items():
        log(f"{key} = {metrics[key]:.6g} {unit}")
    log(f"failed_frac = {frac:.6g} ratio  ({tally.failed} of "
        f"{tally.attempted} operations)")
    for note in tally.notes:
        log(f"# MISMATCH {note}")
    return {key: {"value": float(metrics[key]), "unit": unit}
            for key, unit in units.items()}, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: Dict = {}
    attempted = failed = 0
    for name in names:
        got, tally = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        if len(names) == 1:
            metrics = got
        else:
            metrics.update({f"{name}/{k}": v for k, v in got.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
