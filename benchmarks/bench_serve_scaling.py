"""Serving scalability benchmark: throughput vs worker count.

Measures end-to-end stream throughput (key frames/second through
``DetectionService.run``) across a query sweep (16 / 64 / 256 queries),
worker counts 1 / 2 / 4 and the serial / thread / process backends,
against the single-process ``StreamingDetector`` + ``LiveMonitor``
baseline. Every configuration detects the same copies — shard
transparency is enforced by ``tests/test_serve_equivalence.py`` — so
the only variable here is wall-clock.

Each row also records:

* a **per-phase breakdown** from the merged cross-worker timers —
  front-end sketching (``phase.frontend``, service side, counted once)
  vs the workers' own window sketching (``phase.sketch``, summed over
  shards) vs candidate combine/prune/score work vs transport
  (backpressure-blocked seconds, shm/inline bytes);
* the measured **sketch replication factor**: worker-side sketch passes
  per stream chunk. The service's front end sketches every window once,
  so this stays 0 — workers never redo the stream-side work of the
  paper's Section IV, whatever the worker count.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve_scaling.py [--quick]
    PYTHONPATH=src python benchmarks/bench_serve_scaling.py --gate

``--gate`` is the CI scaling check: on the full-size workload at the
largest query count, 4 process workers must beat 1 (soft threshold,
one retry — machine noise happens on shared runners); exit code 1
when they do not. On a single-core host the comparison is physically
meaningless (four processes time-slice one CPU), so the gate prints a
loud SKIP and exits 0 instead of failing spuriously.

Writes ``BENCH_SERVE.json`` at the repository root (override with
``--output``). Standalone CLI, not a pytest module; the rows feed
docs/serving.md and the CI serve-smoke / serve-scaling steps.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.config import DetectorConfig
from repro.core.detector import StreamingDetector
from repro.core.live import LiveMonitor
from repro.core.query import QuerySet
from repro.minhash.family import MinHashFamily
from repro.serve import DetectionService

BENCH_SEED = 20080407  # ICDE 2008 in Cancún
KEYFRAMES_PER_SECOND = 2.0
WINDOW_SECONDS = 5.0
TEMPO_SCALE = 2.0
THRESHOLD = 0.7
CELL_ID_SPACE = 40_960  # 2 d u^d with d=5, u=4
QUERY_SECONDS = (40.0, 60.0)
CHUNK_WINDOWS = 8  # stream chunk = 8 basic windows
QUERY_SWEEP = (16, 64, 256)
GATE_RATIO = 1.0  # 4 workers must (softly) beat 1


def build_workload(rng: np.random.Generator, num_queries: int,
                   stream_frames: int):
    """Query cell-id sets and a chunked stream with embedded copies."""
    frames_min = int(QUERY_SECONDS[0] * KEYFRAMES_PER_SECOND)
    frames_max = int(QUERY_SECONDS[1] * KEYFRAMES_PER_SECOND)
    cell_ids: Dict[int, np.ndarray] = {}
    frame_counts: Dict[int, int] = {}
    for qid in range(num_queries):
        n = int(rng.integers(frames_min, frames_max + 1))
        cell_ids[qid] = rng.integers(0, CELL_ID_SPACE, size=n)
        frame_counts[qid] = n
    stream = rng.integers(0, CELL_ID_SPACE, size=stream_frames)
    for qid in (0, num_queries // 2):
        copy = np.asarray(cell_ids[qid])
        at = int(rng.integers(0, stream_frames - copy.size))
        stream[at : at + copy.size] = copy
    window_frames = max(1, round(WINDOW_SECONDS * KEYFRAMES_PER_SECOND))
    chunk_frames = CHUNK_WINDOWS * window_frames
    chunks = [
        stream[offset : offset + chunk_frames]
        for offset in range(0, stream_frames, chunk_frames)
    ]
    return cell_ids, frame_counts, chunks


def run_baseline(config, queries, chunks) -> Dict[str, object]:
    """Single-process reference: detector + live monitor, no service."""
    detector = StreamingDetector(config, queries, KEYFRAMES_PER_SECOND)
    monitor = LiveMonitor(detector)
    start = time.perf_counter()
    matches = []
    for chunk in chunks:
        matches.extend(monitor.push_cell_ids(chunk))
    matches.extend(monitor.flush())
    elapsed = time.perf_counter() - start
    frames = sum(len(chunk) for chunk in chunks)
    return {
        "matches": len(matches),
        "elapsed_s": elapsed,
        "frames_per_sec": frames / elapsed if elapsed > 0 else 0.0,
    }


def run_service(config, queries, chunks, workers,
                backend) -> Dict[str, object]:
    """One timed service pass (construction excluded, like the baseline).

    Returns throughput plus the merged per-phase / transport breakdown
    and the measured worker-side sketch replication factor.
    """
    service = DetectionService(
        config, queries, KEYFRAMES_PER_SECOND,
        num_workers=workers, backend=backend,
    )
    try:
        start = time.perf_counter()
        matches = service.run(chunks)
        elapsed = time.perf_counter() - start
        snapshot = service.metrics_snapshot()
    finally:
        service.close()
    frames = sum(len(chunk) for chunk in chunks)
    timers = snapshot["timers"]
    counters = snapshot["counters"]

    def seconds(name):
        return round(timers.get(name, {}).get("seconds", 0.0), 6)

    blocked = sum(
        entry["seconds"] for name, entry in timers.items()
        if name.startswith("serve.blocked.")
    )
    worker_sketch_calls = timers.get("phase.sketch", {}).get("calls", 0)
    return {
        "matches": len(matches),
        "elapsed_s": elapsed,
        "frames_per_sec": frames / elapsed if elapsed > 0 else 0.0,
        "phases": {
            "frontend_s": seconds("phase.frontend"),
            "worker_sketch_s": seconds("phase.sketch"),
            "combine_s": seconds("phase.combine"),
            "prune_s": seconds("phase.prune"),
            "probe_s": seconds("phase.probe"),
            "match_emit_s": seconds("phase.match_emit"),
        },
        "transport": {
            "kind": snapshot["serve"]["transport"],
            "batches": counters.get("serve.transport.batches", 0),
            "windows": counters.get("serve.transport.windows", 0),
            "shm_bytes": counters.get("serve.transport.shm_bytes", 0),
            "inline_bytes": counters.get("serve.transport.inline_bytes", 0),
            "shm_waits": counters.get("serve.transport.shm_waits", 0),
            "blocked_s": round(blocked, 6),
        },
        # Worker-side stream sketch passes per chunk: 0, because the
        # front end pays exactly one pass per batch (phase.frontend).
        "sketch_replication": (
            round(worker_sketch_calls / len(chunks), 3) if chunks else 0.0
        ),
    }


def best_of(repeats, sample_fn):
    best = None
    for _ in range(repeats):
        sample = sample_fn()
        if best is None or sample["frames_per_sec"] > best["frames_per_sec"]:
            best = sample
    return best


def run_sweep(args, sweep, worker_counts, backends, repeats,
              stream_frames, num_hashes) -> List[Dict[str, object]]:
    results: List[Dict[str, object]] = []
    for num_queries in sweep:
        rng = np.random.default_rng(BENCH_SEED)
        cell_ids, frame_counts, chunks = build_workload(
            rng, num_queries, stream_frames
        )
        config = DetectorConfig(
            num_hashes=num_hashes,
            threshold=THRESHOLD,
            window_seconds=WINDOW_SECONDS,
            tempo_scale=TEMPO_SCALE,
        )
        family = MinHashFamily(num_hashes=num_hashes, seed=BENCH_SEED)

        def fresh_queries() -> QuerySet:
            # Detectors mutate their QuerySet on churn; rebuild per run.
            return QuerySet.from_cell_ids(cell_ids, frame_counts, family)

        baseline = best_of(
            repeats, lambda: run_baseline(config, fresh_queries(), chunks)
        )
        results.append({
            "backend": "baseline", "workers": 1,
            "num_queries": num_queries, **baseline,
        })
        print(f"q={num_queries:<4d} {'baseline':>12s} w=1 "
              f"{baseline['frames_per_sec']:>10.1f} frames/s "
              f"({baseline['matches']} matches)")

        for backend in backends:
            for workers in worker_counts:
                best = best_of(repeats, lambda: run_service(
                    config, fresh_queries(), chunks, workers, backend,
                ))
                if best["matches"] != baseline["matches"]:
                    raise SystemExit(
                        f"{backend}/w={workers} found {best['matches']} "
                        f"matches, baseline {baseline['matches']} — "
                        "shard transparency violated"
                    )
                results.append({
                    "backend": backend, "workers": workers,
                    "num_queries": num_queries, **best,
                })
                print(
                    f"q={num_queries:<4d} {backend:>12s} w={workers} "
                    f"{best['frames_per_sec']:>10.1f} frames/s "
                    f"(x{best['frames_per_sec'] / baseline['frames_per_sec']:.2f}"
                    f" vs baseline, sketch-rep "
                    f"{best['sketch_replication']:.1f}, "
                    f"frontend {best['phases']['frontend_s']:.3f}s)"
                )
    return results


def available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_gate(stream_frames, num_hashes, num_queries) -> int:
    """CI check: 4 process workers must beat 1 at the largest sweep
    point. Soft threshold with one retry to ride out runner noise."""
    cores = available_cores()
    if cores < 2:
        print(
            f"gate: SKIP — only {cores} CPU core(s) available; "
            "multi-worker wall-clock cannot beat one worker on a "
            "single core (the scaling gate needs a multi-core runner)"
        )
        return 0
    rng = np.random.default_rng(BENCH_SEED)
    cell_ids, frame_counts, chunks = build_workload(
        rng, num_queries, stream_frames
    )
    config = DetectorConfig(
        num_hashes=num_hashes, threshold=THRESHOLD,
        window_seconds=WINDOW_SECONDS, tempo_scale=TEMPO_SCALE,
    )
    family = MinHashFamily(num_hashes=num_hashes, seed=BENCH_SEED)

    def attempt() -> float:
        rates = {}
        for workers in (1, 4):
            queries = QuerySet.from_cell_ids(cell_ids, frame_counts, family)
            sample = run_service(
                config, queries, chunks, workers, "process"
            )
            rates[workers] = sample["frames_per_sec"]
            print(f"gate: process w={workers} "
                  f"{sample['frames_per_sec']:>10.1f} frames/s")
        return rates[4] / rates[1]

    for round_index in (1, 2):
        ratio = attempt()
        print(f"gate: attempt {round_index} ratio x{ratio:.2f} "
              f"(need > x{GATE_RATIO:.2f})")
        if ratio > GATE_RATIO:
            print("gate: PASS — sharding scales past one worker")
            return 0
        if round_index == 1:
            print("gate: below threshold, retrying once")
    print("gate: FAIL — 4 process workers did not beat 1")
    return 1


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small stream, short sweep, one repeat",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="CI scaling gate: quick workload, process backend only; "
        "exit 1 unless 4 workers beat 1 (one retry)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_SERVE.json",
        help="where to write the JSON report (default: repo root)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per configuration (best is kept)",
    )
    args = parser.parse_args(argv)

    if args.gate:
        # Full-size workload: per-window query work must dominate IPC
        # for the worker-count comparison to measure anything real.
        return run_gate(4800, 400, max(QUERY_SWEEP))

    quick = args.quick
    stream_frames = 800 if quick else 4800
    num_hashes = 128 if quick else 400
    sweep = (16, 256) if quick else QUERY_SWEEP
    repeats = args.repeats or 1
    worker_counts = [1, 2] if quick else [1, 2, 4]
    backends = ["serial", "process"] if quick else [
        "serial", "thread", "process"
    ]

    results = run_sweep(
        args, sweep, worker_counts, backends, repeats,
        stream_frames, num_hashes,
    )
    report = {
        "benchmark": "serve_scaling",
        "seed": BENCH_SEED,
        "quick": args.quick,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        # Wall-clock worker scaling is bounded by this: on a 1-core
        # host every multi-worker row necessarily trails 1 worker and
        # the scaling story lives in sketch_replication / phases.
        "cpu_cores": available_cores(),
        "workload": {
            "keyframes_per_second": KEYFRAMES_PER_SECOND,
            "window_seconds": WINDOW_SECONDS,
            "tempo_scale": TEMPO_SCALE,
            "threshold": THRESHOLD,
            "num_hashes": num_hashes,
            "query_sweep": list(sweep),
            "stream_frames": stream_frames,
            "chunk_windows": CHUNK_WINDOWS,
            "query_seconds": list(QUERY_SECONDS),
            "repeats": repeats,
        },
        "results": results,
    }
    args.output.write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
