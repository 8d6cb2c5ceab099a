"""Workload definitions, input generation, the serial reference and the cache.

Everything the system under test receives is made here from ``--seed``:
query cell ids, the chunked stream (cell ids, and for ``encoded-gateway``
the encoded bitstreams), the lifecycle script, the ground truth of the
planted copies, and the match stream of the serial reference
(``StreamingDetector`` + ``LiveMonitor``) over the same cell ids.

Generated inputs are cached under ``perfbench/.cache``. A cache file is
keyed by workload, seed, generator parameters and a digest of the
program's source tree (the reference matches are the program's own
output), and carries a SHA-256 digest of its arrays that is checked on
every load. Encoding video costs ~20 ms per key frame on a 2-core host,
so ``encoded-gateway`` draws its chunks from a seed-independent pool of
encoded clips that is built once per checkout; the seed picks which
clips form the stream, in which order, and which of them the queries
copy.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CACHE_DIR = BENCH_DIR / ".cache"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.codec.gop import EncodedVideo, encode_video  # noqa: E402
from repro.config import DetectorConfig  # noqa: E402
from repro.core.detector import StreamingDetector  # noqa: E402
from repro.core.live import LiveMonitor  # noqa: E402
from repro.core.query import QuerySet  # noqa: E402
from repro.features.pipeline import FingerprintExtractor  # noqa: E402
from repro.ingest.sources import INGEST_FORMAT  # noqa: E402
from repro.minhash.family import MinHashFamily  # noqa: E402
from repro.utils.rng import derive_seed  # noqa: E402
from repro.video.synth import ClipSynthesizer, SynthesisConfig  # noqa: E402

KEYFRAMES_PER_SECOND = INGEST_FORMAT.fps / 6  # GOP 6 at 12 fps -> 2 kf/s
GOP_SIZE = 6
CELL_SPACE = 40_960  # 2 * d * u**d cells for d=5, u=4
MIN_OPEN_CHUNKS = 200  # >= 10 samples beyond p95
OPEN_SEGMENT = 100  # chunks per open segment
POOL_SEED = 20080407
POOL_CLIPS = 256

MATCH_FIELDS = ("qid", "window_index", "start_frame", "end_frame", "similarity")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: its system shape and its input shape.

    ``rate_kf_s`` is the open-loop rate, a fixed number so that later
    changes are compared at the same offered load (see README.md for how
    each was chosen).
    """

    name: str
    kind: str  # "encoded" (gateway over a child process) or "cells"
    num_queries: int
    num_hashes: int
    window_seconds: float
    threshold: float
    chunk_frames: int
    rate_kf_s: float
    backend: str = "serial"
    num_workers: int = 1
    supervise: bool = False
    archive: bool = False
    query_frames: Tuple[int, int] = (60, 100)
    planted: int = 8
    planted_frames: int = 0  # fixed length of planted resident queries
    copies_per_query: int = 1  # encoded: sites each query's copy is planted at
    warm_chunks: int = 4
    closed_segment: int = 100  # chunks per closed segment
    round_seconds: float = 12.0  # one closed plus one open segment, nominal
    setup_repeats: int = 2  # extra set-up-only builds per run
    # churn-backfill: lifecycle script
    op_start: int = 0
    op_every: int = 0
    backfill: int = 0
    late_frames: Tuple[int, int] = (8, 10)

    @property
    def window_frames(self) -> int:
        return max(1, round(self.window_seconds * KEYFRAMES_PER_SECOND))

    def config(self) -> DetectorConfig:
        return DetectorConfig(
            num_hashes=self.num_hashes,
            threshold=self.threshold,
            window_seconds=self.window_seconds,
            vectorized=True,
        )

    def plan(self, seconds: float) -> List[Tuple[str, int, int]]:
        """The timed part of a run as ``(kind, first, end)`` chunk ranges.

        Closed and open segments alternate, closed at both ends, so both
        kinds sample the whole run of a host whose speed drifts. There
        are about ``seconds / round_seconds`` open segments, holding at
        least ``MIN_OPEN_CHUNKS`` chunks between them.
        """
        rounds = max(-(-MIN_OPEN_CHUNKS // OPEN_SEGMENT),
                     int(seconds / self.round_seconds + 0.5))
        plan, first = [], self.warm_chunks
        for kind in ["closed", "open"] * rounds + ["closed"]:
            size = self.closed_segment if kind == "closed" else OPEN_SEGMENT
            plan.append((kind, first, first + size))
            first += size
        return plan

    def num_chunks(self, seconds: float) -> int:
        return self.plan(seconds)[-1][2]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="encoded-gateway",
            kind="encoded",
            num_queries=8,
            num_hashes=256,
            window_seconds=2.5,
            threshold=0.6,
            chunk_frames=10,
            rate_kf_s=150.0,
            # Each site yields match latencies of one chunk, so many sites
            # keep match_latency_p50_ms from resting on a handful of chunks.
            copies_per_query=12,
            # Closed segments twice as long as open ones: on a host
            # whose speed swings within seconds, throughput needs the
            # longer sample.
            closed_segment=200,
            round_seconds=11.0,
        ),
        Workload(
            name="many-queries",
            kind="cells",
            num_queries=2048,
            num_hashes=400,
            window_seconds=5.0,
            threshold=0.7,
            chunk_frames=20,
            rate_kf_s=600.0,
            planted=32,
            setup_repeats=0,  # ~5 s each: the HQ index build
        ),
        Workload(
            name="churn-backfill",
            kind="cells",
            num_queries=256,
            num_hashes=256,
            window_seconds=2.5,
            threshold=0.7,
            chunk_frames=10,
            rate_kf_s=100.0,
            backend="process",
            num_workers=2,
            supervise=True,
            archive=True,
            query_frames=(30, 60),
            round_seconds=11.0,
            planted=16,
            planted_frames=20,
            op_start=7,
            op_every=3,
            backfill=40,
            late_frames=(8, 10),
        ),
    )
}


@dataclass
class Inputs:
    """Everything one run feeds the system, plus what it must answer.

    ``queries`` holds every query ever subscribed (resident ones from
    the start, late ones from their ``ops`` entry). ``ops`` rows are
    ``(before_chunk, op, qid)`` with op 1 = subscribe with backfill,
    2 = unsubscribe. ``truth`` rows are ``(qid, first_frame,
    end_frame)`` (end exclusive) of planted copies. ``reference`` rows
    are the from-start serial reference matches in ``MATCH_FIELDS``
    order.
    """

    workload: Workload
    seed: int
    queries: Dict[int, np.ndarray]
    late: List[int]
    chunks: List[np.ndarray]
    ops: np.ndarray
    truth: np.ndarray
    reference: np.ndarray = field(default_factory=lambda: np.empty((0, 5)))
    pool_index: Optional[np.ndarray] = None  # encoded: pool clip per chunk

    @property
    def family_seed(self) -> int:
        return derive_seed(self.seed, "perfbench-family") % (2**31)

    def family(self) -> MinHashFamily:
        return MinHashFamily(
            num_hashes=self.workload.num_hashes, seed=self.family_seed
        )

    def resident(self) -> Dict[int, np.ndarray]:
        late = set(self.late)
        return {q: c for q, c in self.queries.items() if q not in late}

    def query_set(self, family: MinHashFamily, qids=None) -> QuerySet:
        qids = sorted(self.queries) if qids is None else sorted(qids)
        return QuerySet.from_cell_ids(
            {q: self.queries[q] for q in qids},
            {q: int(self.queries[q].size) for q in qids},
            family,
        )

    def live_start(self, qid: int) -> int:
        """Window index at which late query ``qid`` is subscribed."""
        row = self.ops[(self.ops[:, 1] == 1) & (self.ops[:, 2] == qid)][0]
        frames = int(row[0]) * self.workload.chunk_frames
        return frames // self.workload.window_frames

    def expected(self) -> Tuple[List[tuple], List[tuple]]:
        """The service's expected (live, retro) match keys.

        Resident queries report what the reference reports, up to the
        window at which the script unsubscribes them: the reference keeps
        every query for the whole stream, and a query's matches up to a
        window depend only on the stream up to it. A late query
        subscribed at window ``L`` with backfill ``N`` reports live the
        reference matches whose candidate starts at or after ``L``, and
        retro those starting in ``[L - N, L)`` — the shadow-overlap rule
        of docs/archive.md.
        """
        w = self.workload.window_frames
        cf = self.workload.chunk_frames
        dropped = {int(q): int(at) * cf // w
                   for at, op, q in self.ops if op == 2}
        bounds = {}
        for qid in self.late:
            start = self.live_start(qid)
            bounds[qid] = (
                max(0, start - self.workload.backfill) * w,
                start * w,
            )
        live, retro = [], []
        for row in self.reference:
            key = match_key(row)
            qid = key[0]
            if qid in dropped and key[1] >= dropped[qid]:
                continue
            if qid not in bounds:
                live.append(key)
                continue
            lo, hi = bounds[qid]
            if key[2] >= hi:
                live.append(key)
            elif key[2] >= lo:
                retro.append(key)
        return sorted(live), sorted(retro)


def match_key(row) -> tuple:
    return (int(row[0]), int(row[1]), int(row[2]), int(row[3]), float(row[4]))


def match_rows(matches) -> np.ndarray:
    """Match objects -> ``(M, 5)`` float64 rows in ``MATCH_FIELDS`` order."""
    rows = [[getattr(m, name) for name in MATCH_FIELDS] for m in matches]
    return np.asarray(rows, dtype=np.float64).reshape(-1, 5)


# ----------------------------------------------------------------------
# source digest and cache files
# ----------------------------------------------------------------------


def source_digest() -> str:
    """SHA-256 over the program's Python sources and this generator
    (cache invalidation)."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _array_digest(arrays: Dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(name.encode())
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def save_arrays(path: Path, arrays: Dict[str, np.ndarray], meta: Dict) -> None:
    meta = dict(meta, digest=_array_digest(arrays))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp.npz")
    np.savez(tmp, __meta__=np.frombuffer(json.dumps(meta).encode(), np.uint8),
             **arrays)
    tmp.replace(path)


def load_arrays(path: Path) -> Optional[Tuple[Dict[str, np.ndarray], Dict]]:
    """Arrays and meta of a cache file, or None when absent or corrupt."""
    if not path.exists():
        return None
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files if k != "__meta__"}
            meta = json.loads(archive["__meta__"].tobytes().decode())
    except (OSError, ValueError, KeyError):
        return None
    if meta.get("digest") != _array_digest(arrays):
        return None
    return arrays, meta


def _pack(arrays: Sequence[np.ndarray],
          dtype=np.int64) -> Tuple[np.ndarray, np.ndarray]:
    lengths = np.asarray([a.size for a in arrays], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    flat = np.concatenate(arrays).astype(dtype) if arrays else np.empty(0)
    return flat, offsets


def _unpack(flat: np.ndarray, offsets: np.ndarray) -> List[np.ndarray]:
    return [flat[offsets[i]:offsets[i + 1]] for i in range(offsets.size - 1)]


# ----------------------------------------------------------------------
# the encoded clip pool (encoded-gateway)
# ----------------------------------------------------------------------

_ENCODED_FIELDS = ("width", "height", "block_size", "quality", "gop_size",
                   "num_frames")


@dataclass
class ClipPool:
    """Seed-independent encoded clips of one chunk each.

    Clip ``i`` is entropy-coded when ``i`` is odd, plain otherwise.
    ``cells[i]`` are the extractor's cell ids for clip ``i``.
    """

    videos: List[EncodedVideo]
    cells: List[np.ndarray]


def _pool_path(workload: Workload) -> Path:
    params = (POOL_SEED, POOL_CLIPS, workload.chunk_frames, GOP_SIZE,
              source_digest())
    tag = hashlib.sha256(repr(params).encode()).hexdigest()[:12]
    return CACHE_DIR / f"pool-{tag}.npz"


def load_pool(workload: Workload, log=print) -> ClipPool:
    path = _pool_path(workload)
    loaded = load_arrays(path)
    if loaded is None:
        log(f"# building the encoded clip pool ({POOL_CLIPS} clips, once "
            "per checkout)")
        started = time.perf_counter()
        _build_pool(workload, path)
        log(f"# pool built in {time.perf_counter() - started:.1f}s")
        loaded = load_arrays(path)
        if loaded is None:
            raise RuntimeError(f"clip pool at {path} failed verification")
    arrays, meta = loaded
    data = _unpack(arrays["data"], arrays["data_offsets"])
    cells = _unpack(arrays["cells"], arrays["cell_offsets"])
    videos = []
    for i, blob in enumerate(data):
        fields = dict(zip(_ENCODED_FIELDS, (int(v) for v in arrays["meta"][i])))
        videos.append(EncodedVideo(
            data=blob.tobytes(),
            fps=float(meta["fps"]),
            entropy_coding=bool(i % 2),
            **fields,
        ))
    return ClipPool(videos=videos, cells=cells)


def _build_pool(workload: Workload, path: Path) -> None:
    seconds = workload.chunk_frames / KEYFRAMES_PER_SECOND
    synth = ClipSynthesizer(
        SynthesisConfig(video_format=INGEST_FORMAT), seed=POOL_SEED
    )
    extractor = FingerprintExtractor()
    blobs, cells, metas = [], [], []
    fps = INGEST_FORMAT.fps
    for i in range(POOL_CLIPS):
        clip = synth.generate_clip(seconds, f"pool-{i}")
        video = encode_video(clip.frames, fps=clip.fps, quality=75,
                             gop_size=GOP_SIZE, entropy_coding=bool(i % 2))
        ids = extractor.cell_ids_from_encoded(video)
        if ids.size != workload.chunk_frames:
            raise RuntimeError(f"pool clip {i}: {ids.size} key frames")
        blobs.append(np.frombuffer(video.data, dtype=np.uint8))
        cells.append(ids.astype(np.int64))
        metas.append([getattr(video, name) for name in _ENCODED_FIELDS])
        fps = video.fps
    data, data_offsets = _pack(blobs, dtype=np.uint8)
    flat_cells, cell_offsets = _pack(cells)
    save_arrays(path, {
        "data": data, "data_offsets": data_offsets,
        "cells": flat_cells, "cell_offsets": cell_offsets,
        "meta": np.asarray(metas, dtype=np.int64),
    }, {"fps": fps})


# ----------------------------------------------------------------------
# per-seed generation
# ----------------------------------------------------------------------


def _spread(count: int, lo: int, hi: int, span: int) -> List[int]:
    """``count`` start chunks spread evenly over ``[lo, hi - span]``."""
    room = hi - span - lo
    if room < 0 or count * span > hi - lo:
        raise ValueError("stream too short for the planted copies")
    step = (hi - lo) / count
    return [lo + int(k * step) for k in range(count)]


def _generate_encoded(workload: Workload, seed: int, n_chunks: int,
                      pool: ClipPool) -> Inputs:
    rng = np.random.default_rng(derive_seed(seed, "encoded-gateway"))
    even = rng.permutation(np.arange(0, POOL_CLIPS, 2))
    odd = rng.permutation(np.arange(1, POOL_CLIPS, 2))
    # Position p carries a clip of parity p % 2, so chunks alternate
    # plain and entropy-coded; beyond the pool the order repeats.
    order = np.asarray([
        (even if p % 2 == 0 else odd)[(p // 2) % even.size]
        for p in range(n_chunks)
    ], dtype=np.int64)
    # Each query is the two clips (one plain, one entropy-coded) at its
    # first site; its other sites repeat them.
    sites = _spread(workload.num_queries * workload.copies_per_query,
                    workload.warm_chunks, n_chunks, 3)
    owner = rng.permutation(
        np.repeat(np.arange(workload.num_queries), workload.copies_per_query))
    clips: Dict[int, Tuple[int, int]] = {}
    truth = []
    for qid, start in zip((int(q) for q in owner), sites):
        start += start % 2
        if qid in clips:
            order[start], order[start + 1] = clips[qid]
        else:
            clips[qid] = (int(order[start]), int(order[start + 1]))
        first = start * workload.chunk_frames
        truth.append((qid, first, first + 2 * workload.chunk_frames))
    queries = {qid: np.concatenate([pool.cells[a], pool.cells[b]])
               for qid, (a, b) in sorted(clips.items())}
    return Inputs(
        workload=workload, seed=seed, queries=queries, late=[],
        chunks=[pool.cells[i] for i in order],
        ops=np.empty((0, 3), dtype=np.int64),
        truth=np.asarray(truth, dtype=np.int64), pool_index=order,
    )


def _cells(rng, length: int) -> np.ndarray:
    return rng.integers(0, CELL_SPACE, size=length).astype(np.int64)


def _generate_cells(workload: Workload, seed: int, n_chunks: int) -> Inputs:
    rng = np.random.default_rng(derive_seed(seed, workload.name))
    cf = workload.chunk_frames
    lo, hi = workload.query_frames
    queries = {q: _cells(rng, int(rng.integers(lo, hi + 1)))
               for q in range(workload.num_queries)}
    # The longest resident query is never unsubscribed, so the global
    # candidate horizon (cap_hint) stays constant through the churn and
    # late subscription with backfill stays exact (docs/archive.md).
    queries[0] = _cells(rng, hi)
    stream = _cells(rng, n_chunks * cf)
    op_chunks = (
        list(range(workload.op_start, n_chunks, workload.op_every))
        if workload.op_every else []
    )
    # The script unsubscribes residents 1..reserved (so none of them is
    # planted), then the late queries in the order it subscribed them.
    reserved = min(len(op_chunks), workload.num_queries - 1 - workload.planted)
    planted = [int(q) for q in rng.choice(
        [q for q in queries if q > reserved],
        size=workload.planted, replace=False)]
    if workload.planted_frames:
        # One copy length keeps the detection delay comparable across
        # seeds when the copies are short.
        for qid in planted:
            queries[qid] = _cells(rng, workload.planted_frames)
    if op_chunks:
        # Each op block of ``op_every`` chunks carries a resident copy in
        # its first chunks and the next late query's copy in its last.
        sites = [at - workload.op_every for at in op_chunks
                 if at - workload.op_every >= workload.warm_chunks]
    else:
        span = -(-max(queries[q].size for q in planted) // cf)
        sites = _spread(workload.planted, workload.warm_chunks, n_chunks, span)
    truth = []
    for k, start in enumerate(sites):
        qid = planted[k % len(planted)]
        cells = queries[qid]
        stream[start * cf:start * cf + cells.size] = cells
        truth.append((qid, start * cf, start * cf + cells.size))
    ops = []
    late: List[int] = []
    lo, hi = workload.late_frames
    for k, at in enumerate(op_chunks):
        qid = 100_001 + k
        cells = _cells(rng, int(rng.integers(lo, hi + 1)))
        queries[qid] = cells
        late.append(qid)
        # The copy fills the chunks just before the subscription, well
        # inside the backfill reach.
        first = (at - -(-hi // cf)) * cf
        stream[first:first + cells.size] = cells
        truth.append((qid, first, first + cells.size))
        # Two chunks in three carry a barrier, so chunk latency's p50
        # and p95 both lie inside the mode of the chunks that carry one
        # (the mode of barrier-free chunks varies most between runs).
        ops.append((at, 1, qid))
        gone = k + 1 if k < reserved else 100_001 + k - reserved
        ops.append((at + 1, 2, gone))
    chunks = [stream[i * cf:(i + 1) * cf] for i in range(n_chunks)]
    return Inputs(
        workload=workload, seed=seed, queries=queries, late=late,
        chunks=chunks, ops=np.asarray(ops, dtype=np.int64).reshape(-1, 3),
        truth=np.asarray(truth, dtype=np.int64),
    )


def run_reference(inputs: Inputs) -> Tuple[np.ndarray, float]:
    """Serial ``StreamingDetector`` + ``LiveMonitor`` over the same ids.

    Every query is subscribed from the start (the from-start reference
    of the archive's equivalence rule) and stays subscribed; the matches
    an unsubscribed query would have reported later are set aside by
    ``Inputs.expected``. (Unsubscribing here would cost ~0.1 s per op:
    ``StreamingDetector.unsubscribe`` rebuilds the HQ index caches.)
    """
    workload = inputs.workload
    family = inputs.family()
    detector = StreamingDetector(
        workload.config(), inputs.query_set(family), KEYFRAMES_PER_SECOND
    )
    monitor = LiveMonitor(detector)
    matches = []
    started = time.perf_counter()
    for chunk in inputs.chunks:
        matches.extend(monitor.push_cell_ids(chunk))
    matches.extend(monitor.flush())
    elapsed = time.perf_counter() - started
    return match_rows(matches), elapsed


def _cache_path(workload: Workload, seed: int, n_chunks: int) -> Path:
    params = (dataclasses.astuple(workload), seed, n_chunks, POOL_SEED,
              POOL_CLIPS, source_digest())
    tag = hashlib.sha256(repr(params).encode()).hexdigest()[:12]
    return CACHE_DIR / f"{workload.name}-s{seed}-{tag}.npz"


def load_inputs(workload: Workload, seed: int, seconds: float,
                log=print) -> Inputs:
    """Inputs for one run, from the cache when a verified copy exists."""
    n_chunks = workload.num_chunks(seconds)
    pool = load_pool(workload, log) if workload.kind == "encoded" else None
    path = _cache_path(workload, seed, n_chunks)
    loaded = load_arrays(path)
    if loaded is not None:
        arrays, _ = loaded
        qcells = _unpack(arrays["queries"], arrays["query_offsets"])
        return Inputs(
            workload=workload, seed=seed,
            queries=dict(zip((int(q) for q in arrays["qids"]), qcells)),
            late=[int(q) for q in arrays["late"]],
            chunks=_unpack(arrays["chunks"], arrays["chunk_offsets"]),
            ops=arrays["ops"], truth=arrays["truth"],
            reference=arrays["reference"],
            pool_index=arrays.get("pool_index"),
        )
    started = time.perf_counter()
    if workload.kind == "encoded":
        inputs = _generate_encoded(workload, seed, n_chunks, pool)
    else:
        inputs = _generate_cells(workload, seed, n_chunks)
    inputs.reference, _ = run_reference(inputs)
    qids = sorted(inputs.queries)
    flat_q, q_offsets = _pack([inputs.queries[q] for q in qids])
    flat_c, c_offsets = _pack(inputs.chunks)
    arrays = {
        "chunks": flat_c, "chunk_offsets": c_offsets,
        "queries": flat_q, "query_offsets": q_offsets,
        "qids": np.asarray(qids, dtype=np.int64),
        "late": np.asarray(inputs.late, dtype=np.int64),
        "ops": inputs.ops, "truth": inputs.truth,
        "reference": inputs.reference,
    }
    if inputs.pool_index is not None:
        arrays["pool_index"] = inputs.pool_index
    save_arrays(path, arrays, {"workload": workload.name, "seed": seed})
    log(f"# generated {workload.name} inputs for seed {seed} in "
        f"{time.perf_counter() - started:.1f}s (cached)")
    return inputs


def encoded_chunks(inputs: Inputs, pool: ClipPool) -> List[EncodedVideo]:
    return [pool.videos[int(i)] for i in inputs.pool_index]
