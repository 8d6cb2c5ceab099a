"""Open-loop load generation and the percentile rule.

An open loop sends chunk ``i`` at its due time ``t0 + i * interval``
whether or not the system has finished the earlier ones, so a stall
makes later chunks wait, and every latency is measured from the due
time, not from the moment the chunk was actually sent. How late the
generator itself ran is reported as ``late_ms_max``.

``send(i)`` hands chunk ``i`` to the system. A synchronous system
(``DetectionService.run`` in-process) finishes inside the call, and
``send`` returns ``[(i, finish_time)]``. An asynchronous one (the
gateway) returns ``[]`` and ``poll(timeout)`` later yields the
completions as their acks arrive; ``poll`` blocks for at most
``timeout`` seconds (``None``: until something completes).
"""

from __future__ import annotations

import math
import select
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Completion = Tuple[int, float]


@dataclass
class OpenLoopResult:
    due: List[float]
    sent: List[float]
    done: List[float]

    @property
    def latencies_s(self) -> List[float]:
        return [d - t for d, t in zip(self.done, self.due)]

    @property
    def late_s_max(self) -> float:
        return max(s - t for s, t in zip(self.sent, self.due))


def sleep_poll(timeout: Optional[float]) -> List[Completion]:
    """``poll`` for synchronous sinks: nothing completes in the background."""
    if timeout:
        time.sleep(timeout)
    return []


def open_loop(
    count: int,
    interval: float,
    send: Callable[[int], Iterable[Completion]],
    poll: Callable[[Optional[float]], Iterable[Completion]] = sleep_poll,
    clock: Callable[[], float] = time.perf_counter,
) -> OpenLoopResult:
    """Send ``count`` items at a fixed ``interval``; time each from its due time."""
    start = clock()
    due = [start + i * interval for i in range(count)]
    sent = [0.0] * count
    done: Dict[int, float] = {}
    for i in range(count):
        while True:
            remaining = due[i] - clock()
            if remaining <= 0:
                break
            done.update(poll(remaining))
        sent[i] = clock()
        done.update(send(i))
    while len(done) < count:
        done.update(poll(None))
    return OpenLoopResult(due=due, sent=sent, done=[done[i] for i in range(count)])


@dataclass
class PlanResult:
    """What :func:`run_plan` measured.

    ``closed`` holds ``(chunks, wall_s)`` per closed segment, from its
    first send to its last completion. ``open`` maps each chunk of an
    open segment to ``(due, done)``.
    """

    closed: List[Tuple[int, float]]
    open: Dict[int, Tuple[float, float]]
    late_s_max: float


def run_plan(
    plan: Sequence[Tuple[str, int, int]],
    interval: float,
    send: Callable[[int], Iterable[Completion]],
    poll: Callable[[Optional[float]], Iterable[Completion]] = sleep_poll,
    clock: Callable[[], float] = time.perf_counter,
) -> PlanResult:
    """Drive the ``(kind, first, end)`` chunk ranges of ``plan`` in order.

    A ``"closed"`` segment is an open loop whose chunks are all due at
    once, so each send waits only for backpressure; an ``"open"`` one
    sends a chunk every ``interval`` seconds. Each segment ends when all
    its chunks have completed. ``send`` and ``poll`` speak in absolute
    chunk positions.
    """
    closed: List[Tuple[int, float]] = []
    opened: Dict[int, Tuple[float, float]] = {}
    late = 0.0
    for kind, first, end in plan:
        def local_send(i: int, first=first) -> List[Completion]:
            return [(p - first, t) for p, t in send(first + i)]

        def local_poll(timeout: Optional[float], first=first) -> List[Completion]:
            return [(p - first, t) for p, t in poll(timeout)]

        result = open_loop(end - first, 0.0 if kind == "closed" else interval,
                           local_send, local_poll, clock)
        if kind == "closed":
            closed.append((end - first, max(result.done) - result.due[0]))
        else:
            opened.update((first + i, pair) for i, pair
                          in enumerate(zip(result.due, result.done)))
            late = max(late, result.late_s_max)
    return PlanResult(closed=closed, open=opened, late_s_max=late)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------

MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    """Nearest rank of the ``p``-th percentile among ``n`` samples."""
    return math.ceil(round(p * n / 100.0, 9))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile; requires >= 10 samples beyond it."""
    n = len(samples)
    beyond = n - _rank(p, n)
    if p > 50 and beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has only {beyond} beyond it "
            f"(need {MIN_BEYOND})"
        )
    ordered = sorted(samples)
    return ordered[max(0, _rank(p, n) - 1)]


def highest_supported(n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0)) -> Optional[float]:
    """The highest candidate percentile with >= 10 of ``n`` samples beyond it."""
    for p in candidates:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    return None


# ----------------------------------------------------------------------
# reading gateway acks as they arrive
# ----------------------------------------------------------------------


class AckReader:
    """Harvest ingest acks from an ``IngestClient`` as they arrive.

    ``IngestClient`` itself reads its connection only when it runs out
    of credits, which would time an ack when the client next looked,
    not when it came. This reader waits on the client's socket and lets
    the client parse each frame the moment it is readable, then reports
    every newly acknowledged seq with its arrival time. It uses the
    client's connection and frame pump (``_conn``, ``_pump_once``)
    because the client offers no public non-blocking read.
    """

    def __init__(self, client, clock: Callable[[], float] = time.perf_counter):
        self.client = client
        self.clock = clock
        self._seen = set(client.acked) | set(client.chunk_errors)

    def _fresh(self) -> List[Completion]:
        now = self.clock()
        seqs = (set(self.client.acked) | set(self.client.chunk_errors)) - self._seen
        self._seen |= seqs
        return [(seq, now) for seq in seqs]

    def poll(self, timeout: Optional[float]) -> List[Completion]:
        conn = self.client._conn
        if not conn._queue:
            readable, _, _ = select.select([conn._sock], [], [], timeout)
            if not readable:
                return []
        self.client._pump_once()
        return self._fresh()

    def send_encoded(self, seq: int, video) -> List[Completion]:
        """Push one chunk; acks parsed while waiting for credit count too."""
        self.client.push_encoded(seq, video)
        return self._fresh()
