"""Due-time accounting of the open loop, and the percentile rule."""

import pytest

import loadgen


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_slow_sink_latencies_count_from_due_time():
    """A sink three times slower than the rate: each chunk waits for the
    ones before it, and that wait is part of its latency."""
    clock = FakeClock()
    interval, service = 0.010, 0.030

    def send(i):
        clock.advance(service)
        return [(i, clock())]

    def poll(timeout):
        clock.advance(timeout or 0.0)
        return []

    result = loadgen.open_loop(5, interval, send, poll, clock=clock)
    # Chunk i is due at i * 10 ms but can only start once the previous
    # i chunks (30 ms each) are done: latency = 30 ms + i * 20 ms.
    expected = [service + i * (service - interval) for i in range(5)]
    assert result.latencies_s == pytest.approx(expected)
    assert result.late_s_max == pytest.approx(4 * (service - interval))


def test_fast_sink_is_never_late():
    clock = FakeClock()

    def send(i):
        clock.advance(0.002)
        return [(i, clock())]

    def poll(timeout):
        clock.advance(timeout or 0.0)
        return []

    result = loadgen.open_loop(4, 0.010, send, poll, clock=clock)
    assert result.latencies_s == pytest.approx([0.002] * 4)
    assert result.late_s_max == pytest.approx(0.0)
    assert result.sent == pytest.approx(result.due)


def test_asynchronous_completions_arrive_through_poll():
    """Acks that arrive while the generator waits are timed when they
    arrive, not when the generator next sends."""
    clock = FakeClock()
    pending = []

    def send(i):
        pending.append((i, clock() + 0.025))  # acked 25 ms after sending
        return []

    def poll(timeout):
        wake = min(t for _, t in pending) if pending else float("inf")
        if timeout is not None:
            wake = min(wake, clock() + timeout)
        clock.advance(wake - clock())
        done = [(i, t) for i, t in pending if t <= clock()]
        for item in done:
            pending.remove(item)
        return done

    result = loadgen.open_loop(3, 0.010, send, poll, clock=clock)
    assert result.latencies_s == pytest.approx([0.025] * 3)


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 201))  # 200 samples
    assert loadgen.percentile(samples, 95) == 190
    assert loadgen.percentile(samples, 50) == 100
    with pytest.raises(ValueError):
        loadgen.percentile(samples[:199], 95)


@pytest.mark.parametrize("n,expected", [
    (15, None), (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0),
    (10000, 99.9),
])
def test_highest_supported_percentile(n, expected):
    assert loadgen.highest_supported(n) == expected



def test_plan_times_closed_walls_and_open_due_times():
    """Closed segments report their wall; open chunks keep absolute
    positions and are timed from their due time."""
    clock = FakeClock()

    def send(position):
        clock.advance(0.004)
        return [(position, clock())]

    def poll(timeout):
        clock.advance(timeout or 0.0)
        return []

    plan = [("closed", 2, 5), ("open", 5, 8), ("closed", 8, 10)]
    result = loadgen.run_plan(plan, 0.010, send, poll, clock=clock)
    assert [n for n, _ in result.closed] == [3, 2]
    assert [wall for _, wall in result.closed] == pytest.approx([0.012, 0.008])
    assert sorted(result.open) == [5, 6, 7]
    assert [done - due for due, done in result.open.values()] == \
        pytest.approx([0.004] * 3)
    assert result.late_s_max == pytest.approx(0.0)
