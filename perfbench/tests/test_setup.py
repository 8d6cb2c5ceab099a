"""``setup_s`` must close on a round trip every worker answers."""

import time

import host


class LazyWorkers:
    """Constructor returns at once; the workers finish building later,
    and the first round trip waits for them (as forked process-backend
    workers do while they build their HQ index)."""

    build_seconds = 0.2

    def __init__(self) -> None:
        self.ready_at = time.perf_counter() + self.build_seconds

    def metrics_snapshot(self):
        time.sleep(max(0.0, self.ready_at - time.perf_counter()))
        return {}


def test_setup_includes_lazy_worker_build():
    """Stopping the clock at the constructor would read ~0 s here."""
    _, setup_s = host.timed_setup(LazyWorkers)
    assert setup_s >= LazyWorkers.build_seconds

