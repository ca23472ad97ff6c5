import pytest

from repro.core.tcq import (
    MODE_SYNC,
    MODE_THREAD_COMBINING,
    MODE_TIMEOUT_ASYNC,
    ThreadCombiner,
)
from repro.sim.clock import VirtualClock
from repro.sim.vthread import VThread
from repro.storage.iouring import IORequest, IOUring
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice

MB = 1024**2


@pytest.fixture
def ring():
    return IOUring(SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB)), 64)


def _read(offset=0, size=1024):
    return IORequest("read", offset, size)


class TestModes:
    def test_invalid_mode(self, ring):
        with pytest.raises(ValueError):
            ThreadCombiner(ring, mode="bogus")

    def test_sync_mode_waits_whole_batch(self, ring):
        combiner = ThreadCombiner(ring, mode=MODE_SYNC)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(4)]
        done = combiner.read(t, reqs)
        assert t.now == done == max(r.completion for r in reqs)

    def test_empty_request_list(self, ring):
        combiner = ThreadCombiner(ring)
        t = VThread(0)
        assert combiner.read(t, []) == t.now


class TestCombining:
    def test_lone_reader_pays_window_plus_device(self, ring):
        combiner = ThreadCombiner(ring, combine_window=1.5e-6)
        t = VThread(0)
        combiner.read(t, [_read()])
        # window + syscall + ~50us device latency
        assert 50e-6 < t.now < 60e-6

    def test_concurrent_readers_share_batch(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        leader = VThread(0, clock)
        follower = VThread(1, clock)
        follower.now = 0.5e-6  # arrives within the window
        combiner.read(leader, [_read(0)])
        combiner.read(follower, [_read(4096)])
        assert combiner.batches == 1
        assert combiner.average_batch() == pytest.approx(2.0)

    def test_late_arrival_starts_new_batch(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=1e-6)
        a, b = VThread(0, clock), VThread(1, clock)
        b.now = 100e-6
        combiner.read(a, [_read(0)])
        combiner.read(b, [_read(4096)])
        assert combiner.batches == 2

    def test_coalescing_limit_respected(self, ring):
        combiner = ThreadCombiner(ring, combine_window=1e-3)
        threads = [VThread(i) for i in range(3)]
        # each brings 30 requests; QD 64 -> third thread overflows
        for t in threads:
            combiner.read(t, [_read(i * 4096) for i in range(30)])
        assert combiner.batches == 2

    def test_follower_cost_lower_than_leader(self, ring):
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=5e-6)
        leader, follower = VThread(0, clock), VThread(1, clock)
        follower.now = 1e-6
        combiner.read(leader, [_read(0)])
        combiner.read(follower, [_read(4096)])
        # follower arrived later but finishes about the same time
        assert abs(leader.now - follower.now) < 5e-6

    def test_read_one_returns_payload(self, ring):
        ring.device.write_raw(0, b"payload!")
        combiner = ThreadCombiner(ring)
        t = VThread(0)
        data = combiner.read_one(t, _read(0, 8))
        assert data == b"payload!"


class TestTimeoutStrawman:
    def test_ta_latency_includes_timeout(self, ring):
        combiner = ThreadCombiner(ring, mode=MODE_TIMEOUT_ASYNC, timeout_window=100e-6)
        t = VThread(0)
        combiner.read(t, [_read()])
        assert t.now > 100e-6

    def test_tc_beats_ta_for_lone_reader(self, ring):
        tc = ThreadCombiner(ring, mode=MODE_THREAD_COMBINING)
        ta = ThreadCombiner(
            IOUring(SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB)), 64),
            mode=MODE_TIMEOUT_ASYNC,
        )
        t1, t2 = VThread(0), VThread(1)
        tc.read(t1, [_read()])
        ta.read(t2, [_read()])
        assert t1.now < t2.now


class TestOversizedLeader:
    def test_leader_splits_at_coalescing_limit(self, ring):
        """A leader with more requests than QD submits multiple batches,
        none above the limit."""
        combiner = ThreadCombiner(ring, combine_window=1e-3)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(150)]  # QD 64 -> 64+64+22
        combiner.read(t, reqs)
        assert combiner.batches == 3
        assert combiner.combined_requests == 150
        assert combiner.average_batch() <= combiner.coalescing_limit
        assert all(r.completion is not None for r in reqs)

    def test_exact_multiple_leaves_no_open_window(self, ring):
        """Full batches close immediately: a follower arriving right
        after a QD-multiple submission starts its own batch."""
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=1e-3)
        a, b = VThread(0, clock), VThread(1, clock)
        combiner.read(a, [_read(i * 4096) for i in range(128)])  # 2 full batches
        b.now = 1e-7  # well inside what the window would have been
        combiner.read(b, [_read(4096)])
        assert combiner.batches == 3  # b led its own batch

    def test_average_batch_never_exceeds_limit(self, ring):
        """Acceptance criterion: no request mix can push the average
        (or any) batch above the coalescing limit."""
        import random

        rng = random.Random(42)
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        clock = VirtualClock()
        now = 0.0
        for i in range(60):
            t = VThread(i, clock)
            now += rng.choice([0.0, 0.3e-6, 5e-6])
            t.now = now
            combiner.read(t, [_read(j * 4096) for j in range(rng.randint(1, 100))])
        assert combiner.average_batch() <= combiner.coalescing_limit

    def test_stale_batch_count_does_not_block_followers(self, ring):
        """After a batch's window expires, its count must not make the
        next window reject followers that would fit."""
        clock = VirtualClock()
        combiner = ThreadCombiner(ring, combine_window=2e-6)
        a = VThread(0, clock)
        combiner.read(a, [_read(i * 4096) for i in range(60)])  # partial batch of 60
        # Long after the window closed, a new leader opens a window...
        b = VThread(1, clock)
        b.now = 1.0
        combiner.read(b, [_read(0)])
        # ...and a follower with 10 requests must be admitted (1 + 10 <= 64);
        # with the stale count of 60 leaking it would have been rejected.
        c = VThread(2, clock)
        c.now = 1.0 + 0.5e-6
        combiner.read(c, [_read(i * 4096) for i in range(10)])
        assert combiner.batches == 2  # 60-req leader batch, then b+c shared
        assert combiner.combined_requests == 71


def test_average_batch_empty(ring):
    assert ThreadCombiner(ring).average_batch() == 0.0


class TestSubmitThenWait:
    """``read`` is ``submit`` followed by the wait: same completions,
    same thread times, same batch accounting, in every mode."""

    @staticmethod
    def _drive(mode, call):
        # A leader, a follower inside its window, and a late leader
        # whose request list overflows the queue depth.
        ring = IOUring(SSDDevice(FLASH_SSD_GEN4_SPEC.with_capacity(64 * MB)), 64)
        combiner = ThreadCombiner(ring, mode=mode, combine_window=2e-6)
        clock = VirtualClock()
        threads = [VThread(i, clock) for i in range(3)]
        threads[1].now = 0.5e-6
        threads[2].now = 300e-6
        sizes = [3, 2, 70]
        dones = []
        for t, n in zip(threads, sizes):
            dones.append(call(combiner, t, [_read(i * 4096) for i in range(n)]))
        return (
            [repr(d) for d in dones],
            [repr(t.now) for t in threads],
            combiner.batches,
            combiner.combined_requests,
        )

    @pytest.mark.parametrize(
        "mode", [MODE_THREAD_COMBINING, MODE_TIMEOUT_ASYNC, MODE_SYNC]
    )
    def test_read_equals_submit_then_wait(self, mode):
        def submit_then_wait(combiner, t, reqs):
            done = combiner.submit(t, reqs)
            t.wait_until(done)
            return done

        def read(combiner, t, reqs):
            return combiner.read(t, reqs)

        assert self._drive(mode, submit_then_wait) == self._drive(mode, read)

    def test_submit_does_not_wait(self, ring):
        combiner = ThreadCombiner(ring)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(4)]
        done = combiner.submit(t, reqs)
        assert t.now < done  # the leader paid only its submit cost
        # Its batch left the TCQ when the combining window closed.
        assert combiner.submitted_at == combiner.combine_window
        assert done == max(r.completion for r in reqs)

    def test_sync_submit_blocks(self, ring):
        combiner = ThreadCombiner(ring, mode=MODE_SYNC)
        t = VThread(0)
        reqs = [_read(i * 4096) for i in range(4)]
        done = combiner.submit(t, reqs)
        assert t.now == done == max(r.completion for r in reqs)
