import sys
import threading
import time

import numpy as np
import pytest

from tests.conftest import forked_exit_code
from tmmse import parallel
from tmmse.parallel import SAMPLE_BLOCK, map_blocks, map_ordered, sample_blocks


def test_blocks_tile_the_pool_whatever_the_worker_count():
    for n in (1, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, 2 * SAMPLE_BLOCK + 1):
        blocks = sample_blocks(n)
        assert blocks[0].start == 0 and blocks[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert all(b.stop - b.start == SAMPLE_BLOCK for b in blocks[:-1])
    assert sample_blocks(0) == []


def test_results_come_in_block_order(n_workers):
    def task(samples):
        time.sleep(0.002 * (samples.start % 3))  # later blocks may finish first
        return samples.start

    n = 7 * SAMPLE_BLOCK + 3
    assert map_blocks(task, n) == [b.start for b in sample_blocks(n)]
    # items need not be sample slices: stripes of TXs, say, slowest first
    stripes = [tuple(range(m, m + 3)) for m in range(0, 15, 3)]
    assert map_ordered(lambda txs: time.sleep(0.002 * (4 - txs[0] // 3)) or txs[-1],
                       stripes) == [2, 5, 8, 11, 14]
    assert map_ordered(task, iter([])) == []


def test_first_failing_block_in_block_order_is_raised_after_every_block_ran(n_workers):
    done = []

    def task(samples):
        block = samples.start // SAMPLE_BLOCK
        if block in (2, 4):
            time.sleep(0.01 if block == 2 else 0)  # block 4 fails first in time
            raise ValueError(f"block {block}")
        done.append(block)

    with pytest.raises(ValueError, match="block 2"):
        map_blocks(task, 6 * SAMPLE_BLOCK)
    if n_workers > 1:  # a serial run stops at the failure
        assert sorted(done) == [0, 1, 3, 5]

    # the same rule for items that are not sample slices
    done.clear()

    def stripe_task(name):
        if name in ("b", "d"):
            time.sleep(0.01 if name == "b" else 0)  # "d" fails first in time
            raise KeyError(name)
        done.append(name)

    with pytest.raises(KeyError, match="b"):
        map_ordered(stripe_task, "abcde")
    if n_workers > 1:
        assert sorted(done) == ["a", "c", "e"]


def test_nested_map_runs_inline_without_deadlock(n_workers):
    # a task that maps again must not wait on the pool it runs in
    outcome = []

    def outer(samples):
        return sum(map_blocks(lambda inner: inner.stop - inner.start, 3 * SAMPLE_BLOCK))

    def outer_stripe(q):  # a stripe task that maps sample blocks
        return q + sum(map_blocks(lambda inner: inner.stop - inner.start, 2 * SAMPLE_BLOCK))

    def both():
        outcome.append(map_blocks(outer, 4 * SAMPLE_BLOCK))
        outcome.append(map_ordered(outer_stripe, range(3)))

    thread = threading.Thread(target=both)
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome == [[3 * SAMPLE_BLOCK] * 4, [2 * SAMPLE_BLOCK + q for q in range(3)]]


def test_shared_input_read_under_frequent_thread_switches(n_workers):
    # blocks read one array and write disjoint slices of another: a block
    # that ran twice, or not at all, or on another block's slice would show
    x = np.arange(9 * SAMPLE_BLOCK + 17, dtype=float)
    out = np.zeros_like(x)

    def task(samples):
        out[samples] += np.cumsum(x[samples])
        return float(out[samples].sum())

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sums = map_blocks(task, len(x))
    finally:
        sys.setswitchinterval(switch)
    want = np.concatenate([np.cumsum(x[b]) for b in sample_blocks(len(x))])
    np.testing.assert_array_equal(out, want)
    assert sums == [float(want[b].sum()) for b in sample_blocks(len(x))]


def test_worker_count_is_capped_by_the_usable_cpus(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    assert parallel.workers() == 1
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(64)))
    assert parallel.workers() == parallel.MAX_WORKERS


def test_forked_child_maps_after_the_parent_did(n_workers):
    # the pool's threads do not survive a fork: a child that reused the
    # parent's cached pool would wait forever on its first map.  Enough slow
    # blocks in the parent start every thread of its pool.
    assert map_blocks(lambda b: time.sleep(0.005) or b.start, 8 * SAMPLE_BLOCK) == [
        b.start for b in sample_blocks(8 * SAMPLE_BLOCK)]

    def child():
        return map_ordered(lambda q: q * q, range(5)) == [0, 1, 4, 9, 16]

    assert forked_exit_code(child, alarm_s=10) == 0
