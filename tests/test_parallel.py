import sys
import threading
import time

import numpy as np
import pytest

from tmmse import parallel
from tmmse.parallel import SAMPLE_BLOCK, map_blocks, sample_blocks


@pytest.fixture(params=[1, 2, 4])
def n_workers(request, monkeypatch):
    # 4 is more threads than this code ever asks for on a 2-core machine
    monkeypatch.setattr(parallel, "workers", lambda: request.param)
    return request.param


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


def test_nested_map_runs_inline_without_deadlock(n_workers):
    # a task that maps again must not wait on the pool it runs in
    outcome = []

    def outer(samples):
        return sum(map_blocks(lambda inner: inner.stop - inner.start, 3 * SAMPLE_BLOCK))

    thread = threading.Thread(target=lambda: outcome.append(map_blocks(outer, 4 * SAMPLE_BLOCK)))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert outcome == [[3 * SAMPLE_BLOCK] * 4]


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
