"""Fixed sample blocks of a pool, run on one shared thread pool.

Apart from uni's Pi recursion, every per-realization computation of a drop
and every ensemble mean is a sum over independent realizations.  So a pool
of S realizations is cut into blocks of SAMPLE_BLOCK consecutive samples,
and map_blocks runs one function per block on a pool of workers() threads;
numpy releases the interpreter lock inside its kernels, so the blocks run
on separate cores.

Determinism rule: the blocks depend on S alone, never on the number of
threads, and map_blocks returns the results in block order.  Every join
(a concatenation, or a sum taken in block order) therefore does the same
floating-point work for any worker count, and a run's outputs do not depend
on it.

A block task must not submit to the pool: with every worker waiting on a
nested task, a bounded pool deadlocks.  map_blocks called from a worker
thread therefore runs its blocks inline, in the calling thread.
"""

from __future__ import annotations

import functools
import os
import threading

# Samples per block.  Each thread gets its own glibc malloc arena, which keeps
# what the thread freed: with 250 samples, two blocks in flight raised a
# default drop's peak RSS from 88.5 to 98.7-99.5 MiB (in-process, 6 drops);
# with 125, to 91.0-93.1 MiB (2-core VM, OpenBLAS on 1 thread).
SAMPLE_BLOCK = 125
# Threads of the shared pool at most: the core count the gain was measured on.
MAX_WORKERS = 2

_worker = threading.local()


def workers():
    """Threads that map_blocks uses: the usable CPUs, at most MAX_WORKERS."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(MAX_WORKERS, cpus))


def _mark_worker():
    _worker.active = True


@functools.cache
def _executor(n):
    """The shared pool of n threads, started on first use.  concurrent.futures
    is imported here, not with the package: it pulls in logging (~9 ms)."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(n, thread_name_prefix="tmmse-block", initializer=_mark_worker)


def sample_blocks(n_samples):
    """Slices of SAMPLE_BLOCK consecutive samples covering 0..n_samples-1."""
    return [slice(lo, min(lo + SAMPLE_BLOCK, n_samples))
            for lo in range(0, n_samples, SAMPLE_BLOCK)]


def map_blocks(fn, n_samples):
    """[fn(block) for block in sample_blocks(n_samples)], the blocks run on the
    shared thread pool.  Every block finishes before this returns; if any
    raised, the exception of the first failing block in block order is
    raised."""
    blocks = sample_blocks(n_samples)
    n = workers()
    if n == 1 or len(blocks) == 1 or getattr(_worker, "active", False):
        return [fn(block) for block in blocks]
    futures = [_executor(n).submit(fn, block) for block in blocks]
    for future in futures:  # every block finishes before any result is read
        future.exception()
    return [future.result() for future in futures]
