"""Independent tasks of a drop, run in order on one shared thread pool.

map_ordered runs one function per item on a pool of workers() threads;
numpy releases the interpreter lock inside its kernels, so the tasks run on
separate cores.  Two kinds of item run on it:

* sample blocks: apart from uni's Pi recursion, every per-realization
  computation of a drop and every ensemble mean is a sum over independent
  realizations, so map_blocks cuts a pool of S realizations into blocks of
  SAMPLE_BLOCK consecutive samples and maps those;
* uni's stripes: each stripe's statistics sweep reads only that stripe's
  TXs, so uni's fit maps the stripes (the hops within a stripe stay serial).

Determinism rule: the items depend on the problem alone, never on the
number of threads, and map_ordered returns the results in item order.
Every join (a concatenation, or a sum taken in item order) therefore does
the same floating-point work for any worker count, and a run's outputs do
not depend on it.  If tasks fail, every task still runs, and the exception
of the first failing item in item order is raised.

A task must not submit to the pool: with every worker waiting on a nested
task, a bounded pool deadlocks.  map_ordered called from a worker thread
therefore runs its items inline, in the calling thread.  The pool's
threads do not survive a fork, so a forked child starts a pool of its own.
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
    """Threads that map_ordered uses: the usable CPUs, at most MAX_WORKERS."""
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

    return ThreadPoolExecutor(n, thread_name_prefix="tmmse-pool", initializer=_mark_worker)


if hasattr(os, "register_at_fork"):
    # a child inherits the cached pool but none of its threads
    os.register_at_fork(after_in_child=_executor.cache_clear)


def map_ordered(fn, items):
    """[fn(item) for item in items], the items run on the shared thread pool.
    Every item finishes before this returns; if any raised, the exception of
    the first failing item in item order is raised."""
    items = list(items)
    n = workers()
    if n == 1 or len(items) <= 1 or getattr(_worker, "active", False):
        return [fn(item) for item in items]
    futures = [_executor(n).submit(fn, item) for item in items]
    for future in futures:  # every item finishes before any result is read
        future.exception()
    return [future.result() for future in futures]


def sample_blocks(n_samples):
    """Slices of SAMPLE_BLOCK consecutive samples covering 0..n_samples-1."""
    return [slice(lo, min(lo + SAMPLE_BLOCK, n_samples))
            for lo in range(0, n_samples, SAMPLE_BLOCK)]


def map_blocks(fn, n_samples):
    """map_ordered(fn, sample_blocks(n_samples)): one task per sample block."""
    return map_ordered(fn, sample_blocks(n_samples))
