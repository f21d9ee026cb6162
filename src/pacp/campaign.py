"""Replicate driver for Monte Carlo campaigns.

Replicate r of a campaign derives its random stream from (master_seed, r), so
results are a pure function of the configuration and master seed: the same
summary comes back whatever the parallelism degree, the chunking or the
scheduling order.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

__all__ = ["resolve_threads", "run_replicates"]


def resolve_threads(threads: int | None = None) -> int:
    """Parallelism degree: the --threads flag, overridable by PACP_THREADS,
    defaulting to all cores.  Only resource usage depends on this value."""
    env = os.environ.get("PACP_THREADS")
    if env:
        try:
            value = int(env)
            if value >= 1:
                return value
        except ValueError:
            pass
    if threads is not None and threads >= 1:
        return int(threads)
    return os.cpu_count() or 1


def _run_chunk(worker, indices, args):
    records = list(worker(indices, *args))
    if len(records) != len(indices):
        raise ValueError(f"worker returned {len(records)} records for {len(indices)} replicates")
    return records


def run_replicates(worker, replicates: int, *, args=(), threads: int = 1) -> list:
    """Run ``worker(indices, *args)`` over the replicates 0..replicates-1 and
    return its records in replicate order.

    The replicates are cut into one chunk per worker process, or a single
    chunk when serial, and ``worker`` returns one record per index of its
    chunk, so it can simulate a whole chunk's graphs in one batch.
    ``worker`` must be a module-level function (process pools pickle it by
    reference) and must derive all randomness from each replicate's index,
    so that the thread count cannot change any result.
    """
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    threads = min(max(1, int(threads)), replicates)
    if threads == 1:
        return _run_chunk(worker, list(range(replicates)), args)
    chunks = np.array_split(np.arange(replicates), threads)
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_run_chunk, worker, chunk.tolist(), args) for chunk in chunks]
        return [record for future in futures for record in future.result()]
