"""Replicate driver for Monte Carlo campaigns.

Replicate r of a campaign derives its random stream from (master_seed, r), so
results are a pure function of the configuration and master seed: the same
summary comes back whatever the parallelism degree or scheduling order.
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
    return [worker(r, *args) for r in indices]


def run_replicates(worker, replicates: int, *, args=(), threads: int = 1) -> list:
    """Run ``worker(r, *args)`` for r = 0..replicates-1 and return the results
    in replicate order.

    ``worker`` must be a module-level function (process pools pickle it by
    reference) and must derive all randomness from r so that the thread count
    cannot change any result.
    """
    if replicates < 1:
        raise ValueError(f"need at least one replicate, got {replicates}")
    threads = max(1, int(threads))
    if threads == 1 or replicates == 1:
        return [worker(r, *args) for r in range(replicates)]
    chunks = np.array_split(np.arange(replicates), min(4 * threads, replicates))
    out: list = [None] * replicates
    with ProcessPoolExecutor(max_workers=threads) as pool:
        futures = [
            (chunk, pool.submit(_run_chunk, worker, chunk.tolist(), args))
            for chunk in chunks
            if len(chunk)
        ]
        for chunk, fut in futures:
            for r, rec in zip(chunk.tolist(), fut.result()):
                out[r] = rec
    return out
