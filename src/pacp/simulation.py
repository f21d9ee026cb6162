"""Exact simulation of the time-inhomogeneous affine attachment mechanism.

Each sub-step attaches one edge from the newest vertex t to a previous vertex
v with probability (d(v) + delta(t)) / ((2m + delta(t)) t - 2m + i - 1).
Since d(v) = m + hits(v), a block of h consecutive vertices weighs its hit
count plus h (m + delta).  The sampler keeps a binary indexed tree over the
integer hit counts only and adds the affine part h (m + delta) per level of
the descent, so a change of delta at tau touches no per-vertex state, a new
vertex joins the pool with no update, and the tree never drifts.

A draw is one O(log n) root-to-leaf pass that also records its hit, on the
whole range delta > -m.  At level h the descent looks at node k = j + h,
which covers vertices j..j+h-1.  The drawn vertex lies in that range exactly
when the descent keeps j: either the node's weight reaches the remaining
mass, or k > t lies past the pool and is skipped.  The nodes it keeps are
therefore the Fenwick update path of the drawn vertex, so the pass adds one
to each kept node up to n and nothing where it steps right.  The normalizing
total is always taken from the closed form, never read back from the tree.
When that total exceeds the tree's within its last bit, the descent can run
past the pool to j = t; the guard then draws t - 1 and moves the hit the pass
charged to the path of t over to the path of t - 1 with two short walks.

``simulate_many`` runs the same descent for many graphs of one size at once,
one numpy lane per graph, and repeats every float operation of the scalar
kernel in the same order, so each graph's log is the one ``simulate`` gives.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, check_domain
from .graph import AttachmentLog

__all__ = ["DeltaProfile", "simulate", "simulate_many"]

# The batched kernel pays numpy's per-call cost once per tree level for all
# of its lanes, so it beats the scalar kernel only from about 32 lanes on
# (BENCH_pr24.json, n from 100 to 1e4, m = 1 and 3); a batch runs from
# _BATCH_MIN_ROWS lanes on, and fewer lanes run the scalar kernel.
_BATCH_MIN_ROWS = 48
# Working memory of one batch: its trees, its block of uniforms and its
# targets.  Larger campaigns are cut into balanced batches under it.
_BATCH_BYTES = 64 << 20
_UNIFORM_BLOCK = 4096
# A tree node past the pool holds this value: finite, so a masked product
# with it is 0, and above every lane's total weight, so the descent never
# steps into it.  A lane whose total can reach it runs the scalar kernel.
_PAST_POOL = 2.0**1000


@dataclass(frozen=True)
class DeltaProfile:
    """Attachment parameter over time: constant, or one step at tau.

    delta(t) = delta0 for t <= tau and delta1 afterwards.  A step profile with
    tau = n is the same law as Constant(delta0); tau = 0 means every random
    arrival already uses delta1.
    """

    delta0: float
    delta1: float | None = None
    tau: int | None = None

    @classmethod
    def constant(cls, delta0: float) -> "DeltaProfile":
        return cls(float(delta0))

    @classmethod
    def step(cls, delta0: float, delta1: float, tau: int) -> "DeltaProfile":
        return cls(float(delta0), float(delta1), tau)

    @property
    def is_step(self) -> bool:
        return self.delta1 is not None

    def __post_init__(self):
        if (self.delta1 is None) != (self.tau is None):
            raise DomainError("step profiles need both delta1 and tau")

    def validate(self, n: int, m: int) -> None:
        check_domain(m, delta0=self.delta0)
        if self.is_step:
            check_domain(m, delta1=self.delta1)
            if not isinstance(self.tau, Integral):
                raise DomainError(f"tau must be an integer, got {self.tau!r}")
            if not 0 <= self.tau <= n:
                raise DomainError(f"tau must lie in 0..{n}, got {self.tau}")


def _attach_kernel(n: int, m: int, d0: float, d1: float, tau: int, u) -> np.ndarray:
    """Draw all targets for arrivals 2..n, consuming uniforms in order.

    ``tau`` is the last arrival governed by d0; pass tau >= n for a constant
    profile.  Vertex v lives at tree index v + 1; the descent never reads an
    index above t, so only the pool 0..t-1 can be drawn.  Each descent adds
    its hit to the nodes it keeps, which are the drawn vertex's update path.
    """
    tree = [0] * (n + 1)
    out = np.empty((n - 1) * m, dtype=np.int64)
    ul = u.tolist()
    two_m = 2 * m
    halves = [1 << b for b in range(n.bit_length() - 1, -1, -1)]
    delta = d0 if tau >= 2 else d1
    levels = [(h, h * (m + delta)) for h in halves]
    pos = 0
    for t in range(2, n + 1):
        if t == tau + 1:
            delta = d1
            levels = [(h, h * (m + delta)) for h in halves]
        s_base = (two_m + delta) * t - two_m
        for i in range(m):
            s = ul[pos] * (s_base + i)
            j = 0
            for half, affine in levels:
                k = j + half
                if k <= t:
                    w = tree[k] + affine
                    if w < s:
                        s -= w
                        j = k
                    else:
                        tree[k] += 1
                elif k <= n:
                    tree[k] += 1
            if j >= t:  # guards the <= 1 ulp gap between closed form and tree total
                j = t  # the pass charged index t + 1; the hit belongs to index t
                while j <= n:
                    tree[j] += 1
                    j += j & -j
                j = t + 1
                while j <= n:
                    tree[j] -= 1
                    j += j & -j
                j = t - 1
            out[pos] = j
            pos += 1
    return out


def _attach_batch(n: int, m: int, d0, d1, tau, rngs) -> np.ndarray:
    """Targets of R graphs at once, row r equal to ``_attach_kernel(n, m,
    d0[r], d1[r], tau[r], rngs[r].random((n - 1) * m))``.

    Node k of lane r is ``tree[k, r]``.  Nodes past the pool hold
    ``_PAST_POOL`` and node t joins at arrival t as the sum of its children
    (vertex t - 1 has no hits yet), so the descent needs no bounds test, and
    levels with half > t, whose node lies past the pool for every lane, are
    skipped.  Each level is branch free: the step right is a 0/1 mask, and
    the remaining mass loses ``w * mask``, which is w or exactly 0.  The
    nodes a descent keeps get their hit after the pass, since no pass reads
    a node twice.  A descent that runs past the pool ends at j = t, and the
    nodes it kept, the path of index t + 1, all lie past the pool; the guard
    adds the hit to node t, the one pooled node on the path of index t, and
    draws t - 1.
    """
    lanes = len(rngs)
    draws = (n - 1) * m
    tree = np.full((1 << n.bit_length(), lanes), _PAST_POOL)
    tree[1:3] = 0.0
    flat = tree.reshape(-1)
    halves = [1 << b for b in range(n.bit_length() - 1, -1, -1)]
    levels = len(halves)
    half = np.array(halves)[:, None]
    delta = np.where(tau >= 2, d0, d1)
    affine, affine1 = half * (m + delta), half * (m + d1)
    slope, slope1 = 2 * m + delta, 2 * m + d1
    switch = defaultdict(list)
    for r, last in enumerate(tau.tolist()):
        if 2 <= last < n:
            switch[last + 1].append(r)
    offset = np.repeat(half * lanes, lanes, axis=1)  # flat distance of a level's node
    left = np.empty((levels + 1, lanes), dtype=np.int64)  # flat index of each level's j
    right = np.empty((levels, lanes), dtype=bool)
    kept = np.empty((levels, lanes), dtype=bool)
    level_args = list(zip((flat[h * lanes:] for h in halves), offset, affine, left, left[1:], right))
    lane = np.arange(lanes)
    out = np.empty((lanes, draws), dtype=np.int64)
    s = np.empty(lanes)
    taken = np.empty(lanes)
    moved = np.empty(lanes, dtype=np.int64)
    block = np.empty((min(_UNIFORM_BLOCK, draws), lanes))
    end = left[levels]
    pos = 0
    for t in range(2, n + 1):
        if t > 2:
            node = tree[t]
            low = t & -t
            if low == 1:
                node[:] = 0.0
            else:
                np.copyto(node, tree[t - 1])
                for b in range(1, low.bit_length() - 1):
                    node += tree[t - (1 << b)]
        if t in switch:
            rows = switch[t]
            affine[:, rows] = affine1[:, rows]
            slope[rows] = slope1[rows]
        s_base = slope * t - 2 * m
        first = levels - t.bit_length()
        args = level_args[first:]
        start, path_left, path_offset = left[first], left[first:levels], offset[first:]
        path_right, path_kept = right[first:], kept[first:]
        past = t * lanes
        for i in range(m):
            k = pos % len(block)
            if k == 0:
                size = min(len(block), draws - pos)
                for r, rng in enumerate(rngs):
                    block[:size, r] = rng.random(size)
            np.multiply(block[k], s_base + i, s)
            np.copyto(start, lane)
            for view, step, aff, j, j_next, go in args:
                w = view[j]
                w += aff
                np.less(w, s, go)
                np.multiply(w, go, taken)
                np.subtract(s, taken, s)
                np.multiply(step, go, moved)
                np.add(j, moved, j_next)
            np.logical_not(path_right, path_kept)
            flat[path_left + path_offset] += path_kept
            if end.max() >= past:  # guards the <= 1 ulp gap between closed form and tree total
                for r in np.flatnonzero(end >= past).tolist():
                    flat[past + r] += 1.0
                    end[r] -= lanes
            out[:, pos] = end
            pos += 1
    out //= lanes
    return out


def _batchable(n: int, m: int, profiles: Sequence[DeltaProfile]) -> bool:
    """Whether every lane's total weight stays below ``_PAST_POOL``."""
    top = max(max(p.delta0, p.delta1 if p.is_step else p.delta0) for p in profiles)
    return 2.0 * (2 * m + top) * n < _PAST_POOL


def simulate_many(
    n: int, m: int, profiles: Sequence[DeltaProfile], seeds: Sequence
) -> Iterator[AttachmentLog]:
    """The logs ``simulate(n, m, p, s)`` for each pair of ``profiles`` and
    ``seeds``, in order and bit for bit, from one batched descent per batch.

    Returns an iterator, which holds one batch's logs at a time: a batch's
    trees, uniforms and targets fit in ``_BATCH_BYTES``, and the rows are
    cut into balanced batches under it.  A batch of fewer than
    ``_BATCH_MIN_ROWS`` rows, where numpy's per-call cost outweighs the
    lanes, runs ``simulate`` row by row.  Every profile is validated before
    the first graph is drawn.
    """
    profiles, seeds = list(profiles), list(seeds)
    if len(profiles) != len(seeds):
        raise ValueError(f"{len(profiles)} profiles for {len(seeds)} seeds")
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    for profile in profiles:
        profile.validate(n, m)
    return _simulate_batches(n, m, profiles, seeds)


def _row_bytes(n: int, m: int) -> int:
    """Working memory of one lane of a batch: tree, uniforms and targets."""
    draws = (n - 1) * m
    return 8 * ((1 << n.bit_length()) + min(_UNIFORM_BLOCK, draws) + draws)


def _simulate_batches(n, m, profiles, seeds):
    batches = max(1, -(-len(profiles) // max(1, _BATCH_BYTES // _row_bytes(n, m))))
    for rows in np.array_split(np.arange(len(profiles)), batches):
        rows = rows.tolist()
        batch = [profiles[r] for r in rows]
        if n < 2 or len(rows) < _BATCH_MIN_ROWS or not _batchable(n, m, batch):
            for r in rows:
                yield simulate(n, m, profiles[r], seeds[r])
        else:
            yield from _batch_logs(n, m, batch, [seeds[r] for r in rows])


def _batch_logs(n, m, profiles, seeds) -> list[AttachmentLog]:
    targets = _attach_batch(
        n,
        m,
        np.array([p.delta0 for p in profiles]),
        np.array([p.delta1 if p.is_step else p.delta0 for p in profiles]),
        np.array([p.tau if p.is_step else n for p in profiles]),
        [np.random.default_rng(seed) for seed in seeds],
    )
    return [AttachmentLog(n, m, row, validate=False) for row in targets]


def simulate(n: int, m: int, profile: DeltaProfile, seed) -> AttachmentLog:
    """Generate one attachment log; identical seed gives an identical log.

    ``seed`` is anything numpy's ``default_rng`` accepts (a 64-bit integer or
    a tuple deriving a replicate stream from a master seed).
    """
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    profile.validate(n, m)
    u = np.random.default_rng(seed).random((n - 1) * m)
    tau = profile.tau if profile.is_step else n
    d1 = profile.delta1 if profile.is_step else profile.delta0
    targets = _attach_kernel(n, m, profile.delta0, d1, tau, u)
    return AttachmentLog(n, m, targets, validate=False)
