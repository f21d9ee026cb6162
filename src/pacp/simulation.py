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
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import DomainError, check_domain
from .graph import AttachmentLog

__all__ = ["DeltaProfile", "simulate"]


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
