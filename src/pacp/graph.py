"""Attachment logs: the canonical in-memory form of a labeled PA multigraph.

A graph on vertices ``0..n`` grown by the preferential-attachment mechanism is
stored as its arrival log: for every arrival ``t`` in ``2..n`` the ordered list
of the ``m`` targets it attached to.  The ``t = 1`` step is implicit (``m``
parallel edges from 1 to 0).  Every quantity of interest -- degrees, tail
counts, likelihoods, the relabelable vertex set -- is a function of the log,
so adjacency structures are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import MissingRow, PalogError, SupportViolation, TargetTooLarge, WrongOutDegree

__all__ = [
    "AttachmentLog",
    "BoldSet",
    "DegreeTailCounts",
    "apply_permutation",
    "bold_vertices",
    "degree_tail_counts",
    "from_rows",
    "parse_palog",
    "format_palog",
    "load_palog",
    "save_palog",
    "substep_degrees",
    "window_tail_diff",
]

PALOG_MAGIC = "PALOG v1"


class AttachmentLog:
    """Immutable arrival-ordered target log of a PA graph on vertices 0..n.

    ``targets`` is a flat int64 array of length ``(n-1)*m``; the slice
    ``targets[(t-2)*m:(t-1)*m]`` holds the targets of arrival ``t`` in
    attachment order.
    """

    __slots__ = ("n", "m", "_targets")

    def __init__(self, n: int, m: int, targets, *, validate: bool = True):
        if n < 1:
            raise PalogError(f"need n >= 1, got {n}")
        if m < 1:
            raise PalogError(f"need m >= 1, got {m}")
        arr = np.ascontiguousarray(targets, dtype=np.int64)
        if arr.ndim != 1 or arr.shape[0] != (n - 1) * m:
            raise WrongOutDegree(
                f"expected {(n - 1) * m} targets for n={n}, m={m}, got shape {arr.shape}"
            )
        if validate and n > 1:
            arrivals = np.repeat(np.arange(2, n + 1, dtype=np.int64), m)
            if (arr < 0).any():
                raise PalogError("negative target label")
            bad = arr >= arrivals
            if bad.any():
                j = int(np.flatnonzero(bad)[0])
                raise TargetTooLarge(
                    f"arrival {int(arrivals[j])} records target {int(arr[j])}"
                )
        arr.setflags(write=False)
        self.n = int(n)
        self.m = int(m)
        self._targets = arr

    @property
    def targets(self) -> np.ndarray:
        return self._targets

    @property
    def num_vertices(self) -> int:
        return self.n + 1

    def row(self, t: int) -> np.ndarray:
        """Targets of arrival ``t`` (2 <= t <= n) in attachment order."""
        if not 2 <= t <= self.n:
            raise IndexError(f"arrival {t} out of range 2..{self.n}")
        return self._targets[(t - 2) * self.m : (t - 1) * self.m]

    def rows(self) -> dict[int, list[int]]:
        return {t: self.row(t).tolist() for t in range(2, self.n + 1)}

    def degrees(self, upto: int | None = None) -> np.ndarray:
        """Total degrees of the prefix graph on vertices ``0..upto``.

        Every vertex contributes its m outgoing edges (for vertex 0 the m
        implicit base edges count as in-edges), so ``d(v) = m + #hits(v)``.
        """
        t = self.n if upto is None else upto
        if not 1 <= t <= self.n:
            raise ValueError(f"prefix time {t} out of range 1..{self.n}")
        deg = np.full(t + 1, self.m, dtype=np.int64)
        if t > 1:
            hits = np.bincount(self._targets[: (t - 1) * self.m], minlength=t + 1)
            deg += hits[: t + 1]
        return deg

    def prefix(self, t: int) -> "AttachmentLog":
        """The induced log on vertices ``0..t`` (g restricted to early arrivals)."""
        if not 1 <= t <= self.n:
            raise ValueError(f"prefix time {t} out of range 1..{self.n}")
        return AttachmentLog(t, self.m, self._targets[: (t - 1) * self.m], validate=False)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AttachmentLog)
            and self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self._targets, other._targets))
        )

    def __hash__(self):
        return hash((self.n, self.m, self._targets.tobytes()))

    def __repr__(self) -> str:
        return f"AttachmentLog(n={self.n}, m={self.m})"


def from_rows(n: int, m: int, rows: Mapping[int, Iterable[int]]) -> AttachmentLog:
    """Build a validated log from a header and per-arrival target rows.

    ``rows`` must contain exactly one entry for every t in 2..n.
    """
    if n < 1 or m < 1:
        raise PalogError(f"need n >= 1 and m >= 1, got n={n}, m={m}")
    flat = np.empty((n - 1) * m, dtype=np.int64)
    seen = set(rows)
    for t in range(2, n + 1):
        if t not in seen:
            raise MissingRow(f"no row for arrival {t}")
        row = list(rows[t])
        if len(row) != m:
            raise WrongOutDegree(f"arrival {t} has {len(row)} targets, expected {m}")
        flat[(t - 2) * m : (t - 1) * m] = row
    extra = seen - set(range(2, n + 1))
    if extra:
        raise MissingRow(f"unexpected arrival labels {sorted(extra)}")
    return AttachmentLog(n, m, flat)


# ---------------------------------------------------------------------------
# PALOG v1 text format
# ---------------------------------------------------------------------------

def format_palog(g: AttachmentLog) -> str:
    lines = [f"{PALOG_MAGIC} n={g.n} m={g.m}"]
    for t in range(2, g.n + 1):
        lines.append(f"{t} " + " ".join(str(v) for v in g.row(t)))
    return "\n".join(lines) + "\n"


def parse_palog(text: str) -> AttachmentLog:
    """Parse PALOG v1 text; rejects duplicate and out-of-order arrival lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise PalogError("empty PALOG input")
    header = lines[0].split()
    if header[:2] != ["PALOG", "v1"] or len(header) != 4:
        raise PalogError(f"bad PALOG header: {lines[0]!r}")
    try:
        fields = dict(part.split("=", 1) for part in header[2:])
        n = int(fields["n"])
        m = int(fields["m"])
    except (ValueError, KeyError) as exc:
        raise PalogError(f"bad PALOG header: {lines[0]!r}") from exc
    if n < 1 or m < 1:
        raise PalogError(f"bad PALOG header values n={n}, m={m}")
    if len(lines) - 1 != max(n - 1, 0):
        raise MissingRow(f"expected {n - 1} arrival lines, found {len(lines) - 1}")
    flat = np.empty((n - 1) * m, dtype=np.int64)
    for idx, ln in enumerate(lines[1:]):
        parts = ln.split()
        expect_t = idx + 2
        try:
            t = int(parts[0])
            row = [int(p) for p in parts[1:]]
        except ValueError as exc:
            raise PalogError(f"unparsable arrival line: {ln!r}") from exc
        if t != expect_t:
            raise MissingRow(f"arrival line {t} where {expect_t} was expected")
        if len(row) != m:
            raise WrongOutDegree(f"arrival {t} has {len(row)} targets, expected {m}")
        flat[(t - 2) * m : (t - 1) * m] = row
    return AttachmentLog(n, m, flat)


def save_palog(g: AttachmentLog, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_palog(g))


def load_palog(path) -> AttachmentLog:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_palog(fh.read())


# ---------------------------------------------------------------------------
# Degree statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DegreeTailCounts:
    """Counts of vertices with degree strictly greater than k, k >= m.

    ``tail[j]`` is the count for ``k = m + j``; entries past the maximum
    realized degree are zero and not stored.  When ``split_at`` is given,
    ``h_le[v]``/``h_gt[v]`` split the randomly attached in-edges of v by
    parent arrival time, so ``h_le + h_gt = degrees - m`` for every vertex
    (the deterministic base pair counts as vertex 0's minimum-m endowment,
    exactly like out-edges do elsewhere).
    """

    n: int
    m: int
    upto: int
    split_at: int | None
    degrees: np.ndarray
    tail: np.ndarray
    h_le: np.ndarray | None = None
    h_gt: np.ndarray | None = None

    def n_gt(self, k: int) -> int:
        if k < self.m:
            raise ValueError(f"tail counts are defined for k >= m = {self.m}")
        j = k - self.m
        return int(self.tail[j]) if j < len(self.tail) else 0

    @property
    def total_excess(self) -> int:
        return int(self.tail.sum())


def _tail_from_degrees(degrees: np.ndarray, m: int) -> np.ndarray:
    # tail[j] = #{v : d(v) > m+j}; suffix-sum of the degree histogram.
    counts = np.bincount(degrees - m)
    above = counts[::-1].cumsum()[::-1]
    return above[1:].astype(np.int64)  # drop k = m-? ; above[j+1] = #{d-m > j}


def degree_tail_counts(
    g: AttachmentLog, upto: int | None = None, split_at: int | None = None
) -> DegreeTailCounts:
    """Tail counts of the prefix graph on ``0..upto``, with optional in-degree split."""
    t = g.n if upto is None else upto
    if not 1 <= t <= g.n:
        raise ValueError(f"prefix time {t} out of range 1..{g.n}")
    if split_at is not None and not 1 <= split_at <= t:
        raise ValueError(f"split time {split_at} out of range 1..{t}")
    deg = g.degrees(upto=t)
    tail = _tail_from_degrees(deg, g.m)
    h_le = h_gt = None
    if split_at is not None:
        h_le = np.zeros(t + 1, dtype=np.int64)
        h_gt = np.zeros(t + 1, dtype=np.int64)
        if t > 1:
            tgt = g.targets[: (t - 1) * g.m]
            parents = np.repeat(np.arange(2, t + 1, dtype=np.int64), g.m)
            early = parents <= split_at
            h_le += np.bincount(tgt[early], minlength=t + 1)[: t + 1]
            h_gt += np.bincount(tgt[~early], minlength=t + 1)[: t + 1]
    return DegreeTailCounts(
        n=g.n, m=g.m, upto=t, split_at=split_at, degrees=deg, tail=tail, h_le=h_le, h_gt=h_gt
    )


def window_tail_diff(g: AttachmentLog, lo: int, hi: int) -> np.ndarray:
    """Tail-count increments N_{>k}(g_hi) - N_{>k}(g_{lo-1}), k = m, m+1, ...

    The degree side of the likelihood block of arrivals ``lo..hi``; for
    ``lo = 1`` nothing is subtracted.
    """
    out = degree_tail_counts(g, upto=hi).tail
    if lo > 1:
        pre = degree_tail_counts(g, upto=lo - 1).tail
        out[: len(pre)] -= pre
    return out


def substep_degrees(g: AttachmentLog, t_lo: int = 2) -> np.ndarray:
    """Degrees seen by each attachment from arrival ``t_lo`` on.

    Returns, for every sub-step (t, i) with t in [t_lo, n] in order, the degree
    of the chosen target just before the edge was added.  That is the target's
    degree in the prefix graph on ``0..t_lo-1`` (``m`` for a vertex born at or
    after ``t_lo``) plus the number of edges from arrival ``t_lo`` on that hit
    the same target before it: its rank in a stable sort of those edges by
    target.
    """
    if not 2 <= t_lo <= g.n + 1:
        raise ValueError(f"t_lo {t_lo} out of range 2..{g.n + 1}")
    n, m = g.n, g.m
    tl = g.targets[(t_lo - 2) * m :]
    before = np.full(n + 1, m, dtype=np.int64)
    before[:t_lo] = g.degrees(upto=t_lo - 1)
    order = np.argsort(tl, kind="stable")
    counts = np.bincount(tl, minlength=n + 1)
    first = np.cumsum(counts) - counts  # position of each target's first edge in sorted order
    rank = np.empty_like(tl)
    rank[order] = np.arange(len(tl), dtype=np.int64) - first[tl[order]]
    return before[tl] + rank


# ---------------------------------------------------------------------------
# Relabelable late vertices and permutation application
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoldSet:
    """Late vertices that can be permuted among themselves without leaving
    the attachment support.

    A member v > tau_prime has minimal degree m, all its children at or
    before tau_prime, and is the only parent of each child arriving after
    tau_prime.  Swapping the labels of two such vertices rewires nothing
    visible to the rest of the graph.
    """

    tau_prime: int
    members: np.ndarray  # sorted int64 labels

    @property
    def size(self) -> int:
        return int(self.members.shape[0])

    def __contains__(self, v: int) -> bool:
        i = int(np.searchsorted(self.members, v))
        return i < self.size and int(self.members[i]) == int(v)


def bold_vertices(g: AttachmentLog, tau_prime: int) -> BoldSet:
    """Extract the relabelable late-vertex set for cutoff ``tau_prime``.

    One pass over the log: per-vertex in-degrees, per-arrival maximum target,
    and for every vertex its two largest distinct parents.
    """
    n, m = g.n, g.m
    if not 0 <= tau_prime < n:
        raise ValueError(f"tau_prime {tau_prime} out of range 0..{n - 1}")
    tgt = g.targets
    in_deg = np.bincount(tgt, minlength=n + 1)
    in_deg[0] += m  # base edges 1 -> 0

    # Two largest distinct parents per vertex (parent of w = arrival that hit w).
    arrivals = np.repeat(np.arange(2, n + 1, dtype=np.int64), m)
    pairs_w = np.concatenate(([np.int64(0)], tgt))  # base edge parent: 1 -> 0
    pairs_p = np.concatenate(([np.int64(1)], arrivals))
    keys = pairs_w * np.int64(n + 2) + pairs_p
    uniq = np.unique(keys)  # sorted by (child, parent); multi-edges collapse
    uw = uniq // (n + 2)
    up = uniq % (n + 2)
    p1 = np.full(n + 1, -1, dtype=np.int64)  # largest parent
    p2 = np.full(n + 1, -1, dtype=np.int64)  # second largest distinct parent
    p1[uw] = up  # last write per child wins = largest parent
    if len(uw) > 1:
        same = uw[1:] == uw[:-1]
        p2[uw[1:][same]] = up[:-1][same]

    members = []
    if tau_prime == 0 and in_deg[1] == 0:
        # vertex 1's children are the implicit base edges to 0
        if p1[0] == 1 and p2[0] <= 0:
            members.append(1)
    if n >= 2:
        rows = tgt.reshape(n - 1, m)
        cand = np.arange(2, n + 1, dtype=np.int64)
        ok = in_deg[2:] == 0
        ok &= rows.max(axis=1) <= tau_prime
        ok &= (p1[rows] == cand[:, None]).all(axis=1)
        ok &= (p2[rows] <= tau_prime).all(axis=1)
        lo = max(tau_prime + 1, 2)
        ok[: lo - 2] = False
        members.extend(cand[ok].tolist())
    return BoldSet(tau_prime=tau_prime, members=np.asarray(sorted(members), dtype=np.int64))


def apply_permutation(g: AttachmentLog, perm) -> AttachmentLog:
    """Relabel the graph by a permutation of ``0..n`` and re-sort arrivals.

    The result is a valid log whenever the permutation only moves labels in
    ``bold_vertices(g, tau_prime)`` for some cutoff; for an arbitrary
    permutation the relabeled graph may have an upward arrow, which raises
    ``SupportViolation``.
    """
    n, m = g.n, g.m
    p = np.asarray(perm, dtype=np.int64)
    if p.shape != (n + 1,) or not np.array_equal(np.sort(p), np.arange(n + 1)):
        raise ValueError("perm must be a permutation of 0..n")
    if p[0] != 0:
        raise SupportViolation("label 0 must keep out-degree zero")
    src = np.concatenate(
        (np.full(m, 1, dtype=np.int64), np.repeat(np.arange(2, n + 1, dtype=np.int64), m))
    )
    dst = np.concatenate((np.zeros(m, dtype=np.int64), g.targets))
    new_src = p[src]
    new_dst = p[dst]
    if (new_dst >= new_src).any():
        raise SupportViolation("permutation creates an arrow toward a larger label")
    order = np.argsort(new_src, kind="stable")
    flat = new_dst[order][m:]  # drop the implicit arrival-1 row (all zeros)
    return AttachmentLog(n, m, flat, validate=False)
