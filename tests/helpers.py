"""Shared oracles for the test suite: exhaustive support enumeration,
factorial brute force over label permutations, a per-edge degree replay and
a pooled chi-square."""

import itertools
import math

import numpy as np
from scipy.stats import chi2

from pacp import AttachmentLog, apply_permutation, bold_vertices
from pacp.likelihood import log_lr


def support_graphs(n, m):
    """Every graph the attachment mechanism can produce, one canonical log
    each (targets of an arrival sorted ascending)."""
    rows_per_t = [
        list(itertools.combinations_with_replacement(range(t), m)) for t in range(2, n + 1)
    ]
    for combo in itertools.product(*rows_per_t):
        flat = np.fromiter(
            itertools.chain.from_iterable(combo), dtype=np.int64, count=(n - 1) * m
        )
        yield AttachmentLog(n, m, flat, validate=False)


def count_support(n, m):
    total = 1
    for t in range(2, n + 1):
        total *= math.comb(t + m - 1, m)
    return total


def brute_force_permuted_lr(g, tau, tau_prime, delta0, delta1):
    """Average the relabeled graph's LR over every permutation of the
    relabelable set; factorial enumeration, usable for small sets only."""
    members = bold_vertices(g, tau_prime).members.tolist()
    total = 0.0
    count = 0
    for image in itertools.permutations(members):
        perm = np.arange(g.n + 1, dtype=np.int64)
        for a, b in zip(members, image):
            perm[a] = b
        relabeled = apply_permutation(g, perm)
        total += math.exp(log_lr(relabeled, tau, delta0, delta1))
        count += 1
    return total / count


def replay_substep_degrees(g, t_lo):
    """Degree each attachment from arrival t_lo on saw, by replaying the log
    one edge at a time."""
    n, m = g.n, g.m
    if t_lo == n + 1:
        return np.empty(0, dtype=np.int64)
    deg = g.degrees(upto=t_lo - 1).tolist()
    deg.extend([0] * (n + 1 - len(deg)))
    tl = g.targets[(t_lo - 2) * m :].tolist()
    out = np.empty(len(tl), dtype=np.int64)
    pos = 0
    for t in range(t_lo, n + 1):
        for _ in range(m):
            v = tl[pos]
            out[pos] = deg[v]
            deg[v] += 1
            pos += 1
        deg[t] = m
    return out


def chi2_gof_pvalue(counts, probs, min_expected=5.0):
    """Chi-square goodness of fit with small expected cells pooled."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    total = counts.sum()
    expected = probs * total
    order = np.argsort(expected)
    counts, expected = counts[order], expected[order]
    pooled_c, pooled_e = [], []
    acc_c = acc_e = 0.0
    for c, e in zip(counts, expected):
        acc_c += c
        acc_e += e
        if acc_e >= min_expected:
            pooled_c.append(acc_c)
            pooled_e.append(acc_e)
            acc_c = acc_e = 0.0
    if acc_e > 0 and pooled_e:
        pooled_c[-1] += acc_c
        pooled_e[-1] += acc_e
    pooled_c = np.asarray(pooled_c)
    pooled_e = np.asarray(pooled_e)
    stat = float(((pooled_c - pooled_e) ** 2 / pooled_e).sum())
    dof = len(pooled_c) - 1
    if dof <= 0:
        return 1.0
    return float(chi2.sf(stat, dof))
