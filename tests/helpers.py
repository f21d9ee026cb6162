"""Shared oracles for the test suite: exhaustive support enumeration,
factorial brute force over label permutations, a per-edge degree replay, the
per-line PALOG formatter and parser, the relabelable set by its definition,
a pooled chi-square, the hypothesis strategy for attachment logs, the
float-weight Fenwick sampler that fixes every seeded stream, the two-pass
hit-count sampler that reports its guard draws, the Brent
window root-finder that the Newton polish replaced, the per-edge
arrival log weights and sort-every-row multiplicity sum that the per-degree
tables replaced, the whole-log degree layers that the cached final degrees
replaced, the in-degrees split at an arrival, the gammaln histogram
numerator that the tail-count blocks replaced, the grid normalizer sum and
the sequential elementary-symmetric loop that the power-sum table and the
product tree replaced, a log-space elementary-symmetric recursion, and the
line-start search that the one-byte-gap rule replaced."""

import itertools
import math

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import chi2

from pacp import AttachmentLog, BoldSet, apply_permutation, bold_vertices
from pacp.errors import MissingRow, PalogError, WrongOutDegree
from pacp.graph import _tail_from_degrees, substep_degrees
from pacp.inference import DELTA_MAX, GUARD_FACTOR, SCORE_TOL, WindowFit
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


def format_palog_by_line(g):
    """PALOG v1 text built one arrival line at a time."""
    lines = [f"PALOG v1 n={g.n} m={g.m}"]
    for t in range(2, g.n + 1):
        lines.append(f"{t} " + " ".join(str(v) for v in g.row(t)))
    return "\n".join(lines) + "\n"


def parse_palog_by_line(text):
    """PALOG v1 parsed one line at a time with Python's str.split and int."""
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
            if max(map(len, parts)) > 18:  # the grammar's longest token
                raise ValueError("token too long")
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


def bold_vertices_by_definition(g, tau_prime):
    """Members of the relabelable set, checked vertex by vertex against the
    BoldSet definition: v > tau_prime has no in-edges (degree m), every
    vertex it points to is at most tau_prime, and every other arrival that
    points to one of them is at most tau_prime.  Vertex 1 points to 0 by the
    m implicit base edges."""
    n, m = g.n, g.m
    out = {1: [0] * m}
    for t in range(2, n + 1):
        out[t] = g.row(t).tolist()
    into = {v: set() for v in range(n + 1)}
    for t, targets in out.items():
        for w in targets:
            into[w].add(t)
    members = []
    for v in range(max(tau_prime + 1, 1), n + 1):
        if into[v]:
            continue
        if all(w <= tau_prime and all(u <= tau_prime for u in into[w] - {v}) for w in out[v]):
            members.append(v)
    return members


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


@st.composite
def attachment_logs(draw, m_max=3):
    """Any log the attachment support allows, n <= 60 and m <= m_max."""
    n = draw(st.integers(1, 60))
    m = draw(st.integers(1, m_max))
    targets = [draw(st.integers(0, t - 1)) for t in range(2, n + 1) for _ in range(m)]
    return AttachmentLog(n, m, np.asarray(targets, dtype=np.int64))


# The attachment sampler as a binary indexed tree over float weights
# d(v) + delta, with an O(n) rebuild at tau: the stream oracle for simulate.

def _ft_add(tree: list, size: int, idx: int, dv: float) -> None:
    while idx <= size:
        tree[idx] += dv
        idx += idx & -idx


def _ft_build(leaves: list) -> list:
    # leaves[0] unused; in-place O(size) construction
    tree = list(leaves)
    size = len(tree) - 1
    for idx in range(1, size + 1):
        par = idx + (idx & -idx)
        if par <= size:
            tree[par] += tree[idx]
    return tree


def _top_bit(size: int) -> int:
    return 1 << (size.bit_length() - 1)


def attach_kernel_float_tree(n: int, m: int, d0: float, d1: float, tau: int, u) -> np.ndarray:
    """Draw all targets for arrivals 2..n, consuming uniforms in order.

    ``tau`` is the last arrival governed by d0; pass tau >= n for a constant
    profile.  One O(n) weight rebuild happens when the parameter switches.
    """
    size = n + 1
    top = _top_bit(size)
    deg = [0] * (n + 1)
    deg[0] = m
    deg[1] = m
    delta = d0 if 2 <= tau else d1
    tree = [0.0] * (size + 1)
    _ft_add(tree, size, 1, m + delta)
    _ft_add(tree, size, 2, m + delta)
    out = np.empty((n - 1) * m, dtype=np.int64)
    ul = u.tolist()
    two_m = 2 * m
    pos = 0
    for t in range(2, n + 1):
        if t == tau + 1:
            delta = d1
            leaves = [0.0] * (size + 1)
            for v in range(t):
                leaves[v + 1] = deg[v] + delta
            tree = _ft_build(leaves)
        s_base = (two_m + delta) * t - two_m
        for i in range(m):
            s = ul[pos] * (s_base + i)
            j = 0
            half = top
            while half:
                k = j + half
                if k <= size and tree[k] < s:
                    s -= tree[k]
                    j = k
                half >>= 1
            if j >= t:  # guards the <= 1 ulp gap between closed form and tree total
                j = t - 1
            out[pos] = j
            pos += 1
            deg[j] += 1
            idx = j + 1
            while idx <= size:
                tree[idx] += 1.0
                idx += idx & -idx
        deg[t] = m
        if t < n and t != tau:
            _ft_add(tree, size, t + 1, m + delta)
    return out


def attach_kernel_two_pass(n: int, m: int, d0: float, d1: float, tau: int, u):
    """The hit-count sampler with its hit update as a second Fenwick walk
    after each descent: the form the fused single pass replaced.  Returns
    the targets and the positions of the draws whose descent ran past the
    pool (the ``j >= t`` guard)."""
    tree = [0] * (n + 1)
    out = np.empty((n - 1) * m, dtype=np.int64)
    ul = u.tolist()
    two_m = 2 * m
    halves = [1 << b for b in range(n.bit_length() - 1, -1, -1)]
    delta = d0 if tau >= 2 else d1
    guarded = []
    pos = 0
    for t in range(2, n + 1):
        if t == tau + 1:
            delta = d1
        s_base = (two_m + delta) * t - two_m
        for i in range(m):
            s = ul[pos] * (s_base + i)
            j = 0
            for half in halves:
                k = j + half
                if k <= t:
                    w = tree[k] + half * (m + delta)
                    if w < s:
                        s -= w
                        j = k
            if j >= t:
                guarded.append(pos)
                j = t - 1
            out[pos] = j
            pos += 1
            j += 1
            while j <= n:
                tree[j] += 1
                j += j & -j
    return out, guarded


def solve_window_brentq(score_fn, m, window):
    """Expanding-bracket + Brent root search on (-m + guard, DELTA_MAX]: the
    window solver before the Newton polish, kept as its oracle."""
    guard = -m + GUARD_FACTOR * m
    s0 = score_fn(0.0)
    if s0 == 0.0:
        return WindowFit(window, "converged", 0.0, 0.0, (0.0, 0.0), (0.0, 0.0), 0)
    if s0 > 0:
        a, sa = 0.0, s0
        b = 1.0
        while True:
            sb = score_fn(b)
            if sb <= 0:
                break
            if b >= DELTA_MAX:
                return WindowFit(window, "no_interior_root", None, None, (a, b), (s0, sb), 0)
            a, sa = b, sb
            b = min(b * 2.0, DELTA_MAX)
    else:
        b, sb = 0.0, s0
        gap = m / 2.0
        while True:
            a = -m + gap
            if a < guard:
                a = guard
            sa = score_fn(a)
            if sa >= 0:
                break
            if a <= guard:
                return WindowFit(window, "no_interior_root", None, None, (a, b), (sa, s0), 0)
            b, sb = a, sa
            gap /= 2.0
    # invariant: score(a) >= 0 >= score(b); brentq polishes to float precision
    lo, s_lo, hi, s_hi = (a, sa, b, sb) if a < b else (b, sb, a, sa)
    root, res = brentq(
        score_fn, lo, hi, xtol=np.finfo(float).tiny, rtol=4 * np.finfo(float).eps,
        full_output=True, disp=False,
    )
    # the Newton polish's status rule: |s| within SCORE_TOL or the noise
    # floor, or a sign change within xtol + rtol|root| of the root
    s_root, _, noise = score_fn(root, slope=True)
    converged = abs(s_root) <= max(SCORE_TOL, noise) or sign_change_near(score_fn, root, s_root)
    status = "converged" if converged else "max_iterations"
    return WindowFit(window, status, root, s_root, (lo, hi), (s_lo, s_hi), res.iterations)


def sign_change_near(score_fn, x, s):
    """Whether the score, s at x, changes sign within xtol + rtol|x| of x
    (xtol = tiny, rtol = 4 eps) on the side its sign points to."""
    width = np.finfo(float).tiny + 4 * np.finfo(float).eps * abs(x)
    near = score_fn(x + width if s > 0 else x - width)
    return near <= 0 if s > 0 else near >= 0


def arrival_log_weights_per_edge(g, t_lo, delta0, delta1):
    """Per-arrival log weights with two logs per edge: the form before the
    per-degree price table, kept as its oracle."""
    d = substep_degrees(g, t_lo).astype(np.float64)
    return (np.log(d + delta1) - np.log(d + delta0)).reshape(-1, g.m).sum(axis=1)


def log_mult_sum_sort_rows(g):
    """Sum over arrivals of log(mu!) with every row sorted: the form before
    the repeated-row filter, kept as its oracle."""
    if g.m == 1 or g.n == 1:
        return 0.0
    rows = np.sort(g.targets.reshape(g.n - 1, g.m), axis=1)
    contrib = np.zeros(g.n - 1)
    run = np.ones(g.n - 1)
    for c in range(1, g.m):
        same = rows[:, c] == rows[:, c - 1]
        run = np.where(same, run + 1.0, 1.0)
        contrib += np.where(same, np.log(run), 0.0)
    return math.fsum(contrib.tolist())


# The degree layers before the cached final degrees: each reads the whole
# log, or the whole prefix, and is kept as the oracle of its replacement.

def degrees_by_prefix_bincount(g, upto=None):
    """Degrees of the prefix graph on 0..upto from one bincount of the
    prefix's targets."""
    t = g.n if upto is None else upto
    if not 1 <= t <= g.n:
        raise ValueError(f"prefix time {t} out of range 1..{g.n}")
    deg = np.full(t + 1, g.m, dtype=np.int64)
    if t > 1:
        hits = np.bincount(g.targets[: (t - 1) * g.m], minlength=t + 1)
        deg += hits[: t + 1]
    return deg


def window_tail_diff_two_prefixes(g, lo, hi):
    """Tail-count increments of arrivals lo..hi as the tail counts of the
    prefix at hi minus those of the prefix at lo - 1."""
    out = _tail_from_degrees(degrees_by_prefix_bincount(g, hi), g.m)
    if lo > 1:
        pre = _tail_from_degrees(degrees_by_prefix_bincount(g, lo - 1), g.m)
        out[: len(pre)] -= pre
    return out


def substep_degrees_from_prefix(g, t_lo=2):
    """Degrees seen by each attachment from arrival t_lo on, starting from
    an (n+1)-length vector of the prefix degrees at t_lo - 1."""
    if not 2 <= t_lo <= g.n + 1:
        raise ValueError(f"t_lo {t_lo} out of range 2..{g.n + 1}")
    n, m = g.n, g.m
    tl = g.targets[(t_lo - 2) * m :]
    size = len(tl)
    before = np.full(n + 1, m, dtype=np.int64)
    before[:t_lo] = degrees_by_prefix_bincount(g, t_lo - 1)
    keys = np.multiply(tl, size)
    keys += np.arange(size, dtype=np.int64)
    keys.sort()
    position = keys % size
    np.floor_divide(keys, size, out=keys)  # sorted targets
    counts = np.bincount(keys, minlength=n + 1)
    before -= np.cumsum(counts) - counts  # minus each target's first slot
    keys = before[keys]  # plus the slot: the degree each edge saw
    keys += np.arange(size, dtype=np.int64)
    out = np.empty_like(keys)
    out[position] = keys
    return out


def bold_vertices_whole_log(g, tau_prime):
    """The relabelable set from every vertex's in-degree and two largest
    distinct parents over the whole log."""
    n, m = g.n, g.m
    if not 0 <= tau_prime < n:
        raise ValueError(f"tau_prime {tau_prime} out of range 0..{n - 1}")
    tgt = g.targets
    in_deg = np.bincount(tgt, minlength=n + 1)
    in_deg[0] += m  # base edges 1 -> 0
    keys = np.empty(len(tgt) + 1, dtype=np.int64)
    keys[0] = 1
    np.multiply(tgt, n + 2, out=keys[1:])
    by_arrival = keys[1:].reshape(n - 1, m)
    by_arrival += np.arange(2, n + 1, dtype=np.int64)[:, None]
    keys.sort()
    uw, up = np.divmod(keys[np.concatenate(([True], keys[1:] != keys[:-1]))], n + 2)
    p1 = np.full(n + 1, -1, dtype=np.int64)  # largest parent
    p2 = np.full(n + 1, -1, dtype=np.int64)  # second largest distinct parent
    p1[uw] = up  # last write per child wins = largest parent
    if len(uw) > 1:
        same = uw[1:] == uw[:-1]
        p2[uw[1:][same]] = up[:-1][same]
    lo = max(tau_prime + 1, 2)
    rows = tgt[(lo - 2) * m :].reshape(-1, m)
    cand = np.arange(lo, n + 1, dtype=np.int64)
    ok = in_deg[lo:] == 0
    for c in range(m):
        col = rows[:, c]
        ok &= col <= tau_prime
        ok &= p1[col] == cand
        ok &= p2[col] <= tau_prime
    members = cand[ok]
    # Vertex 1's children are the implicit base edges to 0.
    if tau_prime == 0 and in_deg[1] == 0 and p1[0] == 1 and p2[0] <= 0:
        members = np.concatenate(([1], members))
    return BoldSet(tau_prime=tau_prime, members=members)


def split_in_degrees(g, split_at):
    """Random in-edges of every vertex split by parent arrival time: hits
    from arrivals 2..split_at and hits from later arrivals, each from a
    plain bincount over all n + 1 vertices."""
    cut = (split_at - 1) * g.m
    return (
        np.bincount(g.targets[:cut], minlength=g.n + 1),
        np.bincount(g.targets[cut:], minlength=g.n + 1),
    )


# The likelihood numerator before the tail-count blocks: log-gamma of every
# realized degree, weighted by the degree histogram, three blocks for a step.

def _degree_hist(degrees: np.ndarray, m: int) -> np.ndarray:
    return np.bincount(degrees - m)


def _hist_dot(hist: np.ndarray, values: np.ndarray) -> float:
    # fixed ascending-degree order: bit-identical for isomorphic logs
    return math.fsum((hist * values).tolist())


def _numerator_block(hist: np.ndarray, m: int, delta: float) -> float:
    """Sum over vertices of log[(m+d)(m+1+d)...(deg-1+d)] from a degree histogram."""
    d = np.arange(m, m + len(hist), dtype=np.float64)
    vals = gammaln(d + delta) - gammaln(m + delta)
    return _hist_dot(hist, vals)


def log_numerator_gammaln(g, profile):
    """log_likelihood's degree side from degree histograms and gammaln."""
    n, m = g.n, g.m
    d0 = profile.delta0
    tau = n if not profile.is_step else profile.tau
    if n == 1:
        return 0.0
    if tau >= n:
        hist = _degree_hist(g.degrees(), m)
        num = _numerator_block(hist, m, d0)
    else:
        d1 = profile.delta1
        if tau >= 1:
            hist_pre = _degree_hist(g.degrees(upto=tau), m)
        else:
            hist_pre = np.zeros(1, dtype=np.int64)
        hist_fin = _degree_hist(g.degrees(), m)
        num = (
            _numerator_block(hist_pre, m, d0)
            + _numerator_block(hist_fin, m, d1)
            - _numerator_block(hist_pre, m, d1)
        )
    return num


def degree_moment_by_arrival(u, t, m, delta0):
    """(xi, kappa, gamma_prod) of ``theory.degree_moment`` by the backward
    per-arrival recursion with an inner loop over sub-steps, kept as the
    oracle of its rising-factorial products."""
    xi, kappa, gamma_prod = 1.0, 0.0, 1.0
    for j in range(t, max(1, u), -1):
        s = (2.0 * m + delta0) * j - 2.0 * m + np.arange(m, dtype=np.float64)
        alpha_j = float(np.prod(1.0 + 2.0 / s))
        gamma_j = float(np.prod(1.0 + 1.0 / s))
        beta_j = 0.0
        for k in range(m, 0, -1):
            beta_j = beta_j * (1.0 + 1.0 / s[k - 1]) + (
                float(np.prod(1.0 + 2.0 / s[k:])) / s[k - 1]
            )
        kappa = xi * beta_j + kappa * gamma_j
        xi = xi * alpha_j
        gamma_prod *= gamma_j
    return xi, kappa, gamma_prod


# The forms before the power-sum normalizer, the product tree and the
# one-byte-gap line starts, kept as their oracles.

def log_s_sum_grid(t_lo, t_hi, delta, m):
    """Sum of log S = log((2m+d)t - 2m + i) over the sub-steps of arrivals
    t_lo..t_hi (from 2 on), one log per sub-step."""
    t = np.arange(max(t_lo, 2), t_hi + 1, dtype=np.float64)
    grid = ((2 * m + delta) * t - 2 * m)[:, None] + np.arange(m, dtype=np.float64)[None, :]
    return float(np.log(grid).sum())


def log_esp_loop(log_values, r):
    """log e_r of exp(log_values) by the sequential recursion
    e_j += w e_{j-1}, one Python iteration per value, the values scaled by
    their geometric mean and the table renormalized past 1e250.  It loses
    the low orders once the values spread by more than about 30 in log."""
    k = len(log_values)
    if not 0 <= r <= k:
        raise ValueError(f"order {r} out of range 0..{k}")
    if r == 0:
        return 0.0
    mu = float(log_values.mean())
    w = np.exp(log_values - mu)
    e = np.zeros(r + 1, dtype=np.float64)
    e[0] = 1.0
    shift = 0.0
    for x in w.tolist():
        e[1:] = e[1:] + x * e[:-1]
        top = e.max()
        if top > 1e250:
            e /= top
            shift += math.log(top)
    return math.log(e[r]) + shift + r * mu


def log_esp_log_space(log_values, r):
    """log e_r of exp(log_values) by the same recursion held in logs,
    log e_j = logaddexp(log e_j, x + log e_{j-1}): nothing overflows or
    underflows at any spread."""
    le = np.full(r + 1, -np.inf)
    le[0] = 0.0
    for x in np.asarray(log_values, dtype=np.float64).tolist():
        le[1:] = np.logaddexp(le[1:], x + le[:-1])
    return float(le[r])


def line_first_tokens_searchsorted(b):
    """Index of each line's first token in a block of whole lines that
    starts at a line start: the first token after every line break, found
    by one search per break."""
    breaks = (b == 10) | (b == 13)
    tok = ~(breaks | (b == 32) | (b == 9))
    edges = np.flatnonzero(np.diff(np.concatenate(([False], tok, [False])).astype(np.int8)))
    starts = edges[0::2]
    is_first = np.zeros(len(starts) + 1, dtype=bool)
    is_first[0] = True
    is_first[np.searchsorted(starts, np.flatnonzero(breaks))] = True
    return np.flatnonzero(is_first[: len(starts)])
