"""Exact log-likelihoods and log likelihood-ratios of attachment logs.

Everything is computed in log space.  A likelihood factors into blocks, one
per run of arrivals under one parameter.  A block's degree side is
sum_k diff_k log(k+d) over its tail-count increments diff_k (the change of
N_{>k} across the block, k = m, m+1, ...), so sums run over realized
degrees in ascending order, never over all nm possible values; its
normalizer sums log S over the grid S = (2m+d)t - 2m + i of its sub-steps.
The order-sensitive scalar accumulations use exactly-rounded summation
(math.fsum) so results do not depend on vertex labeling.  The module is
numpy-only.

Normalizers that compare two deltas, or that a root-finder re-evaluates,
are priced from one power-sum table per window (``_window_powers``).  With
A = 2m+d and a_i = 2m-i, sub-step i of arrival t has S = At - a_i, and
t/S = sum_j a_i^j / (A^(j+1) t^j), where a_i/(At) < 2/t.  Arrivals below
T0 = 64 are summed directly; from the window's first arrival T >= T0 on,
the series is cut after J terms, the least J with (2/T)^J <= 1e-18 (J = 12
at T = 64, 7 at T = 1501).  The table holds the head arrivals, the power
sums P_j = sum_{t>=T} t^-j and the moments sum_i a_i^j for j = 0..J; it
depends only on (lo, hi, m), so a small LRU cache keeps the last few
windows, built on first use (a window that starts below arrival 2 shares
the table of the same window from 2).  Every sum it feeds has terms of one
sign, so no large sums cancel.

The S-ratio log S(d1)/S(d0) is one set of terms, ``_ratio_terms``: head
rows and series coefficients c_j, evaluated per arrival by ``_log_s_rows``
and summed against the P_j for the window total ``_log_s_ratio``.

``log_s_sum`` is priced from the same table: log S = log A + log t +
log(1 - a_i/(At)), so the series arrivals give m N log A + m sum log t -
sum_j M_j P_j A^-j / j, with the sum of log t over them held in the table
(to an ulp); head sub-steps are summed directly.  The same table prices
``theory.degree_moment``'s log-products sum log(1 + 1/(S + c)), c = 0, 1
(``_log_growth``), through the same series loop.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, check_domain
from .graph import AttachmentLog, substep_degrees, window_tail_diff
from .simulation import DeltaProfile

__all__ = [
    "BoundedValue",
    "LogLik",
    "arrival_log_weights",
    "log_likelihood",
    "log_lr",
    "log_s_sum",
    "s_product_ratio",
    "s_value",
]


def s_value(t: int, i: int, delta: float, m: int) -> float:
    """Normalizing total just before edge i of arrival t: (2m+d)t - 2m + i - 1."""
    check_domain(m, delta=delta)
    if t < 2 or not 1 <= i <= m:
        raise DomainError(f"sub-step (t={t}, i={i}) needs t >= 2 and 1 <= i <= m")
    return (2 * m + delta) * t - 2 * m + (i - 1)


def _log_degree(m: int, size: int, delta: float) -> np.ndarray:
    """log(k + delta) for the degrees k = m .. m + size - 1."""
    return np.log(np.arange(m, m + size, dtype=np.float64) + delta)


def log_s_sum(t_lo: int, t_hi: int, delta: float, m: int) -> float:
    """Sum of log normalizing totals over arrivals t_lo..t_hi (all sub-steps).

    A head sub-step's log S is log1p(S - 1) with S - 1 = (m+d)t + (m(t-2) +
    i - 1), two non-negative parts except at arrival 2's first sub-step,
    where S = 2(m+d) and log S is taken directly once S < 1/2; so each
    keeps its relative accuracy near d = -m and near S = 1.  The series
    arrivals are priced from the window's table (see the module docstring).
    """
    if max(t_lo, 2) > t_hi:
        return 0.0
    w = _window_powers(t_lo, t_hi, m)
    head = np.log1p((m + delta) * w.head_t + w.head_c)
    if len(head) and w.head_t[0, 0] == 2 and 2.0 * (m + delta) < 0.5:
        head[0, 0] = math.log(2.0 * (m + delta))  # arrival 2's first sub-step
    a = 2 * m + delta
    series = _series_sum(w.p, w.moments, a)
    return math.fsum((float(head.sum()), m * w.p[0] * math.log(a), m * w.log_t, -series))


def _series_sum(p, coeffs, a: float) -> float:
    """sum_{j>=1} coeffs_j P_j a^-j / j over a window's series terms."""
    series, x = 0.0, 1.0
    for j in range(1, len(p)):
        x /= a
        series += coeffs[j] * p[j] * x / j
    return series


def _log_growth(t_lo: int, t_hi: int, delta: float, m: int, c: int) -> float:
    """Sum of log(1 + 1/(S + c)) over the sub-steps of arrivals t_lo..t_hi
    (from 2 on), for c = 0 or 1.

    A head sub-step's S + c is (m+d)t + (m(t-2) + i + c), two non-negative
    parts.  For a series arrival, log(1 + 1/(S+c)) = log(1 - (a_i-c-1)/(At))
    - log(1 - (a_i-c)/(At)), so the series arrivals give sum_j D_j P_j A^-j / j
    with D_j = sum_i (a_i-c)^j - (a_i-c-1)^j = (2m-c)^j - (m-c)^j (the sum
    telescopes over a_i = m+1..2m): exact positive integers, so every term
    is positive and nothing cancels.
    """
    if max(t_lo, 2) > t_hi:
        return 0.0
    w = _window_powers(t_lo, t_hi, m)
    head = np.log1p(1.0 / ((m + delta) * w.head_t + (w.head_c + (1 + c))))
    d = [float((2 * m - c) ** j - (m - c) ** j) for j in range(len(w.p))]
    return math.fsum((float(head.sum()), _series_sum(w.p, d, 2 * m + delta)))


def _log_mult_sum(g: AttachmentLog) -> float:
    """Sum over arrivals of log(mu!) for each target multiplicity mu."""
    if g.m == 1 or g.n == 1:
        return 0.0
    rows = g.targets.reshape(g.n - 1, g.m)
    # Only rows that repeat a target contribute; math.fsum is exactly
    # rounded, so leaving out the zero rows changes no bit.
    repeats = np.zeros(g.n - 1, dtype=bool)
    for a in range(1, g.m):
        for b in range(a):
            repeats |= rows[:, a] == rows[:, b]
    rows = np.sort(rows[repeats], axis=1)
    contrib = np.zeros(len(rows))
    run = np.ones(len(rows))
    for c in range(1, g.m):
        same = rows[:, c] == rows[:, c - 1]
        run = np.where(same, run + 1.0, 1.0)
        contrib += np.where(same, np.log(run), 0.0)
    return math.fsum(contrib.tolist())


@dataclass(frozen=True)
class LogLik:
    """Natural-log probability of a labeled log, with its three components."""

    value: float
    log_comb: float
    log_numerator: float
    log_normalizer: float


def log_likelihood(g: AttachmentLog, profile: DeltaProfile) -> LogLik:
    """Exact log-probability of the labeled graph under the given profile.

    A step profile factorizes into the pre-change block (arrivals 1..tau at
    delta0) and the post-change block (tau+1..n at delta1), each with its
    own degree side and normalizer; a constant profile is the pre-change
    block alone (tau = n).
    """
    n, m = g.n, g.m
    profile.validate(n, m)
    if n == 1:
        return LogLik(0.0, 0.0, 0.0, 0.0)
    log_comb = (n - 1) * math.lgamma(m + 1) - _log_mult_sum(g)
    tau = profile.tau if profile.is_step else n
    num = norm = 0.0
    for lo, hi, delta in ((1, tau, profile.delta0), (tau + 1, n, profile.delta1)):
        if lo <= hi:
            diff = window_tail_diff(g, lo, hi)
            num += math.fsum((diff * _log_degree(m, len(diff), delta)).tolist())
            norm += log_s_sum(lo, hi, delta, m)
    return LogLik(log_comb + num - norm, log_comb, num, norm)


_T0 = 64  # arrivals below this are summed directly
_SERIES_CUT = 1e-18  # the series stops at the least J with (2/T)^J <= this


class _Powers(NamedTuple):
    """A window's normalizer table (see the module docstring)."""

    head: np.ndarray  # (m(t-2) + i)/t per head sub-step, one row per arrival
    head_t: np.ndarray  # the head arrivals t, one row each
    head_c: np.ndarray  # m(t-2) + i - 1 per head sub-step, exact
    first_tail: int  # T: the first arrival priced by the series
    p: tuple[float, ...]  # P_j = sum_{t=T}^{hi} t^-j, j = 0..J; P_0 counts them
    moments: tuple[float, ...]  # sum_i (2m - i)^j, j = 0..J
    log_t: float  # sum_{t=T}^{hi} log t, to an ulp


def _series_terms(first: int) -> int:
    """The least J with (2/first)^J <= _SERIES_CUT."""
    j = 1
    while (2.0 / first) ** j > _SERIES_CUT:
        j += 1
    return j


def _window_powers(lo: int, hi: int, m: int) -> _Powers:
    """The normalizer table of arrivals lo..hi (from 2 on); read-only."""
    return _powers_table(max(lo, 2), hi, m)


@functools.lru_cache(maxsize=32)
def _powers_table(lo: int, hi: int, m: int) -> _Powers:
    """``_window_powers`` for lo >= 2, cached."""
    split = min(max(lo, _T0), hi + 1)
    t = np.arange(lo, split, dtype=np.float64)[:, None]
    c = m * (t - 2) + np.arange(m, dtype=np.float64)[None, :]
    head = c / t
    c -= 1.0
    for table in (head, t, c):
        table.setflags(write=False)
    j_max = _series_terms(split) if split <= hi else 0
    tail = np.arange(split, hi + 1, dtype=np.float64)
    # Pairwise sums of 1024 logs each, their sum exactly rounded: within an
    # ulp of the exactly rounded sum, at a fifteenth of its cost.
    log_t = math.fsum(np.add.reduceat(np.log(tail), np.arange(0, len(tail), 1024)).tolist())
    inv = np.reciprocal(tail, out=tail)
    p, power = [float(len(inv))], inv.copy()
    for _ in range(j_max):
        p.append(float(power.sum()))
        power *= inv
    a = [float(2 * m - i) for i in range(m)]
    moments = tuple(math.fsum(x**j for x in a) for j in range(j_max + 1))
    return _Powers(head, t, c, split, tuple(p), moments, log_t)


def _log_quotient(num, den, diff):
    """log(num/den) for positive num and den, given diff = num - den to full
    accuracy: log1p(diff/den), except where num/den < 1/2, where
    log(num/den) is the accurate form.  Arrays are priced elementwise."""
    x = diff / den
    if isinstance(x, float):
        return math.log1p(x) if x >= -0.5 else math.log(num / den)
    return np.where(x >= -0.5, np.log1p(np.maximum(x, -0.5)), np.log(num / den))


def _ratio_terms(w: _Powers, d_num: float, d_den: float, m: int) -> tuple[np.ndarray, list[float]]:
    """The terms of log S(d_num)/S(d_den) over window ``w``: each head
    arrival's row sum_i log S(d_num)/S(d_den), and the coefficients c_0..c_J
    of a series arrival's row sum_j c_j t^-j.

    Each series sub-step gives log(A_num/A_den) + log(1 - a_i/(A_num t)) -
    log(1 - a_i/(A_den t)), so c_0 = m log(A_num/A_den) and c_j = M_j
    (A_den^-j - A_num^-j)/j = M_j A_num^-j expm1(j log(A_num/A_den))/j, each
    power difference formed without cancellation.
    """
    heads = _log_quotient(m + d_num + w.head, m + d_den + w.head, d_num - d_den).sum(axis=1)
    log_ratio = _log_quotient(2 * m + d_num, 2 * m + d_den, d_num - d_den)
    x = 1.0 / (2 * m + d_num)
    coef = [m * log_ratio] + [
        w.moments[j] * x**j * math.expm1(j * log_ratio) / j for j in range(1, len(w.p))
    ]
    return heads, coef


def _log_s_ratio(tau: int, n: int, d0: float, d1: float, m: int) -> float:
    """log of prod over post-change sub-steps of S(d0)/S(d1): minus the head
    rows and sum_j c_j P_j of ``_ratio_terms`` with (d_num, d_den) = (d1, d0)."""
    w = _window_powers(tau + 1, n, m)
    heads, coef = _ratio_terms(w, d1, d0, m)
    return -math.fsum(heads.tolist() + [c * p for c, p in zip(coef, w.p)])


def _log_s_rows(t_lo: int, t_hi: int, delta0: float, delta1: float, m: int) -> np.ndarray:
    """Per-arrival sum_i log S(delta1) - log S(delta0) over the sub-steps of
    arrivals t_lo..t_hi (from 2 on), one entry per arrival.

    A series row is the polynomial sum_j c_j t^-j of ``_ratio_terms``,
    evaluated by Horner's rule.  The bound 2/t falls along the window, so
    each 16-fold stretch of arrivals takes only the terms its own first
    arrival needs.
    """
    w = _window_powers(t_lo, t_hi, m)
    heads, coef = _ratio_terms(w, delta1, delta0, m)
    rows = np.empty(len(heads) + t_hi + 1 - w.first_tail)
    rows[: len(heads)] = heads
    first, offset = w.first_tail, len(heads) - w.first_tail
    while first <= t_hi:
        stop = min(16 * first, t_hi + 1)
        seg = rows[offset + first : offset + stop]
        x = 1.0 / np.arange(first, stop, dtype=np.float64)
        terms = coef[: _series_terms(first) + 1]
        seg.fill(terms[-1])
        for c in reversed(terms[:-1]):
            seg *= x
            seg += c
        first = stop
    return rows


def _degree_price(m: int, size: int, delta0: float, delta1: float) -> np.ndarray:
    """Log weight log(k+delta1) - log(k+delta0) of one attachment to a vertex
    of degree k, for k = m .. m + size - 1."""
    return _log_degree(m, size, delta1) - _log_degree(m, size, delta0)


def arrival_log_weights(g: AttachmentLog, t_lo: int, delta0: float, delta1: float) -> np.ndarray:
    """Per-arrival log weight sum_i log(d+delta1) - log(d+delta0) over the
    degrees d that arrival t's m edges saw; entry j is arrival t_lo + j."""
    m = g.m
    d = substep_degrees(g, t_lo)
    d -= m
    # Every degree is at least m: price each degree up to the largest once.
    price = _degree_price(m, int(d.max(initial=0)) + 1, delta0, delta1)
    priced = price[d]
    # Summed column by column, the order of numpy's row sum below 8 columns.
    out = priced[0::m].copy()
    for i in range(1, m):
        out += priced[i::m]
    return out


def log_lr(g: AttachmentLog, tau: int, delta0: float, delta1: float, method: str = "tail") -> float:
    """log of the step-vs-constant likelihood ratio at change time tau.

    ``method="tail"`` uses the tail-count increments (one-shot evaluation);
    ``method="sequential"`` replays the post-change attachments one by one.
    Both are exact and must agree to float accuracy.
    """
    n, m = g.n, g.m
    if not 1 <= tau <= n:
        raise DomainError(f"tau must lie in 1..{n}, got {tau}")
    check_domain(m, delta0=delta0, delta1=delta1)
    if tau == n:
        return 0.0
    s_part = _log_s_ratio(tau, n, delta0, delta1, m)
    if method == "tail":
        diff = window_tail_diff(g, tau + 1, n)
        deg_part = math.fsum((diff * _degree_price(m, len(diff), delta0, delta1)).tolist())
    elif method == "sequential":
        deg_part = math.fsum(arrival_log_weights(g, tau + 1, delta0, delta1).tolist())
    else:
        raise ValueError(f"unknown method {method!r}")
    return s_part + deg_part


def safe_exp(x: float) -> float:
    """exp saturating to inf/0 instead of raising far outside float range."""
    if x > 709.0:
        return math.inf
    if x < -745.0:
        return 0.0
    return math.exp(x)


@dataclass(frozen=True)
class BoundedValue:
    """A computed quantity together with two-sided analytic bounds."""

    value: float
    lower: float
    upper: float
    log_value: float
    log_lower: float
    log_upper: float

    def __post_init__(self):
        if not (self.log_lower <= self.log_value <= self.log_upper):
            raise AssertionError(
                f"bound violated: log {self.log_lower} <= {self.log_value} <= {self.log_upper}"
            )


def _enveloped(value: float, log_value: float, center: float, slack: float) -> BoundedValue:
    """``value`` with the two-sided envelope e^{center -+ slack}."""
    lower, upper = center - slack, center + slack
    return BoundedValue(value, safe_exp(lower), safe_exp(upper), log_value, lower, upper)


def s_product_ratio(tau: int, n: int, delta0: float, delta1: float, m: int) -> BoundedValue:
    """Exact post-change normalizer ratio prod S(d0)/S(d1) with its two-sided
    e^{+-6m(n-tau)/tau} ((2m+d0)/(2m+d1))^{m(n-tau)} envelope (needs tau >= 3)."""
    if tau < 3:
        raise DomainError(f"the envelope needs tau >= 3, got {tau}")
    if n < tau:
        raise DomainError(f"need n >= tau, got n={n} < tau={tau}")
    check_domain(m, delta0=delta0, delta1=delta1)
    width = n - tau
    log_value = _log_s_ratio(tau, n, delta0, delta1, m)
    center = m * width * math.log((2 * m + delta0) / (2 * m + delta1))
    return _enveloped(safe_exp(log_value), log_value, center, 6.0 * m * width / tau)
