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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _s_grid(t_lo: int, t_hi: int, delta: float, m: int) -> np.ndarray:
    """Normalizing totals S = (2m+d)t - 2m + i of every sub-step of arrivals
    t_lo..t_hi (from 2 on), one row of m per arrival; empty if none."""
    t = np.arange(max(t_lo, 2), t_hi + 1, dtype=np.float64)
    return ((2 * m + delta) * t - 2 * m)[:, None] + np.arange(m, dtype=np.float64)[None, :]


def _log_degree(m: int, size: int, delta: float) -> np.ndarray:
    """log(k + delta) for the degrees k = m .. m + size - 1."""
    return np.log(np.arange(m, m + size, dtype=np.float64) + delta)


def log_s_sum(t_lo: int, t_hi: int, delta: float, m: int) -> float:
    """Sum of log normalizing totals over arrivals t_lo..t_hi (all sub-steps)."""
    return float(np.log(_s_grid(t_lo, t_hi, delta, m)).sum())


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


def _log_s_ratio(tau: int, n: int, d0: float, d1: float, m: int) -> float:
    """log of prod over post-change sub-steps of S(d0)/S(d1)."""
    return log_s_sum(tau + 1, n, d0, m) - log_s_sum(tau + 1, n, d1, m)


def _log_s_rows(t_lo: int, t_hi: int, delta0: float, delta1: float, m: int) -> np.ndarray:
    """Per-arrival sum_i log S(delta1) - log S(delta0) over the sub-steps of
    arrivals t_lo..t_hi (from 2 on), one entry per arrival."""
    s0, s1 = _s_grid(t_lo, t_hi, delta0, m), _s_grid(t_lo, t_hi, delta1, m)
    np.log(s1, out=s1)
    s1 -= np.log(s0, out=s0)
    return s1.sum(axis=1)


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
    return price[d].reshape(-1, m).sum(axis=1)


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
