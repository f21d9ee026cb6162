"""Exact log-likelihoods and log likelihood-ratios of attachment logs.

Everything is computed in log space.  The degree side of each formula is a
function of the tail counts N_{>k} only, so sums run over realized degrees
(histogram order), never over all nm possible values; the order-sensitive
scalar accumulations use exactly-rounded summation (math.fsum) so results do
not depend on vertex labeling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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
    if t < 2 or not 1 <= i <= m:
        raise DomainError(f"sub-step (t={t}, i={i}) needs t >= 2 and 1 <= i <= m")
    if delta <= -m:
        raise DomainError(f"delta must be > -m = {-m}")
    return (2 * m + delta) * t - 2 * m + (i - 1)


def log_s_sum(t_lo: int, t_hi: int, delta: float, m: int) -> float:
    """Sum of log normalizing totals over arrivals t_lo..t_hi (all sub-steps)."""
    if t_hi < t_lo:
        return 0.0
    t = np.arange(max(t_lo, 2), t_hi + 1, dtype=np.float64)
    if len(t) == 0:
        return 0.0
    base = (2 * m + delta) * t - 2 * m
    return float(np.log(base[:, None] + np.arange(m, dtype=np.float64)[None, :]).sum())


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


def _degree_hist(degrees: np.ndarray, m: int) -> np.ndarray:
    return np.bincount(degrees - m)


def _hist_dot(hist: np.ndarray, values: np.ndarray) -> float:
    # fixed ascending-degree order: bit-identical for isomorphic logs
    return math.fsum((hist * values).tolist())


def _numerator_block(hist: np.ndarray, m: int, delta: float) -> float:
    """Sum over vertices of log[(m+d)(m+1+d)...(deg-1+d)] from a degree histogram."""
    from scipy.special import gammaln  # scipy loads only when a likelihood is evaluated

    d = np.arange(m, m + len(hist), dtype=np.float64)
    vals = gammaln(d + delta) - gammaln(m + delta)
    return _hist_dot(hist, vals)


@dataclass(frozen=True)
class LogLik:
    """Natural-log probability of a labeled log, with its three components."""

    value: float
    log_comb: float
    log_numerator: float
    log_normalizer: float


def log_likelihood(g: AttachmentLog, profile: DeltaProfile) -> LogLik:
    """Exact log-probability of the labeled graph under the given profile.

    For a constant parameter the degree part is prod_k (k+d0)^{N_>k}; a step
    profile factorizes into the pre-change block (prefix tail counts at tau)
    and the post-change block (tail-count increments), each with its own
    normalizer.
    """
    n, m = g.n, g.m
    profile.validate(n, m)
    log_comb = (n - 1) * math.lgamma(m + 1) - _log_mult_sum(g)
    d0 = profile.delta0
    tau = n if not profile.is_step else profile.tau
    if n == 1:
        return LogLik(0.0, 0.0, 0.0, 0.0)
    if tau >= n:
        hist = _degree_hist(g.degrees(), m)
        num = _numerator_block(hist, m, d0)
        norm = log_s_sum(2, n, d0, m)
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
        norm = log_s_sum(2, tau, d0, m) + log_s_sum(tau + 1, n, d1, m)
    return LogLik(log_comb + num - norm, log_comb, num, norm)


def _log_s_ratio(tau: int, n: int, d0: float, d1: float, m: int) -> float:
    """log of prod over post-change sub-steps of S(d0)/S(d1)."""
    return log_s_sum(tau + 1, n, d0, m) - log_s_sum(tau + 1, n, d1, m)


def arrival_log_weights(g: AttachmentLog, t_lo: int, delta0: float, delta1: float) -> np.ndarray:
    """Per-arrival log weight sum_i log(d+delta1) - log(d+delta0) over the
    degrees d that arrival t's m edges saw; entry j is arrival t_lo + j."""
    m = g.m
    d = substep_degrees(g, t_lo)
    # Every degree is at least m: price each degree up to the largest once.
    k = np.arange(m, int(d.max(initial=m)) + 1, dtype=np.float64)
    price = np.log(k + delta1) - np.log(k + delta0)
    d -= m
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
    if delta0 <= -m or delta1 <= -m:
        raise DomainError(f"deltas must be > -m = {-m}")
    if tau == n:
        return 0.0
    s_part = _log_s_ratio(tau, n, delta0, delta1, m)
    if method == "tail":
        diff = window_tail_diff(g, tau + 1, n)
        k = np.arange(m, m + len(diff), dtype=np.float64)
        deg_part = math.fsum((diff * (np.log(k + delta1) - np.log(k + delta0))).tolist())
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


def s_product_ratio(tau: int, n: int, delta0: float, delta1: float, m: int) -> BoundedValue:
    """Exact post-change normalizer ratio prod S(d0)/S(d1) with its two-sided
    e^{+-6m(n-tau)/tau} ((2m+d0)/(2m+d1))^{m(n-tau)} envelope (needs tau >= 3)."""
    if tau < 3:
        raise DomainError(f"the envelope needs tau >= 3, got {tau}")
    if n < tau:
        raise DomainError(f"need n >= tau, got n={n} < tau={tau}")
    if delta0 <= -m or delta1 <= -m:
        raise DomainError(f"deltas must be > -m = {-m}")
    width = n - tau
    log_value = _log_s_ratio(tau, n, delta0, delta1, m)
    center = m * width * math.log((2 * m + delta0) / (2 * m + delta1))
    slack = 6.0 * m * width / tau
    return BoundedValue(
        value=safe_exp(log_value),
        lower=safe_exp(center - slack),
        upper=safe_exp(center + slack),
        log_value=log_value,
        log_lower=center - slack,
        log_upper=center + slack,
    )
