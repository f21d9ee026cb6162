"""Closed-form asymptotics: limiting degree law, log-LR separation rates,
estimator variance scales, and the exact finite-n degree-moment recursions.

The degree pmf goes through log-gamma (direct Gamma overflows near k = 170).
Every infinite series returns a certified remainder bound.  The log-LR rates
truncate adaptively in blocks, certified by the closed-form tail mass p_{>K}.
The variance scales and the score limit, which need E[1/(X+c)], sum a short
head by the ratio recurrence p_{k+1}/p_k and telescope the tail into
Gamma-ratio closed forms (``_jensen_gap``): tens of terms, no log-gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, check_domain
from .likelihood import BoundedValue, _enveloped, _log_s_rows, _s_grid

__all__ = [
    "DegreeLaw",
    "MomentCoeffs",
    "TruncatedSeries",
    "asymptotic_variance",
    "degree_moment",
    "limit_degree_pmf",
    "limit_degree_tail",
    "limit_loglr_rate",
    "mean_weight_mn",
    "score_limit",
]


def limit_degree_pmf(k, m: int, delta: float):
    """Limiting degree fraction p_k of affine attachment with parameter delta.

    p_k = (2 + d/m) * Gamma(k+d) Gamma(m+2+d+d/m) / [Gamma(m+d) Gamma(k+3+d+d/m)],
    defined for k >= m.  Accepts scalar or array k.
    """
    from scipy.special import gammaln  # scipy loads only when the limit law is evaluated

    check_domain(m, delta=delta)
    karr = np.asarray(k, dtype=np.float64)
    if (karr < m).any():
        raise DomainError(f"degree law starts at k = m = {m}")
    r = delta / m
    logp = (
        math.log(2.0 + r)
        + gammaln(karr + delta)
        + gammaln(m + 2 + delta + r)
        - gammaln(m + delta)
        - gammaln(karr + 3 + delta + r)
    )
    out = np.exp(logp)
    return float(out) if np.isscalar(k) or karr.ndim == 0 else out


def limit_degree_tail(k, m: int, delta: float):
    """Limiting fraction of vertices of degree > k: (k+d) m/(2m+d) p_k."""
    karr = np.asarray(k, dtype=np.float64)
    p = limit_degree_pmf(karr, m, delta)
    out = (karr + delta) * (m / (2.0 * m + delta)) * p
    return float(out) if np.isscalar(k) or karr.ndim == 0 else out


@dataclass(frozen=True)
class DegreeLaw:
    """The limiting degree distribution for one (m, delta) pair."""

    m: int
    delta: float

    def pmf(self, k):
        return limit_degree_pmf(k, self.m, self.delta)

    def tail(self, k):
        return limit_degree_tail(k, self.m, self.delta)

    def head(self, k_max: int) -> np.ndarray:
        """p_m, ..., p_{k_max} as an array."""
        return self.pmf(np.arange(self.m, k_max + 1))


@dataclass(frozen=True)
class TruncatedSeries:
    """Adaptively truncated series value with a certified remainder bound."""

    value: float
    remainder_bound: float
    terms: int


def _expect_under_law(
    f: Callable[[np.ndarray], np.ndarray],
    f_sup_beyond: Callable[[float], float],
    m: int,
    delta: float,
    rel_tol: float = 1e-14,
    block: int = 512,
    max_k: int = 10**8,
) -> TruncatedSeries:
    """Sum_k p_k(delta) f(k), truncated once the running block is negligible
    AND p_{>K} * sup_{k>K} |f| certifies the remainder."""
    total = 0.0
    k0 = m
    while k0 < max_k:
        karr = np.arange(k0, k0 + block, dtype=np.float64)
        terms = limit_degree_pmf(karr, m, delta) * f(karr)
        total += float(terms.sum())
        k_last = k0 + block - 1
        tail_bound = limit_degree_tail(k_last, m, delta) * abs(f_sup_beyond(float(k_last)))
        if abs(terms[-1]) <= rel_tol * max(abs(total), 1.0) and tail_bound <= rel_tol * max(
            abs(total), 1.0
        ):
            return TruncatedSeries(total, tail_bound, k_last - m + 1)
        k0 += block
    raise RuntimeError("series did not converge within max_k terms")


def limit_loglr_rate(
    delta0: float, delta1: float, m: int, hypothesis: str = "H0"
) -> TruncatedSeries:
    """Per-post-change-vertex limit of -(1/width) log LR under the constant law
    ("H0") or +(1/width) log LR under the step law ("H1").

    Both expectations run over the delta0 degree law; both are strictly
    positive whenever delta0 != delta1.
    """
    check_domain(m, delta0=delta0, delta1=delta1)
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    if hypothesis == "H0":
        shift, c = delta0, delta1 - delta0
        scale = m / (2.0 * m + delta0)
    else:
        shift, c = delta1, delta0 - delta1
        scale = m / (2.0 * m + delta1)

    # E[(X+shift) log(1 + c/(X+shift))] = c - E[g(X)] with g >= 0 decreasing
    # like c^2/(2x); summing g instead of the raw terms makes the closed-form
    # tail mass certify the remainder after a few thousand terms.
    def g(k):
        x = k + shift
        return c - x * np.log1p(c / x)

    def g_sup(k_last):
        x = k_last + 1 + shift
        return c - x * math.log1p(c / x)

    series = _expect_under_law(g, g_sup, m, delta0)
    anchor = (2.0 * m + shift) * math.log1p(c / (2.0 * m + shift))
    # x -> x log(1 + c/x) is strictly concave and E[X] = 2m, so Jensen makes
    # the result > 0 for either hypothesis whenever delta0 != delta1.
    value = scale * (anchor - c + series.value)
    return TruncatedSeries(value, scale * series.remainder_bound, series.terms)


def _jensen_gap(c: float, m: int, delta0: float, rel_tol: float = 1e-17) -> TruncatedSeries:
    """Jensen gap E[1/(X+c)] - 1/(2m+c) >= 0 of X over the delta0 degree law,
    for c > -m.

    Since E[X] = 2m the gap equals E[(X-2m)^2/(X+c)] / (2m+c)^2, a sum of
    nonnegative terms, so no digit is lost to the subtraction (at c = 1e6
    the gap is ~1e-10 of E[1/(X+c)]).  Write p_k = C Gamma(k+a)/Gamma(k+b)
    with a = delta0, r = delta0/m, b = 3+delta0+r.  The head k = m..K-1 is
    summed directly from the ratio recurrence p_{k+1} = p_k (k+a)/(k+b).
    For the tail, (k-2m)^2/(k+c) = (k+a) - (4m+c+a) + (2m+c)^2/(k+c); the
    first two pieces are the closed forms
    sum_{k>=K} Gamma(k+a)/Gamma(k+beta) = Gamma(K+a)/((beta-a-1) Gamma(K+beta-1)),
    and the last telescopes through 1/(k+c) = 1/(k+b) + (b-c)/((k+b)(k+c)):
        sum_{k>=K} p_k/(k+c) = sum_{j<J} w_j/(b+j-a) + R_J,
        w_0 = p_K,  w_{j+1} = w_j (b+j-c)/(K+b+j),
        |R_J| <= |w_J| (K+b+J-1) / ((b+J-1-a)(K+c)).
    w_j is carried as one ratio, since its two factors overflow apart at
    large c.  K = m + 16 + max(0, ceil(c), ceil(b-2c)): K >= c keeps the
    three tail pieces of one order (no cancellation), K >= b-2c keeps the
    ratio of w_j at most 1/2 when c <= b, and the head stops early once p_k
    underflows to 0 (light tails at large delta0), which zeroes the tail.
    ``terms`` counts head plus tail terms; ``remainder_bound`` certifies
    |R_J| for the gap.  Raises DomainError past 1e8 head terms (c > ~1e8).
    """
    a, r = delta0, delta0 / m
    b = 3.0 + a + r
    k_end = m + 16 + max(0, math.ceil(c), math.ceil(b - 2.0 * c))
    if k_end - m > 10**8:
        raise DomainError(f"offset {c} needs more than 1e8 series terms")
    head, p, K = 0.0, (2.0 + r) / (m + b - 1.0), m  # p = p_K throughout
    while K < k_end and p > 0.0:
        k = np.arange(K, min(K + 4096, k_end), dtype=np.float64)
        cum = p * np.cumprod((k + a) / (k + b))  # p_{k+1} for each k
        head += float(np.concatenate(([p], cum[:-1])) @ ((k - 2.0 * m) ** 2 / (k + c)))
        p = float(cum[-1])
        K += k.size
    mass = p * (K + b - 1.0) / (2.0 + r)  # sum_{k>=K} p_k
    first = p * (K + a) * (K + b - 1.0) / (1.0 + r)  # sum_{k>=K} (k+a) p_k
    closed = (head + first - (4.0 * m + c + a) * mass) / (2.0 * m + c) ** 2
    tail, w, j = 0.0, p, 0
    while True:
        tail += w / (b + j - a)
        w *= (b + j - c) / (K + b + j)
        j += 1
        bound = abs(w) * (K + b + j - 1.0) / ((b + j - 1.0 - a) * (K + c))
        if bound <= rel_tol * abs(closed + tail):
            return TruncatedSeries(closed + tail, bound, K - m + j)
        if j >= 10**6:
            raise RuntimeError("telescoped tail did not converge within 1e6 terms")


def asymptotic_variance(j: int, delta0: float, delta1: float, m: int) -> TruncatedSeries:
    """Variance scale nu_j of the two-window estimator: under the step law,
    sqrt(window) (estimate_j - delta_j) is asymptotically N(0, 1/nu_j).

    nu_j = m/(2m+d_j) (E[1/(X+d_j)] - 1/(2m+d_j)), X over the delta0 degree
    law, so nu_0 depends only on (m, delta0) while nu_1 mixes delta0 (law)
    with delta1 (weights).  The expectation minus its Jensen anchor is summed
    as a short direct head plus a telescoped closed-form tail (see
    ``_jensen_gap``): tens of terms for moderate deltas, about sqrt(40 d_j)
    tail terms past a head of about d_j terms for large d_j, and nu_j > 0
    always.  ``terms`` counts head plus tail terms and ``remainder_bound``
    certifies the truncated telescoped tail.
    """
    if j not in (0, 1):
        raise ValueError(f"j must be 0 or 1, got {j}")
    check_domain(m, delta0=delta0, delta1=delta1)
    dj = delta0 if j == 0 else delta1
    gap = _jensen_gap(dj, m, delta0)
    scale = m / (2.0 * m + dj)
    return TruncatedSeries(scale * gap.value, scale * gap.remainder_bound, gap.terms)


def score_limit(delta: float, delta0: float, delta1: float, m: int) -> TruncatedSeries:
    """Limit of the post-window score divided by the window length under the
    step law: m/(2m+d1) (E[(X+d1)/(X+delta)] - (2m+d1)/(2m+delta)), X over
    the delta0 degree law.  Monotone decreasing in delta with its zero at d1.

    The bracket equals (d1 - delta)(E[1/(X+delta)] - 1/(2m+delta)), so the
    limit is summed like ``asymptotic_variance``: a direct head plus a
    telescoped closed-form tail, ``terms`` counting both and
    ``remainder_bound`` certifying the truncated tail.  It is exactly 0 at
    delta = d1.
    """
    check_domain(m, delta=delta, delta0=delta0, delta1=delta1)
    gap = _jensen_gap(delta, m, delta0)
    scale = m / (2.0 * m + delta1) * (delta1 - delta)
    return TruncatedSeries(scale * gap.value, abs(scale) * gap.remainder_bound, gap.terms)


@dataclass(frozen=True)
class MomentCoeffs:
    """Exact first/second moment coefficients of d(u) + delta0 at time t.

    mean = (m+delta0) * gamma_prod and
    second_moment = xi (m+delta0)^2 + kappa (m+delta0), where the products
    and sums defining gamma_prod, xi, kappa run over the sub-steps of the
    arrivals max(1, u) < j <= t.
    """

    u: int
    t: int
    m: int
    delta0: float
    xi: float
    kappa: float
    gamma_prod: float
    mean: float
    second_moment: float


def degree_moment(u: int, t: int, m: int, delta0: float) -> MomentCoeffs:
    """Exact E[d(u)+delta0] and E[(d(u)+delta0)^2] at time t under the
    constant-parameter law, via the per-sub-step moment recursions."""
    check_domain(m, delta0=delta0)
    if not 0 <= u < t:
        raise DomainError(f"need 0 <= u < t, got u={u}, t={t}")
    base = m + delta0
    # A sub-step of total S maps E[X] to E[X](1 + 1/S) and E[X^2] to
    # E[X^2](1 + 2/S) + E[X]/S.  Over the N sub-steps in time order, with
    # G_i = prod_{l<=i}(1 + 1/S_l) and xi_i = prod_{l<=i}(1 + 2/S_l):
    # gamma_prod = G_N, xi = xi_N and kappa = xi_N sum_i G_{i-1}/(S_i xi_i).
    s = _s_grid(max(1, u) + 1, t, delta0, m).ravel()
    g_run = np.cumprod(np.append(1.0, 1.0 + 1.0 / s))
    xi_run = np.cumprod(np.append(1.0, 1.0 + 2.0 / s))
    xi, gamma_prod = float(xi_run[-1]), float(g_run[-1])
    kappa = xi * float((g_run[:-1] / (s * xi_run[1:])).sum())
    return MomentCoeffs(
        u=u,
        t=t,
        m=m,
        delta0=delta0,
        xi=xi,
        kappa=kappa,
        gamma_prod=gamma_prod,
        mean=base * gamma_prod,
        second_moment=xi * base * base + kappa * base,
    )


def mean_weight_mn(tau_prime: int, n: int, delta0: float, delta1: float, m: int) -> BoundedValue:
    """Average over late arrivals of the per-arrival normalizer ratio
    prod_i S(d1)/S(d0), with its e^{+-6m/tau'} ((2m+d1)/(2m+d0))^m envelope."""
    if tau_prime < 3:
        raise DomainError(f"the envelope needs tau_prime >= 3, got {tau_prime}")
    if n <= tau_prime:
        raise DomainError(f"need n > tau_prime, got n={n}, tau_prime={tau_prime}")
    check_domain(m, delta0=delta0, delta1=delta1)
    value = float(np.exp(_log_s_rows(tau_prime + 1, n, delta0, delta1, m)).mean())
    center = m * math.log((2 * m + delta1) / (2 * m + delta0))
    return _enveloped(value, math.log(value), center, 6.0 * m / tau_prime)


def log_integral_bound(beta: float) -> float:
    """Closed-form upper bound sqrt(pi e^{1/(2 beta)} / beta) for
    the integral of e^{-beta log^2 x} over x >= 1."""
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    return math.sqrt(math.pi * math.exp(1.0 / (2.0 * beta)) / beta)
