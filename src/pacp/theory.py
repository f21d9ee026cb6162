"""Closed-form asymptotics: limiting degree law, log-LR separation rates,
estimator variance scales, and the exact finite-n degree moments.

numpy only.  The degree pmf is p_m exp(R(k+delta) - R(m+delta)), with
R(x) = log Gamma(x)/Gamma(x+h) from a Stirling split (no Gamma is formed)
and the step in R formed directly, not as a difference of two values.
Every series over the degree law is one method, the Jensen gap
E[1/(X+c)] - 1/(2m+c) (``_jensen_gap``): a short head by the ratio recurrence
p_{k+1}/p_k plus a telescoped closed-form tail, with a certified remainder.
The variance scales and the score limit are the gap times a scale; the log-LR
rates are the gap integrated over c between delta0 and delta1.

The finite-n degree moments are products over the sub-steps of a window,
G = prod(1 + 1/S) and Q = prod(1 + 1/(S+1)) (the rising-factorial
martingales), whose logs are priced from the window's power-sum table in
``likelihood`` like its log-normalizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_domain
from .likelihood import BoundedValue, _enveloped, _log_growth, _log_s_rows, safe_exp

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


# Binet's series mu(x) = log Gamma(x) - (x-1/2) log x + x - log(2 pi)/2 =
# sum_j B_2j / (2j (2j-1) x^(2j-1)), as a polynomial in 1/x^2 over x; the
# terms past these eight are below 1e-21 at x >= 16
_BINET = (-3617 / 122400, 1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


def _binet(y):
    """Binet's mu(y) for y >= 16."""
    return np.polyval(_BINET, 1.0 / (y * y)) / y


def _lift(x, h: float):
    """(X, lift, low): X is x + 16 where x < 16 (low) and x elsewhere, and
    lift is the log of the Gamma ratio's lifting factor prod_{i<16}
    (1 + h/(x+i)) where low, 0 elsewhere."""
    x = np.array(x, dtype=np.float64)
    low = x < 16.0
    lift = np.zeros_like(x)
    if low.any():
        lift[low] = np.log1p(h / (x[low][:, None] + np.arange(16.0))).sum(axis=1)
    return np.where(low, x + 16.0, x), lift, low


def _log_gamma_ratio_step(x0: float, u, h: float):
    """R(x0 + u) - R(x0) elementwise for x0 > 0 and u >= 0, where
    R(x) = log Gamma(x)/Gamma(x+h).

    Below 16, x is lifted by Gamma(x) = Gamma(x+16) / prod_{i<16} (x+i).
    From 16 on, R(y) = -(y-1/2) log1p(h/y) - h log(y+h) + h + mu(y) - mu(y+h)
    (Stirling with Binet's mu).  Between the lifted X and X0, v = X - X0, the
    step's Stirling part is -(X-1/2) log1p(h/X) + (X0-1/2) log1p(h/X0) -
    h log1p(v/(X0+h)), whose parts are each about h.  Up to v = X0 the step
    can be much smaller than h, and the same part is formed as
    -v log1p(h/X) - (X0-1/2+h) log1p(v/(X0+h)) + (X0-1/2) log1p(v/X0),
    whose parts are each about as large as the step while h is of order X0
    or above, as in the pmf (h = 3 + d/m, x0 = m + d).  With h << X0 its
    last two parts are each about v and cancel to the much smaller step:
    against 40-digit log-gamma it is off by 1.1e-10 relative at
    (x0, u, h) = (9e5, 9e5, 1) and by 1.5e-7 at (1e3, 1e3, 1e-6).
    """
    shape = np.shape(u)
    u = np.atleast_1d(np.asarray(u, dtype=np.float64))
    big, lift, low = _lift(x0 + u, h)
    b0, lift0, low0 = (float(a) for a in _lift(x0, h))
    v = u + 16.0 * (low - low0)
    log_h = np.log1p(h / big)
    log_v = np.log1p(v / (b0 + h))
    stirling = (b0 - 0.5) * math.log1p(h / b0) - (big - 0.5) * log_h - h * log_v
    near = v <= b0
    if near.any():
        w = v[near]
        stirling[near] = (
            (b0 - 0.5) * np.log1p(w / b0) - w * log_h[near] - (b0 - 0.5 + h) * log_v[near]
        )
    mu = (_binet(big) - _binet(b0)) - (_binet(big + h) - _binet(b0 + h))
    return (lift - lift0 + stirling + mu).reshape(shape)


def limit_degree_pmf(k, m: int, delta: float):
    """Limiting degree fraction p_k of affine attachment with parameter delta.

    p_k = (2 + d/m) * Gamma(k+d) Gamma(m+2+d+d/m) / [Gamma(m+d) Gamma(k+3+d+d/m)],
    defined for k >= m, as p_m exp(R(k+d) - R(m+d)) with the closed form
    p_m = (2+d/m)/(m+2+d+d/m) and R = log Gamma(x)/Gamma(x+h) at h = 3 + d/m,
    its step from m+d formed directly (``_log_gamma_ratio_step``).  Accepts
    scalar or array k.
    """
    check_domain(m, delta=delta)
    karr = np.asarray(k, dtype=np.float64)
    if (karr < m).any():
        raise DomainError(f"degree law starts at k = m = {m}")
    r = delta / m
    logp = _log_gamma_ratio_step(m + delta, karr - m, 3.0 + r)
    out = (2.0 + r) / (m + 2.0 + delta + r) * np.exp(logp)
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
    """A series or quadrature value, its error bound and its series terms.

    ``remainder_bound`` certifies the truncated tail for ``_jensen_gap`` and its
    scalings; for ``limit_loglr_rate`` it is an estimate, not a certificate:
    |Q32 - Q16| plus the weighted certified remainders of the 32 nodes' gaps.
    """

    value: float
    remainder_bound: float
    terms: int


def limit_loglr_rate(
    delta0: float, delta1: float, m: int, hypothesis: str = "H0"
) -> TruncatedSeries:
    """Per-post-change-vertex limit of -(1/width) log LR under the constant law
    ("H0") or +(1/width) log LR under the step law ("H1").

    With shift = delta0 (H0) or delta1 (H1), the rate is m/(2m+shift) times
    the integral of |y - shift| gap(y) over y between delta0 and delta1, with
    gap = ``_jensen_gap`` >= 0: c - x log(1 + c/x) is the integral of s/(x+s)
    over s from 0 to c, so in E[x log(1 + c/x)], x = X + shift, the Jensen
    anchor cancels exactly.  It is summed by 32-node Gauss-Legendre in
    v = log((y+m)/(lo+m)), |y - shift| formed from its own endpoint;
    ``remainder_bound`` is an estimate (see ``TruncatedSeries``).  An endpoint
    past 1e8 series terms raises DomainError before any node is summed.
    """
    from numpy.polynomial.legendre import leggauss

    check_domain(m, delta0=delta0, delta1=delta1)
    if hypothesis not in ("H0", "H1"):
        raise ValueError(f"hypothesis must be 'H0' or 'H1', got {hypothesis!r}")
    shift = delta0 if hypothesis == "H0" else delta1
    lo, hi = min(delta0, delta1), max(delta0, delta1)
    for end in (hi, lo):
        _head_end(end, m, delta0)
    span = math.log1p((hi - lo) / (lo + m))

    def rule(nodes: int):
        t, w = leggauss(nodes)
        v = 0.5 * span * (t + 1.0)
        dist = (lo + m) * np.expm1(v) if shift == lo else -(hi + m) * np.expm1(v - span)
        # dy = (y+m) dv, and the rate's scale m/(2m+shift) rides on the weights
        weight = 0.5 * span * w * dist * (lo + m) * np.exp(v) * (m / (2.0 * m + shift))
        gaps = [_jensen_gap(float(y), m, delta0) for y in lo + (lo + m) * np.expm1(v)]
        return float(weight @ [g.value for g in gaps]), weight, gaps

    (q32, weight, gaps), (q16, _, coarse) = rule(32), rule(16)
    bound = abs(q32 - q16) + float(weight @ [g.remainder_bound for g in gaps])
    return TruncatedSeries(q32, bound, sum(g.terms for g in gaps + coarse))


def _head_end(c: float, m: int, delta0: float) -> int:
    """End K of ``_jensen_gap``'s direct head; DomainError past 1e8 terms."""
    k_end = m + 16 + max(0, math.ceil(c), math.ceil(3.0 + delta0 + delta0 / m - 2.0 * c))
    if k_end - m > 10**8:
        raise DomainError(f"offset {c} needs more than 1e8 series terms")
    return k_end


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
    k_end = _head_end(c, m, delta0)
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
    second_moment = xi (m+delta0)^2 + kappa (m+delta0), with
    gamma_prod = G = prod(1 + 1/S), xi = prod(1 + 2/S) = G Q where
    Q = prod(1 + 1/(S+1)), and kappa = xi - G, the products running over the
    sub-steps of the arrivals max(1, u) < j <= t.
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
    constant-parameter law, from the rising-factorial martingales."""
    check_domain(m, delta0=delta0)
    if not 0 <= u < t:
        raise DomainError(f"need 0 <= u < t, got u={u}, t={t}")
    base = m + delta0
    # A sub-step of total S maps E[X] to E[X](1 + 1/S) and E[X(X+1)] to
    # E[X(X+1)](1 + 2/S), and 1 + 2/S = (1 + 1/S)(1 + 1/(S+1)).  So with
    # G = prod(1 + 1/S) and Q = prod(1 + 1/(S+1)) over the sub-steps:
    # gamma_prod = G, xi = G Q and kappa = xi - G = G (Q - 1).
    lo = max(1, u) + 1
    log_q = _log_growth(lo, t, delta0, m, 1)
    gamma_prod = math.exp(_log_growth(lo, t, delta0, m, 0))
    xi = gamma_prod * math.exp(log_q)
    kappa = gamma_prod * math.expm1(log_q)
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
    rows = _log_s_rows(tau_prime + 1, n, delta0, delta1, m)
    top = float(rows.max())
    log_value = top + math.log(float(np.exp(rows - top).mean()))  # log-mean-exp
    center = m * math.log((2 * m + delta1) / (2 * m + delta0))
    return _enveloped(safe_exp(log_value), log_value, center, 6.0 * m / tau_prime)


def log_integral_bound(beta: float) -> float:
    """Closed-form upper bound sqrt(pi e^{1/(2 beta)} / beta) for
    the integral of e^{-beta log^2 x} over x >= 1."""
    if beta <= 0:
        raise DomainError(f"beta must be positive, got {beta}")
    return math.sqrt(math.pi * math.exp(1.0 / (2.0 * beta)) / beta)
