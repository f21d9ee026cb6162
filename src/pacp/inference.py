"""Estimation and testing on observed attachment logs: window scores, the
two-window maximum-likelihood estimator, the known-parameter and plug-in
likelihood-ratio tests, and single-pass change-point localization.

A window's score reads its normalizer from ``likelihood._window_powers``:
arrivals t < T0 = 64 term by term, the rest as a J-term power series in
1/(2m + delta) whose coefficients are the cached power sums (J <= 12, set
from the window's first series arrival).  A score evaluation therefore costs
O(T0 m + distinct degrees + J) whatever the window's length, and the
root-finder's stopping rule reads the noise floor it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .errors import DomainError, NoInteriorRoot, check_domain
from .graph import AttachmentLog, window_tail_diff
from .likelihood import _log_s_rows, _window_powers, arrival_log_weights, log_likelihood, log_lr
from .simulation import DeltaProfile
from .theory import asymptotic_variance

__all__ = [
    "MleResult",
    "TestVerdict",
    "WindowFit",
    "localize_tau",
    "lr_test",
    "mle",
    "plugin_lr_test",
    "score",
]

SCORE_TOL = 1e-10
DELTA_MAX = 1e6
GUARD_FACTOR = 1e-9  # admissible deltas start at -m + GUARD_FACTOR * m
MAX_ITERATIONS = 100
_XTOL = float(np.finfo(float).tiny)
_RTOL = 4 * float(np.finfo(float).eps)
_NOISE_EPS = 4 * float(np.finfo(float).eps)  # score noise floor per unit of sum |terms|


def _window_score(g: AttachmentLog, window: tuple[int, int]):
    """The window's score as a function of delta, with the tail-count
    increments and the window's normalizer table read once.

    The score is sum_k diff_k/(k+delta) over the nonzero tail increments
    minus the normalizer terms t/S.  Head arrivals (t < 64) give
    1/(m + delta + (m(t-2) + i)/t), a sum of non-negative parts, so S keeps
    its relative accuracy as delta nears -m.  The rest is
    sum_j W_j A^-(j+1) with A = 2m + delta and W_j = P_j sum_i a_i^j from
    ``likelihood._window_powers``, evaluated by Horner's rule; one
    evaluation costs O(head + increments + J), independent of the window's
    length.  ``score_fn(delta, slope=True)`` also returns the derivative in
    delta, sum t^2/S^2 - sum diff/(k+delta)^2 (the series part is
    sum_j (j+1) W_j A^-(j+2)), and the score's noise floor, a few eps times
    the sum of the absolute values of its terms.
    """
    lo, hi = window
    m = g.m
    diff = window_tail_diff(g, lo, hi)
    k = np.flatnonzero(diff)
    w = _window_powers(lo, hi, m)
    heads = w.head.size
    # every term is num/(base + delta): -1 per head sub-step, diff_k per degree
    base = np.concatenate((m + w.head.ravel(), (m + k).astype(np.float64)))
    num = np.concatenate((np.full(heads, -1.0), diff[k].astype(np.float64)))
    # W_j and (j+1) W_j, highest power first for Horner's rule
    weights = [p * a for p, a in zip(w.p, w.moments)]
    series = weights[::-1]
    series_slope = [(j + 1) * c for j, c in enumerate(weights)][::-1]

    def score_fn(delta: float, slope: bool = False):
        x = 1.0 / (2 * m + delta)
        tail = 0.0
        for c in series:
            tail = tail * x + c
        tail *= x
        shifted = base + delta
        terms = num / shifted
        head, degree = float(terms[:heads].sum()), float(terms[heads:].sum())
        value = degree + head - tail
        if not slope:
            return value
        tail_slope = 0.0
        for c in series_slope:
            tail_slope = tail_slope * x + c
        terms /= shifted
        noise = _NOISE_EPS * (degree - head + tail)
        return value, tail_slope * x * x - float(terms.sum()), noise

    return score_fn


def score(g: AttachmentLog, window: tuple[int, int], delta: float) -> float:
    """Derivative in delta of the window's log-likelihood block.

    ``window`` is an inclusive arrival range (lo, hi); (1, tau) and
    (tau+1, n) are the two blocks of the step factorization.
    """
    lo, hi = window
    if not 1 <= lo <= hi <= g.n:
        raise DomainError(f"window {window} out of range 1..{g.n}")
    check_domain(g.m, delta=delta)
    return _window_score(g, window)(delta)


@dataclass(frozen=True)
class WindowFit:
    """Root-finding outcome for one window's score."""

    window: tuple[int, int]
    status: str  # "converged" | "no_interior_root" | "max_iterations"
    delta_hat: float | None
    score_at_estimate: float | None
    bracket: tuple[float, float] | None
    bracket_scores: tuple[float, float] | None
    iterations: int
    stderr: float | None = None

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass(frozen=True)
class MleResult:
    pre: WindowFit
    post: WindowFit

    @property
    def delta0_hat(self) -> float | None:
        return self.pre.delta_hat

    @property
    def delta1_hat(self) -> float | None:
        return self.post.delta_hat

    @property
    def converged(self) -> bool:
        return self.pre.converged and self.post.converged

    def confidence_intervals(self, level: float = 0.95):
        """Plug-in normal intervals delta_hat +- z * stderr per window."""
        z = NormalDist().inv_cdf(0.5 + level / 2.0)
        out = []
        for fit in (self.pre, self.post):
            if fit.converged and fit.stderr is not None:
                out.append((fit.delta_hat - z * fit.stderr, fit.delta_hat + z * fit.stderr))
            else:
                out.append(None)
        return tuple(out)


def _solve_window(score_fn, m: int, window: tuple[int, int]) -> WindowFit:
    """Root of one window's score on the admissible interval
    (-m + guard, DELTA_MAX].

    An expanding search from delta = 0 first finds a bracket (a, b) with
    score(a) >= 0 >= score(b): doubling toward DELTA_MAX when score(0) > 0,
    halving the gap to -m when score(0) < 0.  The score need not be globally
    monotone, but it is continuous; when no sign change turns up, the window
    reports no_interior_root with the last bracket tried, never a forced
    estimate.

    The bracket is then polished by safeguarded Newton steps on the score's
    analytic slope, starting from the bracket's secant point.  Every
    evaluated point replaces the bracket end of its sign, so the root stays
    bracketed.  A Newton step shorter than (xtol + rtol|x|)/2, with
    xtol = tiny and rtol = 4 eps, is lengthened to that, so the far side of
    a root is always tried; a step that would leave the bracket, as every
    step taken where the slope is not negative would, is replaced by
    bisection.  The polish stops when |score| is at or below the
    evaluation's noise floor (a few eps times the sum of |terms|), when the
    bracket's sign change lies within xtol + rtol|x|, or after
    MAX_ITERATIONS evaluations.  The estimate is the last evaluated point;
    it counts as converged when |score| <= max(SCORE_TOL, noise floor) or
    the bracket is that narrow, so a root next to the guard, where one ulp
    of delta moves the score by far more than SCORE_TOL, still converges.
    ``bracket`` and ``bracket_scores`` are those of the search, before
    polishing; ``iterations`` counts the polishing evaluations.
    """
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
    bracket, bracket_scores = (a, b), (sa, sb)
    # invariant: a < b and score(a) >= 0 >= score(b), with sa - sb > 0
    x = a + sa / (sa - sb) * (b - a)
    iterations = 0
    while True:
        iterations += 1
        s, slope, noise = score_fn(x, slope=True)
        if s > 0:
            a = x
        elif s < 0:
            b = x
        if abs(s) <= noise or _bracketed(a, b) or iterations >= MAX_ITERATIONS:
            break
        # x is now a bracket end, so a Newton step points into the bracket
        # exactly when the slope is negative
        step = s / slope if slope < 0.0 else math.inf
        tol = 0.5 * (_XTOL + _RTOL * abs(x))
        if abs(step) < tol:
            step = math.copysign(tol, step)
        x -= step
        if not a < x < b:
            x = a + 0.5 * (b - a)
    status = "converged" if abs(s) <= max(SCORE_TOL, noise) or _bracketed(a, b) else "max_iterations"
    return WindowFit(window, status, x, s, bracket, bracket_scores, iterations)


def _bracketed(a: float, b: float) -> bool:
    """Whether a sign change between a and b pins the root to float accuracy."""
    return b - a <= _XTOL + _RTOL * max(abs(a), abs(b))


def mle(g: AttachmentLog, tau: int) -> MleResult:
    """Independent score root-finds on the two windows split at tau.

    A window whose score never changes sign on the admissible interval (a
    degenerate sample, e.g. no minimal-degree attachment after the change)
    reports no_interior_root rather than a forced estimate.
    """
    n, m = g.n, g.m
    if not 1 <= tau < n:
        raise DomainError(f"tau must lie in 1..{n - 1}, got {tau}")

    pre, post = (
        _solve_window(_window_score(g, window), m, window) for window in ((1, tau), (tau + 1, n))
    )
    if pre.converged:
        nu0 = asymptotic_variance(0, pre.delta_hat, pre.delta_hat, m).value
        pre = _with_stderr(pre, tau, nu0)
        if post.converged:
            nu1 = asymptotic_variance(1, pre.delta_hat, post.delta_hat, m).value
            post = _with_stderr(post, n - tau, nu1)
    return MleResult(pre=pre, post=post)


def _with_stderr(fit: WindowFit, length: int, nu: float) -> WindowFit:
    return replace(fit, stderr=1.0 / math.sqrt(length * nu) if nu > 0 else None)


@dataclass(frozen=True)
class TestVerdict:
    """Outcome of a likelihood-ratio test: reject iff statistic > 0 (strict).

    Both modes share this one rule; what differs is the statistic.  The
    known-parameter statistic is the log LR itself; the plug-in statistic
    carries its own complexity penalty (see ``plugin_lr_test``), so no mode
    needs a separate threshold.
    """

    statistic: float
    reject: bool
    mode: str  # "known" | "plugin"

    def __post_init__(self):
        if self.reject != (self.statistic > 0):
            raise AssertionError("reject flag inconsistent with statistic")


def lr_test(g: AttachmentLog, tau: int, delta0: float, delta1: float) -> TestVerdict:
    """Known-parameter test: reject when the step-vs-constant LR exceeds one."""
    stat = log_lr(g, tau, delta0, delta1)
    return TestVerdict(statistic=stat, reject=stat > 0, mode="known")


def plugin_lr_test(g: AttachmentLog, tau: int) -> TestVerdict:
    """Plug-in test with both deltas estimated, penalized for the fitted
    post-change parameter.

    The statistic is

        log_lr(g, tau, d0_hat, d1_hat) - 1/2 log(n - tau),

    and the null is rejected iff it is > 0.  The first term compares the
    fitted step profile with the constant profile at the fitted delta0; it is
    the post-window log-likelihood at its own maximizer d1_hat minus the same
    block at d0_hat, hence >= 0 on every graph, so it cannot be used with the
    zero threshold unpenalized.  The second term is the Schwarz (BIC) penalty
    for the one parameter fitted on the n - tau post-change arrivals.  Under
    the null the first term is O_P(1) (about 1/2 (1 + (n-tau)/tau) chi^2_1);
    under a change it grows linearly in n - tau.  Both error rates therefore
    vanish exactly when n - tau -> infinity, the regime in which the labelled
    change is detectable.  The penalty is this package's choice: the model
    treats delta0 and delta1 as known and fixes no plug-in threshold.

    Raises NoInteriorRoot when either window's estimate does not exist, which
    campaign drivers record as an abstention.
    """
    fit = mle(g, tau)
    if not fit.pre.converged:
        raise NoInteriorRoot("pre")
    if not fit.post.converged:
        raise NoInteriorRoot("post")
    stat = log_lr(g, tau, fit.delta0_hat, fit.delta1_hat) - 0.5 * math.log(g.n - tau)
    return TestVerdict(statistic=stat, reject=stat > 0, mode="plugin")


def localize_tau(g: AttachmentLog, delta0: float, delta1: float):
    """Argmax over tau in 0..n of the step-profile log-likelihood, in one pass.

    Moving tau -> tau+1 re-prices only arrival tau+1, so the profile is a
    cumulative sum of per-arrival increments on top of the all-changed
    (tau = 0) likelihood.  Ties break toward the smallest tau.
    """
    n, m = g.n, g.m
    check_domain(m, delta0=delta0, delta1=delta1)
    if delta0 == delta1:
        raise DomainError("localization needs delta0 != delta1")
    base = log_likelihood(g, DeltaProfile.constant(delta1)).value
    profile = np.full(n + 1, base, dtype=np.float64)  # arrival 1 is deterministic
    if n >= 2:
        deg_inc = -arrival_log_weights(g, 2, delta0, delta1)
        profile[2:] = base + np.cumsum(deg_inc + _log_s_rows(2, n, delta0, delta1, m))
    tau_hat = int(np.argmax(profile))
    return tau_hat, profile
