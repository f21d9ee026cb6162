"""Label-permutation reduction machinery: the uniform kernel over relabelable
late vertices, the "enough bold vertices" event, the exact permuted
likelihood-ratio via elementary symmetric polynomials, and Monte Carlo probes
of the second-moment / event-failure / martingale-tail bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionViolated, UnsupportedRegime, check_domain
from .graph import AttachmentLog, BoldSet, bold_vertices
from .likelihood import _log_s_ratio, arrival_log_weights, safe_exp
from .simulation import DeltaProfile, simulate_many
from .theory import mean_weight_mn
from . import campaign

__all__ = [
    "McResult",
    "ReductionContext",
    "event_bn",
    "event_bn_failure_probe",
    "kernel_sample",
    "log_esp",
    "log_permuted_lr",
    "martingale_tail_probe",
    "permuted_lr",
    "second_moment_probe",
]


def kernel_sample(g: AttachmentLog, tau_prime: int, rng: np.random.Generator, bold: BoldSet | None = None) -> np.ndarray:
    """Uniform draw from the permutations fixing every label outside the
    relabelable late-vertex set; returned as a full permutation of 0..n."""
    if bold is None:
        bold = bold_vertices(g, tau_prime)
    perm = np.arange(g.n + 1, dtype=np.int64)
    if bold.size > 1:
        perm[bold.members] = rng.permutation(bold.members)
    return perm


@dataclass(frozen=True)
class ReductionContext:
    """Everything the permuted-LR computation needs, bound to one graph.

    ``log_weights[j]`` is the log of the per-arrival ratio
    prod_i (d+delta1)/(d+delta0) for arrival k = tau_prime + 1 + j, replayed
    from the log; ``r`` counts post-change arrivals that are relabelable.
    """

    n: int
    m: int
    tau: int
    tau_prime: int
    alpha: float
    delta0: float
    delta1: float
    bold: BoldSet
    log_weights: np.ndarray = field(repr=False)

    @classmethod
    def build(
        cls,
        g: AttachmentLog,
        tau: int,
        tau_prime: int,
        alpha: float,
        delta0: float,
        delta1: float,
    ) -> "ReductionContext":
        n, m = g.n, g.m
        if not 1 <= tau_prime < tau <= n:
            raise DomainError(f"need 1 <= tau_prime < tau <= n, got {tau_prime}, {tau}, {n}")
        if not (math.isfinite(alpha) and alpha > 0):
            raise DomainError(f"alpha must be finite and positive, got {alpha}")
        check_domain(m, delta0=delta0, delta1=delta1)
        return cls(
            n=n,
            m=m,
            tau=tau,
            tau_prime=tau_prime,
            alpha=alpha,
            delta0=delta0,
            delta1=delta1,
            bold=bold_vertices(g, tau_prime),
            log_weights=arrival_log_weights(g, tau_prime + 1, delta0, delta1),
        )

    @property
    def width(self) -> int:
        return self.n - self.tau

    @property
    def width_prime(self) -> int:
        return self.n - self.tau_prime

    @property
    def r(self) -> int:
        """Number of post-change arrivals inside the relabelable set."""
        return self.bold.size - int(np.searchsorted(self.bold.members, self.tau + 1))

    def log_weight_of(self, k) -> np.ndarray:
        """log weight of arrival(s) k in (tau_prime, n]."""
        return self.log_weights[np.asarray(k) - self.tau_prime - 1]


def event_bn(ctx: ReductionContext) -> bool:
    """True when the relabelable set is large enough and contains every
    post-change arrival."""
    dp = ctx.width_prime
    threshold = dp * (1.0 - ctx.alpha * dp / ctx.tau_prime)
    return ctx.bold.size >= threshold and ctx.r == ctx.width


def _tilt(log_values: np.ndarray, r: int) -> float:
    """A shift s with sum_i sigma(x_i - s) within 1/4 of r, sigma the
    logistic function, for 0 < r < k: Newton's method in s, kept inside a
    bracket that it bisects when a step would leave it."""
    k = len(log_values)
    lo = float(log_values.min()) - math.log(k) - 1.0  # every sigma > k/(k+1)
    hi = float(log_values.max()) + math.log(k) + 1.0  # every sigma < 1/(k+1)
    s = float(np.partition(log_values, k - r)[k - r])  # the r-th largest
    for _ in range(200):
        th = np.tanh(0.5 * (log_values - s))  # sigma = (1 + th)/2
        excess = 0.5 * (k + float(th.sum())) - r
        if abs(excess) <= 0.25:
            break
        if excess > 0:
            lo = s
        else:
            hi = s
        slope = 0.25 * (k - float(th @ th))  # sum sigma (1 - sigma)
        s = s + excess / slope if slope > 0 else lo
        if not lo < s < hi:
            s = 0.5 * (lo + hi)
    return s


def log_esp(log_values: np.ndarray, r: int) -> float:
    """log of the order-r elementary symmetric polynomial of positive values.

    e_r(w) is the z^r coefficient of prod_i (1 + w_i z).  The product is
    multiplied out as a tree truncated at degree r: rows of polynomials are
    multiplied in pairs, level by level, vectorised across all pairs while
    the pairs outnumber the row length and one ``np.convolve`` per pair above
    that.  The values are first scaled by e^-s, with s chosen so that
    independent events of odds w_i e^-s have r expected successes
    (``_tilt``); e_r is then within a factor of about k of the product's
    largest coefficient, so none of the coefficients it is summed from
    underflows.  Before each product every row is scaled by the power of
    two that puts its largest coefficient in [1/2, 1), which is exact, with
    the exponent tracked per row, so no product overflows.
    """
    k = len(log_values)
    if not 0 <= r <= k:
        raise ValueError(f"order {r} out of range 0..{k}")
    if r == 0:
        return 0.0
    if r == k:
        return math.fsum(log_values.tolist())
    s = _tilt(log_values, r)
    rows = np.empty((k, 2), dtype=np.float64)
    rows[:, 0] = 1.0
    rows[:, 1] = np.exp(log_values - s)
    exps = np.zeros(k, dtype=np.int64)
    while len(rows) > 1:
        if len(rows) % 2:  # pair the odd row with the polynomial 1
            one = np.zeros((1, rows.shape[1]))
            one[0, 0] = 1.0
            rows = np.concatenate((rows, one))
            exps = np.append(exps, 0)
        top = np.frexp(rows.max(axis=1))[1]
        rows = np.ldexp(rows, -top[:, None])
        exps = exps + top
        a, b = rows[0::2], rows[1::2]
        pairs, width = a.shape
        size = min(2 * width - 1, r + 1)
        if pairs > width:
            rows = np.zeros((pairs, size))
            for i in range(width):  # size >= width: rows never exceed r + 1
                span = min(width, size - i)
                rows[:, i : i + span] += a[:, i, None] * b[:, :span]
        else:
            rows = np.array([np.convolve(x, y)[:size] for x, y in zip(a, b)])
        exps = exps[0::2] + exps[1::2]
    return math.log(rows[0, r]) + float(exps[0]) * math.log(2.0) + r * s


def _log_binom(k: int, r: int) -> float:
    """log C(k, r) as the exactly rounded sum of log(1 + (k-s)/j), j = 1..s,
    with s = min(r, k-r): positive terms, so no lgamma differences cancel."""
    s = min(r, k - r)
    return math.fsum(np.log1p((k - s) / np.arange(1, s + 1)).tolist())


def log_permuted_lr(ctx: ReductionContext) -> float:
    """log of the likelihood ratio of the kernel-permuted observation.

    The kernel average over permutations reduces to fixed per-arrival factors
    for post-change arrivals outside the relabelable set, times the mean of a
    symmetric product over distinct relabelable arrivals, which is exactly
    e_r(weights) / C(#relabelable, r).
    """
    n, tau = ctx.n, ctx.tau
    if tau == n:
        return 0.0
    total = _log_s_ratio(tau, n, ctx.delta0, ctx.delta1, ctx.m)
    members = ctx.bold.members
    late = np.arange(tau + 1, n + 1, dtype=np.int64)
    fixed = late[~np.isin(late, members)]
    if len(fixed):
        total += float(ctx.log_weight_of(fixed).sum())
    r = ctx.r
    if r:
        lw = ctx.log_weight_of(members)
        total += log_esp(lw, r) - _log_binom(len(members), r)
    return total


def permuted_lr(ctx: ReductionContext) -> float:
    return safe_exp(log_permuted_lr(ctx))


# ---------------------------------------------------------------------------
# Monte Carlo probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McResult:
    """Point estimate with its standard error and probe-specific extras."""

    estimate: float
    stderr: float
    replicates: int
    seed: int
    auxiliaries: dict
    per_replicate: dict = field(repr=False, default_factory=dict)


# Past this magnitude a sample's squared deviations can leave float range.
_SE_SCALE_FROM = 2.0**480


def _mean_se(x: np.ndarray) -> tuple[float, float]:
    """Sample mean and its standard error (NaN for one value).  A sample
    holding inf has an infinite error; a finite sample with values past
    ``_SE_SCALE_FROM`` is divided by its largest magnitude first, so neither
    overflows on the way."""
    x = np.asarray(x, dtype=np.float64)
    n = len(x)
    if np.isinf(x).any():
        return float(x.mean()), math.inf if n > 1 else float("nan")
    scale = float(np.abs(x).max())
    if scale <= _SE_SCALE_FROM:
        scale, y = 1.0, x
    else:
        y = x / scale
    se = float(y.std(ddof=1) / math.sqrt(n)) * scale if n > 1 else float("nan")
    return float(y.mean()) * scale, se


def _check_regime(delta0: float) -> None:
    if delta0 < 0:
        raise UnsupportedRegime("the probed statements cover delta0 >= 0 only")


def second_moment_bound_log_rhs(
    m: int, tau_prime: int, width: int, width_prime: int, alpha: float, c1: float, c2: float
) -> float:
    """log of the second-moment bound's right-hand side for given constants."""
    ratio = width * width / width_prime
    return (
        4.0 * alpha * width * width_prime / tau_prime
        + 22.0 * m * width * width / tau_prime
        + 2.0 / (3.0 * width_prime)
        + math.sqrt(c1 * ratio) * safe_exp(c2 * ratio)
    )


def _replicate_graphs(indices, n, m, profile, seed):
    """Replicate r's graph under ``profile`` from stream (seed, r), for each
    r of a campaign chunk, in order."""
    return simulate_many(n, m, [profile] * len(indices), [(seed, r) for r in indices])


def _second_moment_replicates(indices, n, m, delta0, delta1, tau, tau_prime, alpha, seed):
    records = []
    for g in _replicate_graphs(indices, n, m, DeltaProfile.constant(delta0), seed):
        ctx = ReductionContext.build(g, tau, tau_prime, alpha, delta0, delta1)
        log_y = log_permuted_lr(ctx)
        y = safe_exp(log_y)
        b = event_bn(ctx)
        records.append({
            "y": y, "log_y": log_y, "bn": bool(b), "y2_bn": y * y if b else 0.0,
            "y_bn": y if b else 0.0,
        })
    return records


def _log_mean_exp(log_terms: list[float], count: int) -> float:
    """log of sum(exp(log_terms)) / count; -inf when every term is -inf or
    there is none."""
    top = max(log_terms, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(v - top) for v in log_terms) / count)


def second_moment_probe(
    n: int,
    m: int,
    delta0: float,
    delta1: float,
    tau: int,
    tau_prime: int,
    alpha: float,
    replicates: int,
    seed: int,
    *,
    c1: float = 1.0,
    c2: float = 1.0,
    threads: int = 1,
) -> McResult:
    """Estimate E0[Y^2 1_B] under the constant law and evaluate the analytic
    bound's right-hand side for caller-supplied constants.

    The auxiliary ``log_estimate`` is the log of the same mean, formed from
    each replicate's log Y as the log-mean-exp of 2 log Y 1_B (-inf when no
    replicate is in B), so a second moment past float range, whose
    ``estimate`` reads inf, is still a number.

    The probed statement's hypotheses are enforced: n >= 4, 3 <= tau' < tau,
    alpha width'/tau' <= 1/2 and width/width' <= 1/4.
    """
    _check_regime(delta0)
    width = n - tau
    width_prime = n - tau_prime
    failures = []
    if n < 4:
        failures.append(f"n >= 4 required, got {n}")
    if tau_prime < 3:
        failures.append(f"tau_prime >= 3 required, got {tau_prime}")
    if not tau_prime < tau <= n:
        failures.append(f"tau_prime < tau <= n required, got {tau_prime}, {tau}, {n}")
    elif alpha * width_prime / tau_prime > 0.5:
        failures.append(
            f"alpha*width'/tau' <= 1/2 required, got {alpha * width_prime / tau_prime:.4f}"
        )
    if tau_prime < tau and width_prime > 0 and width / width_prime > 0.25:
        failures.append(f"width/width' <= 1/4 required, got {width / width_prime:.4f}")
    if failures:
        raise PreconditionViolated(failures)

    rows = campaign.run_replicates(
        _second_moment_replicates,
        replicates,
        args=(n, m, delta0, delta1, tau, tau_prime, alpha, seed),
        threads=threads,
    )
    y2 = np.array([row["y2_bn"] for row in rows])
    est, se = _mean_se(y2)
    y_bn_mean, y_bn_se = _mean_se(np.array([row["y_bn"] for row in rows]))
    log_est = _log_mean_exp([2.0 * row["log_y"] for row in rows if row["bn"]], replicates)
    log_rhs = second_moment_bound_log_rhs(m, tau_prime, width, width_prime, alpha, c1, c2)
    return McResult(
        estimate=est,
        stderr=se,
        replicates=replicates,
        seed=seed,
        auxiliaries={
            "log_estimate": log_est,
            "bound_log_rhs": log_rhs,
            "bound_rhs": safe_exp(log_rhs),
            "p0_bn": float(np.mean([row["bn"] for row in rows])),
            "mean_y_bn": y_bn_mean,
            "stderr_y_bn": y_bn_se,
            "c1": c1,
            "c2": c2,
        },
        per_replicate={
            "y": np.array([row["y"] for row in rows]),
            "bn": np.array([row["bn"] for row in rows]),
            "y2_bn": y2,
        },
    )


def _event_bn_replicates(indices, n, m, delta0, delta1, tau, tau_prime, alpha, seed):
    records = []
    for g in _replicate_graphs(indices, n, m, DeltaProfile.step(delta0, delta1, tau), seed):
        ctx = ReductionContext.build(g, tau, tau_prime, alpha, delta0, delta1)
        records.append({"bn_fail": not event_bn(ctx), "bold": ctx.bold.size, "bold_late": ctx.r})
    return records


def event_bn_failure_probe(
    n: int,
    m: int,
    delta0: float,
    delta1: float,
    tau: int,
    tau_prime: int,
    alpha: float,
    replicates: int,
    seed: int,
    *,
    c_const: float = 1.0,
    threads: int = 1,
) -> McResult:
    """Estimate P1(B^c) under the step law, together with the expected sizes
    of the relabelable set and of its post-change part, and the analytic
    failure bound's shape for a caller-supplied constant."""
    _check_regime(delta0)
    if tau_prime < 2:
        raise PreconditionViolated([f"tau_prime >= 2 required, got {tau_prime}"])
    rows = campaign.run_replicates(
        _event_bn_replicates,
        replicates,
        args=(n, m, delta0, delta1, tau, tau_prime, alpha, seed),
        threads=threads,
    )
    fail = np.array([row["bn_fail"] for row in rows], dtype=np.float64)
    est, se = _mean_se(fail)
    bold_mean, bold_se = _mean_se(np.array([row["bold"] for row in rows]))
    late_mean, late_se = _mean_se(np.array([row["bold_late"] for row in rows]))
    width = n - tau
    width_prime = n - tau_prime
    log_factor = math.log(tau_prime) if delta0 == 0 else 1.0
    bound = (c_const / alpha) * (1.0 + alpha * width * width_prime / tau_prime) * log_factor
    return McResult(
        estimate=est,
        stderr=se,
        replicates=replicates,
        seed=seed,
        auxiliaries={
            "bound_rhs": bound,
            "c_const": c_const,
            "mean_bold": bold_mean,
            "stderr_bold": bold_se,
            "mean_bold_late": late_mean,
            "stderr_bold_late": late_se,
            "width_prime": width_prime,
        },
        per_replicate={
            "bn_fail": fail,
            "bold": np.array([row["bold"] for row in rows]),
            "bold_late": np.array([row["bold_late"] for row in rows]),
        },
    )


def azuma_rate(m: int, delta0: float, delta1: float) -> float:
    """Exponential rate c in the tail bound exp(-c width' x^2), derived from
    the martingale increment bound b = 2 max(1, (m+d1)/(m+d0))^m: c = 1/(2 b^2),
    formed in logs, so a b past float range gives c = 0."""
    log_ratio = max(0.0, math.log(m + delta1) - math.log(m + delta0))
    return 0.125 * safe_exp(-2.0 * m * log_ratio)


def _martingale_replicates(indices, n, m, delta0, delta1, tau_prime, seed):
    records = []
    for g in _replicate_graphs(indices, n, m, DeltaProfile.constant(delta0), seed):
        log_w = arrival_log_weights(g, tau_prime + 1, delta0, delta1)
        records.append({"z": float(np.exp(log_w).mean())})
    return records


def martingale_tail_probe(
    n: int,
    m: int,
    delta0: float,
    delta1: float,
    tau_prime: int,
    replicates: int,
    seed: int,
    *,
    threads: int = 1,
) -> McResult:
    """Empirical upper-tail frequencies of the averaged weight ratio around
    its conditional mean, compared with exp(-c width' x^2) on a grid of x.

    The rate c is ``azuma_rate``'s, and the grid is always 201 points from 0
    to the x where the bound is 1e-6; both are reported in the
    auxiliaries.  The estimate is the fraction of grid points whose
    empirical frequency exceeds the bound (0.0 means the bound held
    everywhere).  UnsupportedRegime, before any replicate, if that x is
    not finite (the rate c underflows, as at large m |log((m+d1)/(m+d0))|)
    or if the mean weight m_n is not a positive float (it underflows or
    overflows there too): every weight would then read 0 or inf, and the
    tails would compare nothing.
    """
    failures = []
    if tau_prime < 3:
        failures.append(f"tau_prime >= 3 required, got {tau_prime}")
    if tau_prime >= n:
        failures.append(f"tau_prime < n required, got tau_prime={tau_prime}, n={n}")
    if failures:
        raise PreconditionViolated(failures)
    c = azuma_rate(m, delta0, delta1)
    width_prime = n - tau_prime
    x_max = math.sqrt(math.log(1e6) / (c * width_prime)) if c > 0 else math.inf
    if not math.isfinite(x_max):
        raise UnsupportedRegime(f"Azuma rate c = {c} gives no finite default x grid")
    x_grid = np.linspace(0.0, x_max, 201)
    mn = mean_weight_mn(tau_prime, n, delta0, delta1, m).value
    if not 0.0 < mn < math.inf:
        raise UnsupportedRegime(f"the mean weight m_n = {mn} is outside float range")
    rows = campaign.run_replicates(
        _martingale_replicates,
        replicates,
        args=(n, m, delta0, delta1, tau_prime, seed),
        threads=threads,
    )
    z = np.array([row["z"] for row in rows])
    excess = z - mn
    freq = (excess[None, :] >= x_grid[:, None]).mean(axis=1)
    bound = np.exp(-c * width_prime * x_grid**2)
    violations = freq > bound
    return McResult(
        estimate=float(violations.mean()),
        stderr=float("nan"),
        replicates=replicates,
        seed=seed,
        auxiliaries={
            "c": c,
            "m_n": mn,
            "x_grid": x_grid.tolist(),
            "tail_freq": freq.tolist(),
            "bound": bound.tolist(),
            "all_below": bool(not violations.any()),
            "mean_z": float(z.mean()),
            "sd_z": float(z.std(ddof=1)) if len(z) > 1 else float("nan"),
        },
        per_replicate={"z": z},
    )
