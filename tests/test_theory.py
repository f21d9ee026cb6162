import math

import numpy as np
import pytest

from pacp import DeltaProfile, simulate
from pacp.errors import DomainError
from pacp.theory import (
    DegreeLaw,
    _jensen_gap,
    _log_gamma_ratio_step,
    asymptotic_variance,
    degree_moment,
    limit_degree_pmf,
    limit_degree_tail,
    limit_loglr_rate,
    log_integral_bound,
    mean_weight_mn,
)

from helpers import degree_moment_by_arrival, support_graphs


def test_pmf_worked_values():
    assert limit_degree_pmf(1, 1, 0.0) == pytest.approx(2 / 3, abs=1e-12)
    assert limit_degree_pmf(2, 1, 0.0) == pytest.approx(1 / 6, abs=1e-12)
    # closed form at delta=0, m=1 is 4 / (k (k+1) (k+2))
    for k in (3, 10, 57):
        assert limit_degree_pmf(k, 1, 0.0) == pytest.approx(
            4 / (k * (k + 1) * (k + 2)), rel=1e-12
        )
    with pytest.raises(DomainError):
        limit_degree_pmf(0, 1, 0.0)
    with pytest.raises(DomainError):
        limit_degree_pmf(1, 1, -1.0)


def test_tail_identity_against_rational_closed_form():
    # independent oracle at delta=0, m=1: summing 4/(j(j+1)(j+2)) telescopes
    # to 2/((k+1)(k+2))
    for k in range(1, 201):
        assert limit_degree_tail(k, 1, 0.0) == pytest.approx(
            2 / ((k + 1) * (k + 2)), rel=1e-12
        )


def test_tail_identity_against_direct_summation():
    # light-tailed case, so brute summation converges below the tolerance
    m, delta = 1, 2.0
    law = DegreeLaw(m, delta)
    ks = np.arange(m, 3 * 10**6 + 1)
    pk = law.pmf(ks)
    suffix = np.cumsum(pk[::-1])[::-1]
    for k in range(m, 201):
        direct = float(suffix[k - m + 1])
        assert abs(law.tail(k) - direct) < 1e-10


def test_pmf_sums_to_one_and_mean_2m():
    for m, delta in ((1, 0.0), (2, 1.0), (1, 2.0), (3, -1.5)):
        law = DegreeLaw(m, delta)
        K = 200_000
        head = law.head(K)
        assert abs(head.sum() + law.tail(K) - 1.0) < 1e-8
        # E[X 1{X>K}] = K p_{>K} + sum_{j>=K} p_{>j}; the second piece has the
        # Gamma-telescoping closed form Gamma(K+1+d)/((1+d/m) Gamma(K+2+d+d/m))
        from scipy.special import gammaln

        r = delta / m
        c_tail = (
            math.log(m / (2 * m + delta))
            + math.log(2 + r)
            + gammaln(m + 2 + delta + r)
            - gammaln(m + delta)
        )
        tail_sum = math.exp(
            c_tail + gammaln(K + 1 + delta) - gammaln(K + 2 + delta + r) - math.log(1 + r)
        )
        mean = float(np.arange(m, K + 1) @ head) + K * law.tail(K) + tail_sum
        assert abs(mean - 2 * m) < 1e-8


def test_rates_trivial_and_positive():
    assert limit_loglr_rate(0.7, 0.7, 1, "H0").value == 0.0
    assert limit_loglr_rate(0.7, 0.7, 2, "H1").value == 0.0
    rng = np.random.default_rng(23)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        d0 = float(rng.uniform(-0.8 * m, 3))
        d1 = float(rng.uniform(-0.8 * m, 3))
        if d0 == d1:
            continue
        for hyp in ("H0", "H1"):
            r = limit_loglr_rate(d0, d1, m, hyp)
            assert r.value > 0.0
            assert r.remainder_bound < 1e-12


def test_rate_matches_monte_carlo_quick():
    from pacp.likelihood import log_lr

    n, width, reps = 4000, 1000, 80
    tau = n - width
    m, d0, d1 = 1, 0.0, 2.0
    vals = np.empty(reps)
    for r in range(reps):
        g = simulate(n, m, DeltaProfile.constant(d0), (24, r))
        vals[r] = -log_lr(g, tau, d0, d1) / width
    l0 = limit_loglr_rate(d0, d1, m, "H0").value
    assert abs(vals.mean() - l0) / l0 < 0.06


def _mp_gap_m1(c):
    """E[1/(X+c)] - 1/(2+c) at m=1, delta0=0, by partial fractions of
    4/(k(k+1)(k+2)(k+c)) in digammas; c = 0, 1, 2 are removable points."""
    import mpmath

    coef = (2 / c, -4 / (c - 1), 2 / (c - 2), -4 / (c * (1 - c) * (2 - c)))
    shift = (1, 2, 3, 1 + c)
    return -sum(q * mpmath.digamma(s) for q, s in zip(coef, shift)) - 1 / (2 + c)


def test_rate_matches_mpmath_gap_integral():
    # the rate at m=1, delta0=0 as m/(2m+shift) times the integral of
    # |y - shift| gap(y), by 40-digit tanh-sinh split at the removable points
    # and at each decade, so that no panel spans more than a factor of 10
    import mpmath

    bad = []
    for d1 in (1e-5, 0.5, 2.0, 1e3, 1e6):
        for hyp in ("H0", "H1"):
            with mpmath.workdps(40):
                shift = mpmath.mpf(0.0 if hyp == "H0" else d1)
                cuts = [0.0] + [c for c in (1.0, 2.0) if c < d1]
                cuts += [10.0**j for j in range(1, 7) if 10.0**j < d1] + [d1]
                ref = mpmath.quad(lambda y: abs(y - shift) * _mp_gap_m1(y), cuts) / (2 + shift)
            rate = limit_loglr_rate(0.0, d1, 1, hyp).value
            if not abs(rate - ref) <= 1e-13 * ref:
                bad.append((d1, hyp, float(abs(rate / ref - 1))))
    assert bad == []


def _mp_rate_series(d0, d1, m, hyp):
    """The rate from its defining series at 40 digits: the direct sum of
    p_k (c - x log(1 + c/x)) to K = max(2000, 4|c|), then ``mpmath.sumem``."""
    import mpmath

    with mpmath.workdps(40):
        d0, d1 = mpmath.mpf(d0), mpmath.mpf(d1)
        r = d0 / m
        shift, c = (d0, d1 - d0) if hyp == "H0" else (d1, d0 - d1)
        log_c = mpmath.log(2 + r) + mpmath.loggamma(m + 2 + d0 + r) - mpmath.loggamma(m + d0)

        def term(k):
            p = mpmath.exp(log_c + mpmath.loggamma(k + d0) - mpmath.loggamma(k + 3 + d0 + r))
            return p * (c - (k + shift) * mpmath.log1p(c / (k + shift)))

        big_k = int(max(2000, 4 * abs(c)))
        series = mpmath.fsum(term(k) for k in range(m, big_k)) + mpmath.sumem(term, [big_k, mpmath.inf])
        anchor = (2 * m + shift) * mpmath.log1p(c / (2 * m + shift))
        return (anchor - c + series) * m / (2 * m + shift)


def test_rate_matches_mpmath_series():
    bad = []
    for d0, d1, m in ((-0.9, 2.0, 1), (0.0, 50.0, 3)):
        for hyp in ("H0", "H1"):
            ref = _mp_rate_series(d0, d1, m, hyp)
            rate = limit_loglr_rate(d0, d1, m, hyp).value
            if not abs(rate - ref) <= 1e-13 * ref:
                bad.append((d0, d1, m, hyp, float(abs(rate / ref - 1))))
    assert bad == []


def test_pmf_exact_form_to_a_billion():
    k = np.array([1, 2, 3, 10, 1e3, 1e5, 1e6, 1e7, 1e8, 1e9])
    exact = 4 / (k * (k + 1) * (k + 2))
    assert np.abs(limit_degree_pmf(k, 1, 0.0) / exact - 1).max() <= 1e-13


def test_pmf_matches_mpmath_loggamma():
    # p_k is exp of a difference of log-gamma ratios of size about
    # h log(k+delta+h), h = 3 + delta/m, so each rounding there costs that
    # many ulps of p_k: 1e-15 per unit of that size, and at least 1e-14
    import mpmath

    bad = []
    for m in (1, 2, 3):
        for delta in (-0.9 * m, 0.0, 2.0, 50.0, 1e3):
            ks = np.array([m, m + 1, m + 4, 20, 300, 1e4, 1e6, 1e9])
            h = 3 + delta / m
            for k, p in zip(ks, limit_degree_pmf(ks, m, delta)):
                with mpmath.workdps(40):
                    d, r = mpmath.mpf(delta), mpmath.mpf(delta) / m
                    ref = mpmath.exp(
                        mpmath.log(2 + r) + mpmath.loggamma(m + 2 + d + r) - mpmath.loggamma(m + d)
                        + mpmath.loggamma(k + d) - mpmath.loggamma(k + 3 + d + r)
                    )
                tol = max(1e-14, 1e-15 * h * math.log(k + delta + h))
                if ref < 1e-300:  # underflows as a double
                    ok = p < 1e-300
                else:
                    ok = abs(p - ref) <= tol * ref
                if not ok:
                    bad.append((m, delta, float(k), float(abs(p / ref - 1))))
    assert bad == []


def test_pmf_log_gamma_step_at_large_delta_matches_mpmath():
    # At delta = 1e3, m = 1 each log-gamma ratio R is about -7e3, so a
    # difference of two R values erred by about 5e-13 in p_k near k = m.
    # The step R(k+delta) - R(m+delta) is formed directly: it must hold
    # 1e-14 of its own size, and p_k with it where its log is small.
    import mpmath

    m, delta = 1, 1e3
    h = 3 + delta / m
    ks = np.array([2.0, 5.0, 20.0, 1e3, 1e6])
    steps = _log_gamma_ratio_step(m + delta, ks - m, h)
    pmf = limit_degree_pmf(ks, m, delta)
    with mpmath.workdps(40):
        d = mpmath.mpf(delta)

        def log_ratio(x):
            return mpmath.loggamma(x) - mpmath.loggamma(x + h)

        for k, step, p in zip(ks, steps, pmf):
            want = log_ratio(k + d) - log_ratio(m + d)
            assert abs(step - want) <= 1e-14 * abs(want), k
            if k <= 20:
                ref = (2 + d / m) / (m + 2 + d + d / m) * mpmath.exp(want)
                assert abs(p - ref) <= 1e-14 * ref, k


def test_variance_positive_and_nu0_ignores_delta1():
    rng = np.random.default_rng(25)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        d0 = float(rng.uniform(-0.8 * m, 3))
        d1 = float(rng.uniform(-0.8 * m, 3))
        assert asymptotic_variance(0, d0, d1, m).value > 0
        assert asymptotic_variance(1, d0, d1, m).value > 0
    a = asymptotic_variance(0, 0.5, -0.3, 2).value
    b = asymptotic_variance(0, 0.5, 2.5, 2).value
    assert a == b


def _mp_gap(c, m, delta0):
    """E[1/(X+c)] - 1/(2m+c) at 40 digits from the 3F2 form of the series:
    E[1/(X+c)] = p_m/(m+c) 3F2(1, m+a, m+c; m+b, m+c+1; 1)."""
    import mpmath

    with mpmath.workdps(40):
        a = mpmath.mpf(delta0)
        r = a / m
        b = 3 + a + r
        c = mpmath.mpf(c)
        p_m = (2 + r) / (m + b - 1)
        mean = p_m / (m + c) * mpmath.hyp3f2(1, m + a, m + c, m + b, m + c + 1, 1)
        return mean - 1 / (2 * m + c)


def _cases():
    # hyp3f2 takes ~3-4 s at c = delta0 unless delta0 is an integer, so the
    # c = delta0 (nu_0) column runs at delta0 in {0, 2} only
    for m in (1, 2, 3):
        for d0 in (-0.9 * m, -0.5 * m, 0.0, 0.5, 2.0):
            cs = {0.0, 3.0, 7.0, 40.0} | ({d0} if d0 in (0.0, 2.0) else set())
            for c in sorted(cs):
                yield m, d0, c


def test_jensen_gap_matches_mpmath_reference():
    eps = np.finfo(float).eps
    for m, d0, c in _cases():
        gap = _jensen_gap(c, m, d0)
        err = float(abs(gap.value - _mp_gap(c, m, d0)))
        assert err <= 1e-13 * gap.value, (m, d0, c, err)
        # the p_k ratio recurrence rounds at most ~2 eps per term
        assert err <= gap.remainder_bound + 2 * gap.terms * eps * gap.value, (m, d0, c, err)
        assert gap.terms < 500, (m, d0, c, gap.terms)


def test_jensen_gap_remainder_bound_is_certified():
    # a loose stop leaves a truncation error far above rounding: it must stay
    # within the certified remainder
    eps = np.finfo(float).eps
    for m, d0, c in ((1, -0.9, 0.0), (2, 0.0, 7.0), (3, 2.0, 40.0), (1, 0.0, 0.0)):
        gap = _jensen_gap(c, m, d0, rel_tol=1e-6)
        err = float(abs(gap.value - _mp_gap(c, m, d0)))
        assert err <= gap.remainder_bound + 2 * gap.terms * eps * gap.value, (m, d0, c)


def test_variance_exact_anchors():
    # m=1, delta0=0: p_k = 4/(k(k+1)(k+2)) gives E[1/X] = pi^2/3 - 5/2, and at
    # delta1 = 3 = b the telescoped tail is a single closed-form term
    assert asymptotic_variance(0, 0.0, 0.0, 1).value == pytest.approx(
        math.pi**2 / 6 - 1.5, rel=1e-14
    )
    assert asymptotic_variance(1, 0.0, 3.0, 1).value == pytest.approx(1 / 225, rel=1e-14)


def test_variance_positive_and_exact_up_to_delta_max():
    import mpmath

    from pacp.inference import DELTA_MAX

    for d1 in (1e3, 1e4, 1e5, DELTA_MAX):
        assert asymptotic_variance(1, 0.0, d1, 3).value > 0
        with mpmath.workdps(40):
            c = mpmath.mpf(d1)
            exact = float(_mp_gap_m1(c) / (2 + c))
        assert asymptotic_variance(1, 0.0, d1, 1).value == pytest.approx(exact, rel=1e-13)
    with pytest.raises(DomainError):
        asymptotic_variance(1, 0.0, 1e9, 1)  # past 1e8 head terms


def test_degree_moment_base_case():
    # at t = 1 v u the degree is m almost surely: empty products
    for m, d0 in ((1, 0.0), (2, 1.0), (3, -0.5)):
        mc = degree_moment(0, 1, m, d0)
        assert mc.xi == 1.0 and mc.kappa == 0.0
        assert mc.mean == pytest.approx(m + d0)
        assert mc.second_moment == pytest.approx((m + d0) ** 2)


def test_degree_moment_worked_example():
    mc = degree_moment(0, 2, 1, 0.0)
    assert mc.xi == pytest.approx(2.0, abs=1e-14)
    assert mc.kappa == pytest.approx(0.5, abs=1e-14)
    assert mc.mean == pytest.approx(1.5, abs=1e-14)
    assert mc.second_moment == pytest.approx(2.5, abs=1e-14)


@pytest.mark.parametrize("m", (1, 2, 3))
def test_degree_moment_matches_per_arrival_recursion(m):
    # the rising-factorial products round in another order than the
    # per-arrival recursion, so the two agree to 1e-13 relative, not bitwise
    for delta in (-0.9 * m, -0.3 * m, 0.0, 0.7, 2.5, 40.0):
        for t in (1, 2, 3, 50, 400):
            for u in sorted({0, 1, 2, t - 1} & set(range(t))):
                mc = degree_moment(u, t, m, delta)
                ref = degree_moment_by_arrival(u, t, m, delta)
                assert (mc.xi, mc.kappa, mc.gamma_prod) == pytest.approx(ref, rel=1e-13, abs=0)


def _mp_degree_moment(u, t, m, delta0):
    """(xi, kappa, gamma_prod) in 40 digits: each arrival's sub-steps
    telescope, prod_i (1 + 1/(S_i + c)) = (At - m + c)/(At - 2m + c) with
    A = 2m + delta0, so G and Q are log-gamma quotients."""
    import mpmath

    with mpmath.workdps(40):
        a = 2 * m + mpmath.mpf(delta0)
        lo = max(1, u) + 1

        def log_prod(c):
            x, y = (m - c) / a, (2 * m - c) / a
            return (
                mpmath.loggamma(t + 1 - x) - mpmath.loggamma(lo - x)
                - mpmath.loggamma(t + 1 - y) + mpmath.loggamma(lo - y)
            )

        g, log_q = mpmath.exp(log_prod(0)), log_prod(1)
        return float(g * mpmath.exp(log_q)), float(g * mpmath.expm1(log_q)), float(g)


def test_degree_moment_matches_mpmath_loggamma():
    # each field within 1e-14 relative of the 40-digit closed form, up to
    # t = 1e6 and down to delta0 = -m + 1e-6
    pairs = ((0, 2), (0, 7), (3, 100), (17, 100), (0, 10**4), (500, 10**5),
             (10**5, 150_000), (900_000, 10**6), (0, 10**6))
    for m in (1, 2, 3, 5):
        for delta in (-m + 1e-6, -m / 2, 0.0, 0.7, 50.0, 1e4):
            for u, t in pairs:
                mc = degree_moment(u, t, m, delta)
                ref = _mp_degree_moment(u, t, m, delta)
                assert (mc.xi, mc.kappa, mc.gamma_prod) == pytest.approx(ref, rel=1e-14, abs=0)


def test_degree_moment_monotone_growth():
    prev_xi, prev_kappa = 1.0, 0.0
    for t in range(2, 30):
        mc = degree_moment(0, t, 2, 0.3)
        assert mc.xi >= prev_xi and mc.kappa >= prev_kappa
        prev_xi, prev_kappa = mc.xi, mc.kappa


def test_degree_moment_exhaustive_enumeration():
    from pacp.likelihood import log_likelihood

    m = 1
    for delta in (0.0, 0.7):
        profile = DeltaProfile.constant(delta)
        for t in (2, 3, 4):
            for u in range(0, t):
                first = second = 0.0
                for g in support_graphs(t, m):
                    p = math.exp(log_likelihood(g, profile).value)
                    d = g.degrees()[u] + delta
                    first += p * d
                    second += p * d * d
                mc = degree_moment(u, t, m, delta)
                assert abs(first - mc.mean) < 1e-12
                assert abs(second - mc.second_moment) < 1e-12


def test_degree_moment_growth_bound():
    # max(xi, kappa) <= B (t/(1 v u))^{2m/(2m+d0)} with one calibrated B
    B = 3.0
    for m, d0 in ((1, 0.0), (2, 1.0), (1, 2.0)):
        expo = 2 * m / (2 * m + d0)
        for u in (0, 1, 5, 20):
            for t in (u + 1, u + 5, u + 50, 400):
                if t <= u:
                    continue
                mc = degree_moment(u, t, m, d0)
                cap = B * (t / max(1, u)) ** expo
                assert max(mc.xi, mc.kappa) <= cap


def test_mean_weight_examples_and_bounds():
    assert mean_weight_mn(3, 10, 0.7, 0.7, 2).value == pytest.approx(1.0, abs=1e-12)
    assert mean_weight_mn(3, 4, 0.0, 1.0, 1).value == pytest.approx(10 / 6, abs=1e-12)
    with pytest.raises(DomainError):
        mean_weight_mn(2, 10, 0.0, 1.0, 1)
    rng = np.random.default_rng(26)
    for _ in range(250):
        m = int(rng.integers(1, 4))
        tp = int(rng.integers(3, 400))
        n = tp + int(rng.integers(1, 300))
        d0 = float(rng.uniform(-0.9 * m, 4))
        d1 = float(rng.uniform(-0.9 * m, 4))
        mean_weight_mn(tp, n, d0, d1, m)  # containment asserted on construction


def test_mean_weight_at_extreme_weight_ratios():
    # every row's exp under- or overflows; the log-mean-exp stays finite and
    # inside its envelope (asserted on construction)
    low = mean_weight_mn(100, 200, 1000.0, -999.0, 1000)
    assert low.value == 0.0 and low.log_value == pytest.approx(-1103.84, abs=0.01)
    high = mean_weight_mn(10, 200, -999.0, 1e6, 1000)
    assert high.value == math.inf and high.log_value == pytest.approx(7050.33, abs=0.01)


def test_log_integral_bound_dominates_quadrature():
    from scipy.integrate import quad

    for beta in (0.1, 0.5, 1.0, 4.0):
        val, _ = quad(lambda x: math.exp(-beta * math.log(x) ** 2), 1, np.inf)
        assert 0 <= val <= log_integral_bound(beta)
