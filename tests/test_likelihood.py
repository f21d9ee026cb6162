import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacp import AttachmentLog, DeltaProfile, apply_permutation, bold_vertices, from_rows, simulate
from pacp.errors import DomainError
from pacp.inference import DELTA_MAX
from pacp.likelihood import (
    LogLik,
    _log_mult_sum,
    _log_s_ratio,
    _log_s_rows,
    _powers_table,
    _window_powers,
    arrival_log_weights,
    log_likelihood,
    log_lr,
    log_s_sum,
    s_product_ratio,
    s_value,
)

from helpers import (
    arrival_log_weights_per_edge,
    attachment_logs,
    count_support,
    log_mult_sum_sort_rows,
    log_numerator_gammaln,
    log_s_sum_grid,
    split_in_degrees,
    support_graphs,
)


def test_s_value_examples():
    assert s_value(2, 1, 0.0, 1) == 2.0
    assert s_value(3, 1, 1.0, 1) == 7.0
    assert s_value(2, 2, 0.5, 2) == 6.0
    with pytest.raises(DomainError):
        s_value(1, 1, 0.0, 1)
    with pytest.raises(DomainError):
        s_value(2, 1, -1.0, 1)


def test_loglik_trivial_cases():
    g1 = from_rows(1, 2, {})
    assert log_likelihood(g1, DeltaProfile.constant(0.3)).value == 0.0
    g2 = from_rows(2, 1, {2: [0]})
    assert log_likelihood(g2, DeltaProfile.constant(0.0)).value == pytest.approx(
        math.log(0.5), abs=1e-15
    )


def test_loglik_components_consistent():
    g = simulate(40, 2, DeltaProfile.constant(1.0), 7)
    for profile in (DeltaProfile.constant(0.5), DeltaProfile.step(0.5, 2.0, 20)):
        ll = log_likelihood(g, profile)
        assert isinstance(ll, LogLik)
        assert ll.value == pytest.approx(ll.log_comb + ll.log_numerator - ll.log_normalizer)
        assert ll.value < 0.0


@pytest.mark.parametrize("n,m", [(5, 1), (6, 1), (4, 2)])
def test_normalization_over_support(n, m):
    graphs = list(support_graphs(n, m))
    assert len(graphs) == count_support(n, m)
    for profile in (
        DeltaProfile.constant(0.0),
        DeltaProfile.constant(0.7),
        DeltaProfile.step(0.0, 1.5, max(1, n // 2)),
        DeltaProfile.step(2.0, -0.5 * m, n - 1),
    ):
        total = math.fsum(
            math.exp(log_likelihood(g, profile).value) for g in graphs
        )
        assert abs(total - 1.0) < 1e-12


def test_step_profile_tau_edges_match_constant():
    g = simulate(30, 1, DeltaProfile.constant(0.0), 8)
    full = log_likelihood(g, DeltaProfile.step(0.4, 2.0, 30)).value
    assert full == pytest.approx(log_likelihood(g, DeltaProfile.constant(0.4)).value)
    zero = log_likelihood(g, DeltaProfile.step(2.0, 0.4, 0)).value
    assert zero == pytest.approx(log_likelihood(g, DeltaProfile.constant(0.4)).value)


def test_step_likelihood_against_split_indegree_form():
    # independent route: price each vertex's in-edges one by one, the first
    # H_le at delta0 and the remaining H_gt at delta1, in arrival order
    from scipy.special import gammaln

    from pacp.likelihood import _log_mult_sum, log_s_sum

    rng = np.random.default_rng(13)
    for trial in range(30):
        n = int(rng.integers(3, 80))
        m = int(rng.integers(1, 4))
        tau = int(rng.integers(1, n))
        d0 = float(rng.uniform(-0.5 * m, 2.5))
        d1 = float(rng.uniform(-0.5 * m, 2.5))
        g = simulate(n, m, DeltaProfile.constant(0.4), (24, trial))
        h_le, h_gt = split_in_degrees(g, tau)
        h_le = h_le.astype(float)
        h_all = h_le + h_gt.astype(float)
        num = float(
            (gammaln(m + d0 + h_le) - gammaln(m + d0)).sum()
            + (gammaln(m + d1 + h_all) - gammaln(m + d1 + h_le)).sum()
        )
        comb = (n - 1) * math.lgamma(m + 1) - _log_mult_sum(g)
        norm = log_s_sum(2, tau, d0, m) + log_s_sum(tau + 1, n, d1, m)
        oracle = comb + num - norm
        value = log_likelihood(g, DeltaProfile.step(d0, d1, tau)).value
        assert value == pytest.approx(oracle, abs=1e-9)


def test_log_lr_trivial_and_worked():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    assert log_lr(g, 2, 0.7, 0.7) == pytest.approx(0.0, abs=1e-14)
    assert log_lr(g, 3, 0.0, 2.0) == 0.0
    assert log_lr(g, 2, 0.0, 1.0) == pytest.approx(math.log(6 / 7), abs=1e-12)


def test_log_lr_is_likelihood_difference():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(3, 50))
        m = int(rng.integers(1, 4))
        g = simulate(n, m, DeltaProfile.constant(0.5), (19, trial))
        tau = int(rng.integers(1, n))
        d0 = float(rng.uniform(-0.5 * m, 2))
        d1 = float(rng.uniform(-0.5 * m, 2))
        direct = (
            log_likelihood(g, DeltaProfile.step(d0, d1, tau)).value
            - log_likelihood(g, DeltaProfile.constant(d0)).value
        )
        assert log_lr(g, tau, d0, d1) == pytest.approx(direct, abs=1e-9)


def test_two_form_agreement_random():
    rng = np.random.default_rng(10)
    for trial in range(60):
        n = int(rng.integers(3, 400))
        m = int(rng.integers(1, 4))
        g = simulate(n, m, DeltaProfile.constant(float(rng.uniform(-0.5 * m, 2))), (20, trial))
        tau = int(rng.integers(1, n + 1))
        d0 = float(rng.uniform(-0.8 * m, 3))
        d1 = float(rng.uniform(-0.8 * m, 3))
        tail = log_lr(g, tau, d0, d1, method="tail")
        seq = log_lr(g, tau, d0, d1, method="sequential")
        assert abs(tail - seq) <= 1e-10


@given(attachment_logs(), st.data())
def test_two_forms_agree_on_any_log(g, data):
    tau = data.draw(st.integers(1, g.n))
    d0 = data.draw(st.floats(-0.99 * g.m, 5.0))
    d1 = data.draw(st.floats(-0.99 * g.m, 5.0))
    tail = log_lr(g, tau, d0, d1, method="tail")
    seq = log_lr(g, tau, d0, d1, method="sequential")
    assert abs(tail - seq) <= 1e-10


@given(attachment_logs(m_max=5), st.data())
def test_arrival_log_weights_match_per_edge_oracle(g, data):
    # one log per distinct degree, gathered: the same floats as two per edge
    t_lo = data.draw(st.integers(2, g.n + 1), label="t_lo")
    d0 = data.draw(st.floats(-0.99 * g.m, 5.0), label="delta0")
    d1 = data.draw(st.floats(-0.99 * g.m, 5.0), label="delta1")
    got = arrival_log_weights(g, t_lo, d0, d1)
    assert got.tolist() == arrival_log_weights_per_edge(g, t_lo, d0, d1).tolist()


# Rows with two separate repeat groups, such as (1, 0, 1, 0, 0), need m >= 4.
@example(AttachmentLog(4, 5, [1, 0, 1, 0, 0, 2, 0, 2, 1, 0, 3, 1, 3, 1, 3]))
@given(attachment_logs(m_max=5))
def test_log_mult_sum_matches_sort_every_row_oracle(g):
    assert _log_mult_sum(g) == log_mult_sum_sort_rows(g)


@given(attachment_logs(), st.data())
def test_null_likelihood_is_label_invariant(g, data):
    # the constant-parameter likelihood depends only on the degree multiset,
    # so kernel relabelings must reproduce it bit for bit
    tau_prime = data.draw(st.integers(0, g.n - 1), label="tau_prime")
    members = bold_vertices(g, tau_prime).members.tolist()
    perm = np.arange(g.n + 1, dtype=np.int64)
    perm[members] = data.draw(st.permutations(members), label="image")
    relabeled = apply_permutation(g, perm)
    for delta in (0.0, 0.9):
        a = log_likelihood(g, DeltaProfile.constant(delta)).value
        b = log_likelihood(relabeled, DeltaProfile.constant(delta)).value
        assert a == b


@given(attachment_logs(), st.data())
def test_numerator_matches_gammaln_histogram_oracle(g, data):
    m = g.m
    deltas = st.floats(-m + 0.05, 5.0, allow_nan=False)
    tau = data.draw(st.integers(0, g.n), label="tau")
    d0 = data.draw(deltas, label="delta0")
    d1 = data.draw(deltas, label="delta1")
    for profile in (DeltaProfile.constant(d0), DeltaProfile.step(d0, d1, tau)):
        got = log_likelihood(g, profile).log_numerator
        want = log_numerator_gammaln(g, profile)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def _mp_numerator(g, profile):
    # each vertex's rising factorial, term by term: degrees m..d_tau - 1 at
    # delta0, then d_tau..d_n - 1 at delta1 (tau = n for a constant profile)
    tau = profile.tau if profile.is_step else g.n
    final = g.degrees().tolist()
    pre = g.degrees(upto=max(tau, 1)).tolist() if tau >= 1 else []
    pre += [g.m] * (len(final) - len(pre))
    d0 = mpmath.mpf(profile.delta0)
    d1 = mpmath.mpf(profile.delta1) if profile.is_step else d0
    total = mpmath.mpf(0)
    for a, b in zip(pre, final):
        total += mpmath.fsum(mpmath.log(k + d0) for k in range(g.m, a))
        total += mpmath.fsum(mpmath.log(k + d1) for k in range(a, b))
    return total


def test_numerator_against_mpmath():
    # every k + delta here is exact in binary and at least one, so each term
    # is non-negative and the float sum can only lose its last bits
    worst = 0.0
    with mpmath.workdps(40):
        for trial, (n, m) in enumerate(((12, 1), (60, 2), (300, 1), (200, 3))):
            g = simulate(n, m, DeltaProfile.step(0.5, 2.0, n // 2), (31, trial))
            for profile in (
                DeltaProfile.constant(1.75),
                DeltaProfile.step(0.5, 3.0, (2 * n) // 3),
                DeltaProfile.step(2.25, float(1 - m), 0),
            ):
                exact = _mp_numerator(g, profile)
                got = log_likelihood(g, profile).log_numerator
                worst = max(worst, float(abs((got - exact) / exact)))
    assert worst <= 5e-16


def test_unit_mean_lr_quick():
    n, tau, reps = 100, 90, 2000
    d0, d1 = 0.0, 0.5
    vals = np.empty(reps)
    for r in range(reps):
        g = simulate(n, 1, DeltaProfile.constant(d0), (22, r))
        vals[r] = math.exp(log_lr(g, tau, d0, d1))
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - 1.0) <= 3 * se


def test_s_product_ratio_examples():
    bv = s_product_ratio(3, 10, 0.7, 0.7, 2)
    assert bv.value == pytest.approx(1.0, abs=1e-12)
    assert bv.lower <= 1.0 <= bv.upper
    single = s_product_ratio(3, 4, 0.0, 1.0, 1)
    assert single.value == pytest.approx(0.6, abs=1e-12)
    with pytest.raises(DomainError):
        s_product_ratio(2, 5, 0.0, 1.0, 1)


def test_s_product_ratio_bounds_never_violated():
    # BoundedValue asserts containment on construction
    rng = np.random.default_rng(12)
    for _ in range(300):
        m = int(rng.integers(1, 4))
        tau = int(rng.integers(3, 500))
        n = tau + int(rng.integers(0, 300))
        d0 = float(rng.uniform(-0.9 * m, 4))
        d1 = float(rng.uniform(-0.9 * m, 4))
        s_product_ratio(tau, n, d0, d1, m)


def _mp_log_s_rows(lo, hi, d_num, d_den, m):
    # per arrival, sum_i log S(d_num) - log S(d_den) with S = (2m+d)t - 2m + i
    d_num, d_den = mpmath.mpf(d_num), mpmath.mpf(d_den)
    return [
        mpmath.fsum(
            mpmath.log(((2 * m + d_num) * t - 2 * m + i) / ((2 * m + d_den) * t - 2 * m + i))
            for i in range(m)
        )
        for t in range(max(lo, 2), hi + 1)
    ]


def test_normalizer_ratios_against_mpmath():
    # Every sub-step's log S(d0)/S(d1) has the sign of d0 - d1, so the window
    # sum and each per-arrival row are well conditioned: both must match a
    # 40-digit sum to a few ulp.  The first case is the post-change window of
    # a 1e5-arrival log, where the difference of two whole-window log sums
    # erred by 4.9e-11 (25 ulp).
    eps = np.finfo(float).eps
    guard = 1e-9
    with mpmath.workdps(40):
        for tau, n, d0, d1, m in (
            (90_000, 10**5, 0.0, 2.0, 3),
            (99_990, 10**5, 0.3, 0.30001, 3),
            (99_900, 10**5, 0.30001, 0.3, 1),
            (10**6 - 100, 10**6, -3 + 3 * guard, 1e6, 3),
            (10**6 - 1, 10**6, 1e6, -1 + 1e-6, 1),
            (1, 100, 0.5, -1 + guard + 1e-7, 1),
            (30, 130, 0.0, 2.0, 2),
            (1, 50, 1e6, -2 + 2 * guard, 2),
        ):
            exact = mpmath.fsum(_mp_log_s_rows(tau + 1, n, d0, d1, m))
            got = _log_s_ratio(tau, n, d0, d1, m)
            assert abs(got - exact) <= 4 * eps * abs(exact), (tau, n, d0, d1, m)
            rows = _log_s_rows(max(tau + 1, n - 99), n, d0, d1, m)
            exact_rows = _mp_log_s_rows(max(tau + 1, n - 99), n, d1, d0, m)
            for row, want in zip(rows, exact_rows):
                assert abs(row - want) <= 4 * eps * abs(want), (tau, n, d0, d1, m)
        # rows across the head/tail split of the normalizer table
        for d0, d1, m in ((0.0, 2.0, 3), (-3 + 3 * guard, 1e6, 3), (0.3, 0.30001, 1)):
            rows = _log_s_rows(2, 200, d0, d1, m)
            for row, want in zip(rows, _mp_log_s_rows(2, 200, d1, d0, m)):
                assert abs(row - want) <= 4 * eps * abs(want), (d0, d1, m)


@st.composite
def _s_ratio_cases(draw):
    m = draw(st.integers(1, 5))
    # windows from below T0 = 64 to past one or two 16-fold stretches
    tau = draw(st.one_of(st.integers(1, 80), st.integers(1, 13_000)))
    n = draw(st.one_of(st.integers(tau, max(tau, 2_000)), st.integers(tau, 200_000)))
    guard = -m + 1e-9 * m
    deltas = st.one_of(st.just(guard), st.floats(guard, 10.0), st.floats(10.0, 1e6))
    d0 = draw(deltas)
    d1 = draw(deltas.filter(lambda d: d != d0))
    return tau, n, d0, d1, m


@settings(max_examples=200)
@example((62, 1100, 0.0, 2.0, 3))  # head arrival 63, then across 16·64 = 1024
@example((1, 200_000, -1 + 1e-9, 1e6, 1))
@example((4000, 200_000, 1e6, -5 + 5e-9, 5))
@given(_s_ratio_cases())
def test_log_s_ratio_is_the_sum_of_its_rows(case):
    # The total sums the window's terms at the first arrival's J; the rows
    # cut J per 16-fold stretch.  Every row has the sign of d1 - d0, so the
    # two must agree to a few ulp of the total.
    tau, n, d0, d1, m = case
    total = _log_s_ratio(tau, n, d0, d1, m)
    want = -math.fsum(_log_s_rows(tau + 1, n, d0, d1, m).tolist())
    assert abs(total - want) <= 4 * np.finfo(float).eps * abs(want)


def test_log_s_sum_against_mpmath():
    # Windows of length 1 to 100: head only (t < 64), across the head/series
    # split at T0 = 64, and series only, up to arrival 1e6.  Near the guard
    # some head totals are close to 0 or to 1, and the sum must still hold
    # its relative accuracy against a 40-digit sum.
    windows = [
        (1, 1), (2, 2), (3, 3), (2, 9), (5, 11), (2, 63), (1, 100), (40, 139),
        (60, 70), (63, 64), (64, 64), (1000, 1099), (99_901, 100_000), (10**6, 10**6),
    ]
    with mpmath.workdps(40):
        for m in (1, 2, 3):
            for delta in (-m + 1e-9, 0.0, 2.0, 50.0, DELTA_MAX):
                d = mpmath.mpf(delta)
                for lo, hi in windows:
                    exact = mpmath.fsum(
                        mpmath.log((2 * m + d) * t - 2 * m + i)
                        for t in range(max(lo, 2), hi + 1)
                        for i in range(m)
                    )
                    got = log_s_sum(lo, hi, delta, m)
                    assert abs(got - exact) <= 1e-15 * abs(exact), (lo, hi, delta, m)


def test_log_s_sum_matches_grid_oracle():
    rng = np.random.default_rng(2020)
    for _ in range(200):
        m = int(rng.integers(1, 6))
        lo = int(rng.integers(1, 3000))
        hi = lo + int(rng.integers(-1, 500))
        delta = float(rng.uniform(-0.9 * m, 10.0))
        want = log_s_sum_grid(lo, hi, delta, m)
        assert log_s_sum(lo, hi, delta, m) == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_whole_log_and_from_two_windows_share_one_table():
    # log_likelihood prices the whole log as the window (1, n) and
    # localize_tau the per-arrival rows of (2, n): arrival 1 has no
    # sub-step, so both read one cached table.
    n, m = 5000, 2
    g = simulate(n, m, DeltaProfile.constant(0.5), 20)
    _powers_table.cache_clear()
    assert _window_powers(1, n, m) is _window_powers(2, n, m)
    _powers_table.cache_clear()
    log_likelihood(g, DeltaProfile.constant(0.5))
    _log_s_rows(2, n, 0.5, 1.5, m)
    info = _powers_table.cache_info()
    assert (info.misses, info.hits) == (1, 1)
