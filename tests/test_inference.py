import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacp import AttachmentLog, DeltaProfile, from_rows, simulate
from pacp.errors import DomainError, NoInteriorRoot
from pacp.graph import window_tail_diff
from pacp.inference import (
    DELTA_MAX,
    GUARD_FACTOR,
    SCORE_TOL,
    _solve_window,
    _window_score,
    localize_tau,
    lr_test,
    mle,
    plugin_lr_test,
    score,
)
from pacp.likelihood import log_likelihood, log_lr

from helpers import sign_change_near, solve_window_brentq


def test_score_worked_examples():
    g = from_rows(3, 1, {2: [0], 3: [1]})
    assert score(g, (3, 3), 0.0) == pytest.approx(0.25, abs=1e-14)
    g2 = from_rows(3, 1, {2: [0], 3: [0]})
    for d in (-0.9, -0.4, 0.0, 1.3, 11.0):
        expected = 1 / (2 + d) - 3 / (3 * d + 4)
        assert score(g2, (3, 3), d) == pytest.approx(expected, abs=1e-13)
        assert score(g2, (3, 3), d) < 0


def test_score_window_additivity():
    g = simulate(50, 2, DeltaProfile.constant(0.4), 30)
    for d in (-1.0, 0.0, 2.5):
        whole = score(g, (1, 50), d)
        split = score(g, (1, 20), d) + score(g, (21, 50), d)
        assert whole == pytest.approx(split, abs=1e-10)
    with pytest.raises(DomainError):
        score(g, (0, 10), 0.0)
    with pytest.raises(DomainError):
        score(g, (1, 10), -2.0)


def _solve_like_brentq(g, window):
    """Solve one window with the Newton polish and with the Brent oracle, on
    the same score, and check that they agree."""
    score_fn = _window_score(g, window)
    fit = _solve_window(score_fn, g.m, window)
    ref = solve_window_brentq(score_fn, g.m, window)
    assert fit.status == ref.status
    assert (fit.bracket, fit.bracket_scores) == (ref.bracket, ref.bracket_scores)
    if ref.delta_hat is None:
        assert fit.delta_hat is None and fit.score_at_estimate is None
    else:
        assert fit.delta_hat == pytest.approx(ref.delta_hat, rel=1e-9)
        lo, hi = fit.bracket
        assert lo <= fit.delta_hat <= hi
        assert fit.score_at_estimate == score_fn(fit.delta_hat)
    if fit.converged:
        # |score| within SCORE_TOL or the noise floor, or a sign change
        # within a few ulp of the estimate
        s, _, noise = score_fn(fit.delta_hat, slope=True)
        assert abs(s) <= max(SCORE_TOL, noise) or sign_change_near(score_fn, fit.delta_hat, s)
    return fit


@settings(max_examples=200)
@given(st.data())
def test_window_root_matches_brentq(data):
    n = data.draw(st.integers(2, 400), label="n")
    m = data.draw(st.integers(1, 3), label="m")
    delta0 = data.draw(st.floats(-0.95 * m, 8.0), label="delta0")
    delta1 = data.draw(st.floats(-0.95 * m, 8.0), label="delta1")
    tau = data.draw(st.integers(0, n), label="tau")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    lo = data.draw(st.integers(1, n), label="lo")
    hi = data.draw(st.integers(lo, n), label="hi")
    g = simulate(n, m, DeltaProfile.step(delta0, delta1, tau), seed)
    _solve_like_brentq(g, (lo, hi))


def _star_with_one_leaf(n, m):
    # every edge goes to vertex 0, except that arrival 3 sends its first edge
    # to vertex 2: the score's root sits about 1/n above -m
    targets = np.zeros((n - 1) * m, dtype=np.int64)
    targets[m] = 2
    return AttachmentLog(n, m, targets)


def test_window_root_edge_cases():
    # score(0) == 0 exactly: the empty window (1, 1) is solved at 0 with no step
    g = simulate(10, 2, DeltaProfile.constant(0.5), 1)
    fit = _solve_like_brentq(g, (1, 1))
    assert (fit.status, fit.delta_hat, fit.iterations) == ("converged", 0.0, 0)

    # no sign change on the guard side: score < 0 all the way down to -m + guard
    fit = _solve_like_brentq(from_rows(3, 1, {2: [0], 3: [0]}), (3, 3))
    assert fit.status == "no_interior_root"
    assert fit.bracket[0] == -1 + GUARD_FACTOR

    # no sign change on the DELTA_MAX side: a path, each arrival attaching
    # to the newest vertex, looks like uniform attachment
    path = AttachmentLog(50, 1, np.arange(1, 50, dtype=np.int64))
    fit = _solve_like_brentq(path, (1, 50))
    assert fit.status == "no_interior_root"
    assert fit.bracket[1] == 1e6

    # a root within 1e-6 m of the guard.  There the score moves by about
    # 1e-4 per ulp of delta, so neither solver can meet SCORE_TOL; both
    # bracket the root to a few ulp, which counts as converged.
    m = 3
    fit = _solve_like_brentq(_star_with_one_leaf(400_000, m), (1, 400_000))
    assert fit.converged and abs(fit.score_at_estimate) > SCORE_TOL
    assert 0 < fit.delta_hat + m < 1e-6 * m
    assert fit.iterations > 0

    # a root near 1e3, where the score is nearly flat
    g = simulate(3000, 1, DeltaProfile.constant(1000.0), 2)
    fit = _solve_like_brentq(g, (1, 3000))
    assert fit.converged and 500 < fit.delta_hat < 2000


def test_mle_no_interior_root():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    fit = mle(g, 2)
    assert fit.post.status == "no_interior_root"
    assert fit.delta1_hat is None
    assert not fit.converged


def test_mle_score_at_root_small():
    g = simulate(800, 1, DeltaProfile.step(0.0, 2.0, 400), 31)
    fit = mle(g, 400)
    assert fit.converged
    assert abs(fit.pre.score_at_estimate) <= 1e-10
    assert abs(fit.post.score_at_estimate) <= 1e-10
    lo, hi = fit.post.bracket
    assert lo <= fit.delta1_hat <= hi


def test_mle_consistency_simulated():
    g = simulate(5000, 1, DeltaProfile.step(0.0, 2.0, 2500), 32)
    fit = mle(g, 2500)
    assert abs(fit.delta0_hat - 0.0) < 0.3
    assert abs(fit.delta1_hat - 2.0) < 0.5
    ci0, ci1 = fit.confidence_intervals(0.999)
    assert ci0[0] < 0.0 < ci0[1] or abs(fit.delta0_hat) < 0.2
    assert ci1[0] < 2.0 < ci1[1]


def test_mle_equal_deltas_consistent():
    g = simulate(10**4, 1, DeltaProfile.constant(1.0), 33)
    fit = mle(g, 5000)
    assert abs(fit.delta0_hat - 1.0) < 0.15
    assert abs(fit.delta1_hat - 1.0) < 0.15


def test_lr_test_examples():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    v = lr_test(g, 2, 0.7, 0.7)
    assert v.statistic == pytest.approx(0.0, abs=1e-14) and not v.reject
    v2 = lr_test(g, 2, 0.0, 1.0)
    assert v2.statistic == pytest.approx(math.log(6 / 7))
    assert not v2.reject
    assert v2.mode == "known"


def test_lr_test_two_forms_same_verdict():
    rng = np.random.default_rng(34)
    for trial in range(20):
        n = int(rng.integers(10, 200))
        g = simulate(n, 1, DeltaProfile.constant(0.5), (35, trial))
        tau = int(rng.integers(1, n))
        d0, d1 = 0.2, 1.7
        tail = log_lr(g, tau, d0, d1, method="tail")
        seq = log_lr(g, tau, d0, d1, method="sequential")
        assert (tail > 0) == (seq > 0) or min(abs(tail), abs(seq)) < 1e-9


def test_plugin_statistic_consistent_with_estimates():
    g = simulate(1500, 1, DeltaProfile.step(0.0, 3.0, 1100), 36)
    verdict = plugin_lr_test(g, 1100)
    fit = mle(g, 1100)
    expected = log_lr(g, 1100, fit.delta0_hat, fit.delta1_hat) - 0.5 * math.log(1500 - 1100)
    assert verdict.statistic == pytest.approx(expected, abs=1e-12)
    assert verdict.mode == "plugin"
    assert verdict.reject == (verdict.statistic > 0)


def test_plugin_raises_on_degenerate_window():
    g = from_rows(3, 1, {2: [0], 3: [0]})
    with pytest.raises(NoInteriorRoot) as exc:
        plugin_lr_test(g, 2)
    assert exc.value.window == "post"


def test_localize_matches_brute_force_small():
    rng = np.random.default_rng(37)
    d0, d1 = 0.5, 2.0
    for trial in range(40):
        n = int(rng.integers(2, 8))
        g = simulate(n, 1, DeltaProfile.constant(0.7), (38, trial))
        tau_hat, prof = localize_tau(g, d0, d1)
        brute = np.empty(n + 1)
        for tau in range(n + 1):
            if tau == 0:
                p = DeltaProfile.constant(d1)
            elif tau == n:
                p = DeltaProfile.constant(d0)
            else:
                p = DeltaProfile.step(d0, d1, tau)
            brute[tau] = log_likelihood(g, p).value
        assert np.max(np.abs(prof - brute)) < 1e-10
        # ties break toward the smallest tau attaining the max
        best = float(brute.max())
        smallest = int(np.flatnonzero(brute >= best - 1e-9)[0])
        assert tau_hat == smallest


def test_localize_spot_check_moderate():
    rng = np.random.default_rng(39)
    d0, d1 = 0.0, 3.0
    for trial in range(10):
        g = simulate(500, 1, DeltaProfile.step(d0, d1, 400), (40, trial))
        tau_hat, prof = localize_tau(g, d0, d1)
        spots = rng.integers(0, 501, size=25)
        for tau in spots:
            tau = int(tau)
            if tau == 0:
                p = DeltaProfile.constant(d1)
            elif tau == 500:
                p = DeltaProfile.constant(d0)
            else:
                p = DeltaProfile.step(d0, d1, tau)
            assert prof[tau] == pytest.approx(log_likelihood(g, p).value, abs=1e-10)


def test_localize_no_change_concentrates_at_boundary():
    # graph has no change; fitting a swapped pair pushes tau_hat to an edge
    # and the profile drifts monotonically in expectation
    hits = 0
    reps = 50
    drop = 0.0
    for r in range(reps):
        g = simulate(400, 1, DeltaProfile.constant(0.0), (41, r))
        tau_hat, prof = localize_tau(g, 3.0, 0.0)
        drop += (prof[0] - prof[-1]) / reps
        if tau_hat <= 40 or tau_hat >= 360:
            hits += 1
    assert hits >= 0.75 * reps
    assert drop > 0.0


def test_localize_recovers_change_point():
    g = simulate(5000, 1, DeltaProfile.step(0.0, 3.0, 4000), 42)
    tau_hat, _ = localize_tau(g, 0.0, 3.0)
    assert abs(tau_hat - 4000) <= math.log(5000) ** 3


def test_score_converges_to_its_limit():
    from pacp.theory import score_limit

    n, tau, reps = 2 * 10**4, 3 * 10**4 // 2, 20
    m, d0, d1 = 1, 0.0, 2.0
    width = n - tau
    grid = (-0.5, 0.5, 2.0, 3.5, 6.0)
    acc = np.zeros(len(grid))
    for r in range(reps):
        g = simulate(n, m, DeltaProfile.step(d0, d1, tau), (43, r))
        for j, d in enumerate(grid):
            acc[j] += score(g, (tau + 1, n), d) / width / reps
    for j, d in enumerate(grid):
        target = score_limit(d, d0, d1, m).value
        scale = max(abs(target), 0.02)
        assert abs(acc[j] - target) <= 0.05 * scale, (d, acc[j], target)
    # the limit is decreasing with its zero at d1
    vals = [score_limit(d, d0, d1, m).value for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert abs(score_limit(d1, d0, d1, m).value) < 1e-12


def _uniform_log(n, m, seed):
    # a valid log with uniform targets: arrival t attaches to 0..t-1
    rng = np.random.default_rng(seed)
    t = np.repeat(np.arange(2, n + 1), m)
    return AttachmentLog(n, m, (rng.random(len(t)) * t).astype(np.int64))


def test_window_score_and_slope_against_mpmath():
    # The score is sum diff/(k+delta) - sum t/S and its slope
    # sum t^2/S^2 - sum diff/(k+delta)^2; each may cancel, so each is held to
    # 4 eps of the sum of its terms' absolute values, which for the score is
    # the noise floor its evaluation reports.
    eps = np.finfo(float).eps
    with mpmath.workdps(40):
        for n, m in ((10**5, 3), (10**6, 1), (3000, 2)):
            g = _uniform_log(n, m, n + m)
            for lo, hi in ((n, n), (n - 9, n), (n - 99, n), (1, 2), (2, 64), (30, 130)):
                diff = window_tail_diff(g, lo, hi).tolist()
                score_fn = _window_score(g, (lo, hi))
                for delta in (-m + GUARD_FACTOR * m, -m + 1e-7 * m, -m + 1e-6 * m, 0.3, 50.0,
                              DELTA_MAX):
                    d = mpmath.mpf(delta)
                    deg = [c / (m + k + d) for k, c in enumerate(diff) if c]
                    norm = [mpmath.mpf(t) / ((2 * m + d) * t - 2 * m + i)
                            for t in range(max(lo, 2), hi + 1) for i in range(m)]
                    value, slope, noise = score_fn(delta, slope=True)
                    exact = mpmath.fsum(deg) - mpmath.fsum(norm)
                    scale = mpmath.fsum(deg) + mpmath.fsum(norm)
                    assert abs(value - exact) <= 4 * eps * scale, (n, m, lo, hi, delta)
                    assert abs(value - exact) <= noise <= 5 * eps * scale
                    deg2 = mpmath.fsum(x * x / c for x, c in zip(deg, (c for c in diff if c)))
                    norm2 = mpmath.fsum(x * x for x in norm)
                    assert abs(slope - (norm2 - deg2)) <= 4 * eps * (norm2 + deg2)


def test_score_evaluation_allocates_no_window_grid():
    # one evaluation costs O(head + increments + J): 20 evaluations of the
    # 9e4-arrival pre-change window stay far below one (window, m) grid
    import tracemalloc

    g = _uniform_log(10**5, 3, 7)
    score_fn = _window_score(g, (1, 90_000))
    score_fn(0.5, slope=True)
    tracemalloc.start()
    try:
        for k in range(20):
            score_fn(0.1 * k, slope=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
