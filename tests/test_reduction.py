import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pacp import DeltaProfile, bold_vertices, from_rows, simulate
from pacp.errors import PreconditionViolated, UnsupportedRegime
from pacp.reduction import (
    McResult,
    ReductionContext,
    azuma_rate,
    event_bn,
    event_bn_failure_probe,
    kernel_sample,
    log_esp,
    log_permuted_lr,
    martingale_tail_probe,
    permuted_lr,
    second_moment_bound_log_rhs,
    second_moment_probe,
)

from helpers import brute_force_permuted_lr, chi2_gof_pvalue, log_esp_log_space, log_esp_loop


def test_kernel_identity_when_no_bold_vertices():
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [3]})
    assert bold_vertices(g, 2).size == 0
    rng = np.random.default_rng(50)
    for _ in range(5):
        assert np.array_equal(kernel_sample(g, 2, rng), np.arange(5))


def test_kernel_uniform_two_members():
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [2]})
    rng = np.random.default_rng(51)
    swaps = 0
    reps = 10**5
    for _ in range(reps):
        perm = kernel_sample(g, 2, rng)
        swaps += int(perm[3] == 4)
    sigma = (0.25 / reps) ** 0.5
    assert abs(swaps / reps - 0.5) <= 3 * sigma


def test_kernel_uniform_four_members_chisquare():
    g = from_rows(7, 1, {2: [0], 3: [1], 4: [0], 5: [1], 6: [2], 7: [3]})
    bold = bold_vertices(g, 3)
    assert bold.members.tolist() == [4, 5, 6, 7]
    rng = np.random.default_rng(52)
    reps = 120_000
    perms = {p: i for i, p in enumerate(itertools.permutations((4, 5, 6, 7)))}
    counts = np.zeros(24)
    for _ in range(reps):
        perm = kernel_sample(g, 3, rng, bold=bold)
        counts[perms[tuple(perm[4:8])]] += 1
    assert chi2_gof_pvalue(counts, np.full(24, 1 / 24)) > 0.001


def test_event_bn_examples():
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [2]})
    ctx = ReductionContext.build(g, 3, 2, 1.0, 0.0, 1.0)
    assert ctx.bold.members.tolist() == [3, 4] and ctx.r == 1
    assert event_bn(ctx)
    ctx2 = ReductionContext.build(g, 2, 1, 1.0, 0.0, 1.0)
    # both late vertices must be relabelable; 3 and 4 have early-only parents
    assert event_bn(ctx2) == (ctx2.r == 2)
    g3 = from_rows(4, 1, {2: [0], 3: [1], 4: [3]})
    ctx3 = ReductionContext.build(g3, 2, 1, 1.0, 0.0, 1.0)
    assert not event_bn(ctx3)
    # a huge slack makes the size clause vacuous; only inclusion matters
    ctx4 = ReductionContext.build(g3, 3, 2, 1e9, 0.0, 1.0)
    assert not event_bn(ctx4)  # 4 has a late child, so it is not relabelable


def test_permuted_lr_trivial_and_worked():
    g = from_rows(4, 1, {2: [0], 3: [1], 4: [2]})
    ctx = ReductionContext.build(g, 4, 2, 1.0, 0.0, 1.0)
    assert permuted_lr(ctx) == 1.0  # tau = n: empty product
    ctx2 = ReductionContext.build(g, 3, 2, 1.0, 0.0, 1.0)
    assert permuted_lr(ctx2) == pytest.approx(1.2, abs=1e-14)


def test_permuted_lr_against_factorial_brute_force():
    rng = np.random.default_rng(53)
    checked = 0
    trial = 0
    while checked < 60:
        trial += 1
        n = int(rng.integers(6, 16))
        m = int(rng.integers(1, 3))
        g = simulate(n, m, DeltaProfile.constant(float(rng.uniform(0, 2))), (54, trial))
        tau_prime = int(rng.integers(1, n - 2))
        tau = int(rng.integers(tau_prime + 1, n + 1))
        d0 = float(rng.uniform(-0.4, 2.0))
        d1 = float(rng.uniform(-0.4, 2.0))
        ctx = ReductionContext.build(g, tau, tau_prime, 1.0, d0, d1)
        if ctx.bold.size > 6:
            continue
        brute = brute_force_permuted_lr(g, tau, tau_prime, d0, d1)
        assert permuted_lr(ctx) == pytest.approx(brute, abs=1e-12, rel=1e-12)
        checked += 1


def test_permuted_lr_depends_only_on_summaries():
    # Y is a function of (bold set, weights, S-ratio, r) alone: recomputing
    # it from those summaries on a relabeled graph gives the same value
    rng = np.random.default_rng(55)
    for trial in range(20):
        n = int(rng.integers(8, 40))
        g = simulate(n, 1, DeltaProfile.constant(0.5), (56, trial))
        tau_prime = int(rng.integers(1, n - 2))
        tau = int(rng.integers(tau_prime + 1, n + 1))
        ctx = ReductionContext.build(g, tau, tau_prime, 1.0, 0.0, 1.5)
        from pacp import apply_permutation

        perm = kernel_sample(g, tau_prime, rng, bold=ctx.bold)
        ctx_perm = ReductionContext.build(
            apply_permutation(g, perm), tau, tau_prime, 1.0, 0.0, 1.5
        )
        assert np.array_equal(ctx_perm.bold.members, ctx.bold.members)
        assert permuted_lr(ctx_perm) == pytest.approx(permuted_lr(ctx), rel=1e-12)


def test_log_esp_rational_oracle():
    rng = np.random.default_rng(57)
    for _ in range(100):
        k = int(rng.integers(1, 9))
        r = int(rng.integers(0, k + 1))
        nums = rng.integers(1, 60, size=k)
        dens = rng.integers(1, 60, size=k)
        exact = (
            sum(
                math.prod(Fraction(int(a), int(b)) for a, b in combo)
                for combo in itertools.combinations(zip(nums, dens), r)
            )
            if r
            else Fraction(1)
        )
        lw = np.log(nums.astype(float) / dens.astype(float))
        assert log_esp(lw, r) == pytest.approx(math.log(float(exact)), abs=1e-10)


def test_log_esp_renormalization_large():
    lw = np.full(5000, 200.0)  # raw e_r would overflow immediately
    got = log_esp(lw, 100)
    want = math.lgamma(5001) - math.lgamma(101) - math.lgamma(4901) + 100 * 200.0
    assert got == pytest.approx(want, rel=1e-12)


@st.composite
def log_value_sets(draw, spread_max, loop_budget=math.inf):
    """(log values, r): k <= 300 values around a centre in [-300, 300],
    spread up to +-spread_max and to k (4 spread + log 2) <= loop_budget,
    drawn uniformly, sorted (the small ones multiplied first) or at two
    levels."""
    k = draw(st.integers(1, 300))
    r = draw(st.integers(0, k))
    centre = draw(st.floats(-300.0, 300.0))
    spread = draw(st.floats(0.0, min(spread_max, (loop_budget / k - math.log(2.0)) / 4.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-spread, spread, k)
    layout = draw(st.sampled_from(["uniform", "sorted", "two levels"]))
    if layout == "sorted":
        values.sort()
    elif layout == "two levels":
        values = np.where(values < 0, -spread, spread)
    return centre + values, r


@given(log_value_sets(spread_max=10.0, loop_budget=700.0))
def test_log_esp_matches_sequential_loop(case):
    # The loop renormalizes its whole table at once, so it is exact only
    # while every entry it will need stays a normal float.  Scaled by their
    # geometric mean, the k weights lie in [e^-2s, e^2s] for values spread
    # by +-s, and the table's top is at least 1, so an entry of order j is at
    # least e_j/top >= w_min^j / (1 + w_max)^k >= e^-k(4s + log 2).  Hence
    # k (4s + log 2) <= 700 keeps every entry above e^-700, clear of the
    # subnormals below e^-708.  Past it the loop can fail (k = 231 at two
    # levels +-10: see the next test's examples).
    lw, r = case
    want = log_esp_loop(lw, r)
    assert log_esp(lw, r) == pytest.approx(want, rel=1e-12, abs=1e-12)


@given(log_value_sets(spread_max=300.0))
@example((np.where(np.arange(231) < 116, 10.0, -10.0), 197))
@example((np.where(np.arange(231) < 116, 10.0, -10.0), 195))
def test_log_esp_matches_log_space_oracle(case):
    # At spreads up to +-300 the loop returned NaN or lost up to a fifth of
    # log e_r; the tree must stay finite and exact there.  The two examples
    # are two levels at +-10 where e_r lies 1e-315 and 1e-324 below e_116:
    # the loop's renormalized table loses e_195's digits and e_197 to zero.
    lw, r = case
    want = log_esp_log_space(lw, r)
    got = log_esp(lw, r)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_log_esp_binomial_needs_renormalization():
    # e_2500 of 5000 ones is C(5000, 2500), about 1e1503: every row of more
    # than about 1030 values would overflow without its power-of-two scaling.
    got = log_esp(np.zeros(5000), 2500)
    want = math.lgamma(5001) - 2 * math.lgamma(2501)
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


def test_second_moment_probe_preconditions():
    with pytest.raises(PreconditionViolated):
        second_moment_probe(100, 1, 0.0, 1.0, 96, 2, 1.0, 4, 1)  # tau' < 3
    with pytest.raises(PreconditionViolated) as exc:
        second_moment_probe(100, 1, 0.0, 1.0, 96, 60, 1.0, 4, 1)  # alpha w'/tau' > 1/2
    assert any("1/2" in f for f in exc.value.failures)
    with pytest.raises(PreconditionViolated):
        second_moment_probe(100, 1, 0.0, 1.0, 50, 40, 0.1, 4, 1)  # width/width' > 1/4
    with pytest.raises(UnsupportedRegime):
        second_moment_probe(100, 1, -0.5, 1.0, 96, 80, 1.0, 4, 1)
    # boundary alpha w'/tau' == 1/2 is allowed
    second_moment_probe(100, 1, 0.0, 1.0, 96, 80, 2.0, 4, 1)


def test_second_moment_bound_worked_arithmetic():
    log_rhs = second_moment_bound_log_rhs(
        m=1, tau_prime=84, width=2, width_prime=16, alpha=2.0, c1=1.0, c2=1.0
    )
    assert log_rhs == pytest.approx(3.0476 + 1.0476 + 0.0417 + 0.6420, abs=2e-3)


def test_likelihood_ratios_saturate_instead_of_overflowing():
    # a large post-change parameter on a wide window: log Y is far past 709
    g = simulate(4000, 3, DeltaProfile.step(0.0, 50.0, 2000), 3)
    ctx = ReductionContext.build(g, 2000, 1000, 1.0, 0.0, 50.0)
    log_y = log_permuted_lr(ctx)
    assert math.isfinite(log_y) and log_y > 710
    assert permuted_lr(ctx) == math.inf
    # in range, the value is math.exp's
    small = ReductionContext.build(g, 3990, 3900, 1.0, 0.0, 50.0)
    assert permuted_lr(small) == math.exp(log_permuted_lr(small))
    log_rhs = second_moment_bound_log_rhs(
        m=1, tau_prime=100, width=25, width_prime=100, alpha=0.5, c1=1.0, c2=1000.0
    )
    assert log_rhs == math.inf


def test_second_moment_probe_small_run():
    mc = second_moment_probe(200, 1, 1.0, 2.0, 196, 170, 1.0, 60, seed=58)
    assert isinstance(mc, McResult)
    assert mc.replicates == 60
    assert mc.estimate >= 0
    assert mc.estimate <= math.exp(mc.auxiliaries["bound_log_rhs"])
    # restricted LR mean cannot exceed one (it is a sub-probability average)
    assert mc.auxiliaries["mean_y_bn"] - 3 * mc.auxiliaries["stderr_y_bn"] <= 1.0
    # identical deltas make Y == 1 so the estimate is P0(B)
    mc2 = second_moment_probe(200, 1, 1.0, 1.0, 196, 170, 1.0, 40, seed=59)
    assert mc2.estimate == pytest.approx(mc2.auxiliaries["p0_bn"], abs=1e-12)
    assert mc2.estimate <= 1.0


def test_second_moment_log_estimate_is_the_log_of_the_estimate():
    mc = second_moment_probe(200, 1, 1.0, 2.0, 196, 170, 1.0, 60, seed=58)
    assert 0 < mc.auxiliaries["p0_bn"] < 1
    assert mc.auxiliaries["log_estimate"] == pytest.approx(math.log(mc.estimate), rel=1e-13)
    # no replicate in B: the mean is 0 and its log -inf
    none = second_moment_probe(200, 1, 0.0, 1.0, 196, 170, 1.0, 5, seed=5)
    assert none.auxiliaries["p0_bn"] == 0.0 and none.estimate == 0.0
    assert none.auxiliaries["log_estimate"] == -math.inf


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the stderr of an inf sample
def test_second_moment_log_estimate_past_float_range(monkeypatch):
    # Y = e^400 is a float, Y^2 = e^800 is not: the estimate reads inf, its
    # log is still the number 800 + log(3/4) when three of four are in B
    from pacp import reduction

    in_b = iter([True, False, True, True])
    monkeypatch.setattr(reduction, "log_permuted_lr", lambda ctx: 400.0)
    monkeypatch.setattr(reduction, "event_bn", lambda ctx: next(in_b))
    mc = second_moment_probe(200, 1, 1.0, 2.0, 196, 170, 1.0, 4, seed=58)
    assert mc.estimate == math.inf
    assert mc.per_replicate["y"].tolist() == [math.exp(400.0)] * 4
    assert mc.auxiliaries["log_estimate"] == pytest.approx(800.0 + math.log(0.75), rel=1e-15)


def test_event_bn_probe_small_run():
    mc = event_bn_failure_probe(300, 1, 1.0, 2.0, 295, 250, 2.0, 50, seed=60)
    assert 0 <= mc.estimate <= 1
    assert mc.auxiliaries["mean_bold"] <= mc.auxiliaries["width_prime"]
    assert mc.auxiliaries["mean_bold_late"] <= 5
    with pytest.raises(UnsupportedRegime):
        event_bn_failure_probe(300, 1, -0.2, 2.0, 295, 250, 2.0, 10, seed=61)
    with pytest.raises(PreconditionViolated):
        event_bn_failure_probe(300, 1, 0.0, 2.0, 295, 1, 2.0, 10, seed=62)


def test_probe_identical_across_thread_counts():
    kwargs = dict(n=150, m=1, delta0=1.0, delta1=2.0, tau=146, tau_prime=120,
                  alpha=1.0, replicates=12, seed=66)
    serial = second_moment_probe(**kwargs, threads=1)
    pooled = second_moment_probe(**kwargs, threads=3)
    assert serial.estimate == pooled.estimate
    assert serial.stderr == pooled.stderr
    assert np.array_equal(serial.per_replicate["y"], pooled.per_replicate["y"])


def test_event_bn_failure_shrinks_as_alpha_grows():
    # along the probed regime the failure probability decays like 1/alpha
    results = []
    for n, reps in ((10**3, 300), (10**4, 300)):
        alpha = math.log(n)
        width = max(1, int(n ** (1 / 3) / alpha))
        wp = int(n ** (2 / 3))
        mc = event_bn_failure_probe(
            n, 1, 2.0, 0.5, n - width, n - wp, alpha, reps, seed=881
        )
        results.append((mc.estimate, mc.stderr))
    (p_small, se_small), (p_big, se_big) = results
    assert p_big <= p_small + 3 * math.hypot(se_small, se_big)


def test_event_bn_probe_tau_equals_n():
    # width 0: the inclusion clause is vacuous, only the size clause can fail
    mc = event_bn_failure_probe(200, 1, 0.5, 1.5, 200, 120, 3.0, 40, seed=63)
    assert mc.auxiliaries["mean_bold_late"] == 0.0
    assert 0 <= mc.estimate <= 1


def test_martingale_probe_rejects_tau_prime_at_or_past_n(monkeypatch):
    # width' = n - tau' must be positive; the check runs before any replicate
    from pacp import reduction

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the preconditions were checked")

    monkeypatch.setattr(reduction.campaign, "run_replicates", no_replicates)
    for tau_prime in (100, 101, 150):
        with pytest.raises(PreconditionViolated) as exc:
            martingale_tail_probe(100, 1, 0.0, 1.0, tau_prime, 4, seed=67)
        assert exc.value.failures == [
            f"tau_prime < n required, got tau_prime={tau_prime}, n=100"
        ]


def test_martingale_probe_rate_underflow_is_unsupported(monkeypatch):
    # b = 2 ((m+d1)/(m+d0))^m = 2 (1001000)^1000 is past float range: the
    # rate is 0, and the default grid it would size raises before a replicate
    from pacp import reduction

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before the grid was checked")

    monkeypatch.setattr(reduction.campaign, "run_replicates", no_replicates)
    assert azuma_rate(1000, -999.0, 1e6) == 0.0
    with pytest.raises(UnsupportedRegime):
        martingale_tail_probe(200, 1000, -999.0, 1e6, 10, 2, seed=1)


def test_martingale_probe_mean_weight_underflow_is_unsupported(monkeypatch):
    # m_n = mean of prod_i S(d1)/S(d0) over late arrivals is about
    # (1001/3000)^1000: it underflows to 0, and so would every weight
    from pacp import reduction

    def no_replicates(*args, **kwargs):
        raise AssertionError("a replicate ran before m_n was checked")

    monkeypatch.setattr(reduction.campaign, "run_replicates", no_replicates)
    assert azuma_rate(1000, 1000.0, -999.0) > 0
    with pytest.raises(UnsupportedRegime, match="m_n"):
        martingale_tail_probe(200, 1000, 1000.0, -999.0, 100, 2, seed=1)


def test_martingale_probe_trivial_and_small_run():
    # identical deltas: every weight is one, Z == m_n == 1, tails all zero
    mc0 = martingale_tail_probe(100, 1, 0.7, 0.7, 50, 30, seed=64)
    assert mc0.estimate == 0.0
    assert mc0.auxiliaries["all_below"]
    assert np.allclose(mc0.per_replicate["z"], 1.0)

    mc = martingale_tail_probe(400, 1, 0.0, 1.0, 200, 1500, seed=65)
    assert mc.auxiliaries["tail_freq"][0] <= 1.0  # x = 0: bound is one
    assert mc.estimate == 0.0, "empirical tail exceeded the Azuma envelope"
    c = azuma_rate(1, 0.0, 1.0)
    assert mc.auxiliaries["c"] == pytest.approx(c)
    assert c == pytest.approx(1.0 / (2.0 * (2.0 * 2.0) ** 2))
