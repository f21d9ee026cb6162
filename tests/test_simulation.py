import hashlib
import sys
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacp import AttachmentLog, DeltaProfile, simulate, simulate_many
from pacp import simulation
from pacp.errors import DomainError
from pacp.likelihood import log_likelihood
from pacp.simulation import _attach_arrivals, _attach_batch, _attach_kernel, _window_targets

from helpers import (
    attach_kernel_float_tree,
    attach_kernel_two_pass,
    chi2_gof_pvalue,
    count_support,
    support_graphs,
)


def test_profile_validation():
    with pytest.raises(DomainError):
        DeltaProfile.constant(-1.0).validate(10, 1)
    with pytest.raises(DomainError):
        DeltaProfile.step(0.0, -2.5, 5).validate(10, 2)
    with pytest.raises(DomainError):
        DeltaProfile.step(0.0, 1.0, 11).validate(10, 1)
    with pytest.raises(DomainError):
        DeltaProfile(0.0, 1.0, None)
    DeltaProfile.step(0.0, 1.0, 10).validate(10, 1)  # tau = n is the constant law
    DeltaProfile.step(-0.9, 1.0, 0).validate(10, 1)  # tau = 0: every arrival changed


def test_base_graph_deterministic():
    g = simulate(1, 2, DeltaProfile.constant(0.5), 0)
    assert g.n == 1 and len(g.targets) == 0
    assert g.degrees().tolist() == [2, 2]


def test_seed_determinism():
    profile = DeltaProfile.step(-0.3, 1.5, 40)
    a = simulate(60, 2, profile, 12345)
    b = simulate(60, 2, profile, 12345)
    c = simulate(60, 2, profile, 12346)
    assert a == b
    assert a != c


def test_simulated_logs_are_valid():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(1, 80))
        m = int(rng.integers(1, 4))
        d0 = float(rng.uniform(-0.9 * m, 3))
        tau = int(rng.integers(0, n + 1))
        d1 = float(rng.uniform(-0.9 * m, 3))
        g = simulate(n, m, DeltaProfile.step(d0, d1, tau), (14, trial))
        AttachmentLog(g.n, g.m, g.targets)  # full validation pass


def test_two_vertex_frequency():
    # at t=2 with delta=0 both targets have weight 1, so the choice is fair
    hits = 0
    reps = 10**5
    for r in range(reps):
        g = simulate(2, 1, DeltaProfile.constant(0.0), (15, r))
        hits += int(g.row(2)[0] == 0)
    p = hits / reps
    sigma = (0.25 / reps) ** 0.5
    assert abs(p - 0.5) <= 3 * sigma


@st.composite
def stream_cases(draw):
    """Sizes, a profile of any tau class and a seed; each delta is -m + k/30
    with 3 not dividing k, so block weights round in the last bit."""
    n = draw(st.integers(1, 300))
    m = draw(st.integers(1, 3))
    deltas = st.integers(1, 30 * (m + 5) - 1).filter(lambda k: k % 3).map(lambda k: -m + k / 30)
    d0 = draw(deltas)
    if draw(st.booleans()):
        profile = DeltaProfile.constant(d0)
    else:
        tau = draw(st.one_of(st.just(0), st.integers(0, n), st.just(n)))
        profile = DeltaProfile.step(d0, draw(deltas), tau)
    return n, m, profile, draw(st.integers(0, 2**64 - 1))


@given(stream_cases())
@example((64, 3, DeltaProfile.step(0.3, -1.7, 40), 8))
def test_stream_matches_float_tree_oracle(case):
    # the hit-count tree must reproduce the float-weight tree's stream exactly;
    # at n = 2**k the last arrival reads tree[n], the node every hit updates
    n, m, profile, seed = case
    u = np.random.default_rng(seed).random((n - 1) * m)
    tau = profile.tau if profile.is_step else n
    d1 = profile.delta1 if profile.is_step else profile.delta0
    expected = attach_kernel_float_tree(n, m, profile.delta0, d1, tau, u)
    assert np.array_equal(simulate(n, m, profile, seed).targets, expected)


def test_stream_digest_large():
    # recorded with the float-weight Fenwick sampler the hit-count tree replaced
    g = simulate(100_000, 3, DeltaProfile.step(0.3, -1.7, 60_000), 20260)
    digest = hashlib.sha256(g.targets.astype("<i8").tobytes()).hexdigest()
    assert digest == "1842f487f90d46e112d210967cce9c58b2ffc3e21284165dbc9e994f56eb556b"


def test_stream_digest_constant_m1():
    # the second-moment probe's law: m = 1 and an integer affine part;
    # recorded with the two-pass kernel the fused descent replaced
    g = simulate(100_000, 1, DeltaProfile.constant(2.0), 20261)
    digest = hashlib.sha256(g.targets.astype("<i8").tobytes()).hexdigest()
    assert digest == "11f5fa2f776d96e003880249daddf4f0c58323975977c601923976ed7d64d459"


class FixedStream:
    """Serves a fixed array of uniforms in order, as ``Generator.random`` does."""

    def __init__(self, u):
        self.u, self.pos = u, 0

    def random(self, size):
        self.pos += size
        return self.u[self.pos - size : self.pos]


# (n, m, k0, k1, tau, seed, draws that reach the guard), delta = -m + k/30
GUARD_CASES = [
    (40, 1, 22, 22, 40, 5, [3, 8]),  # constant -4/15
    (40, 2, 5, 5, 40, 0, [14, 26, 56]),  # constant -11/6
    (40, 2, 5, 70, 12, 0, [14, 26, 56]),  # -11/6 -> 1/3: guards before and after tau
    (40, 3, 41, 170, 8, 0, [0, 40, 84]),  # -49/30 -> 8/3: a guard at t = 2
    (40, 3, 170, 41, 16, 0, [10, 11, 40]),  # 8/3 -> -49/30: two guards in one arrival
    (15, 3, 170, 170, 15, 3, [9, 39]),  # constant 8/3: a guard at t = n
]


@pytest.mark.parametrize("case", GUARD_CASES, ids=lambda c: "n{}-m{}-k{}-{}-tau{}".format(*c))
def test_guard_repair_keeps_the_stream(case):
    # u = nextafter(1, 0) on about 30 % of the draws sends some descents past
    # the pool, where the closed-form total exceeds the tree's in its last
    # bit; a hit repaired onto the wrong path shows only in later draws
    n, m, k0, k1, tau, seed, guarded = case
    d0, d1 = -m + k0 / 30, -m + k1 / 30
    rng = np.random.default_rng(seed)
    u = rng.random((n - 1) * m)
    u[rng.random(len(u)) < 0.3] = np.nextafter(1.0, 0.0)
    expected, fired = attach_kernel_two_pass(n, m, d0, d1, tau, u)
    assert fired == guarded and guarded[-1] < len(u) - 1
    assert np.array_equal(attach_kernel_float_tree(n, m, d0, d1, tau, u), expected)
    assert np.array_equal(_attach_kernel(n, m, d0, d1, tau, u), expected)
    # the batched kernel, beside a lane of another law on its own stream
    other = np.random.default_rng(seed + 1).random(len(u))
    lanes = _attach_batch(
        n, m, np.array([d0, 1.0]), np.array([d1, 1.0]), np.array([tau, n]),
        [FixedStream(u), FixedStream(other)],
    )
    assert np.array_equal(lanes[0], expected)
    assert np.array_equal(lanes[1], _attach_kernel(n, m, 1.0, 1.0, n, other))


@contextmanager
def windows(arrivals):
    """Windows of ``arrivals`` arrivals from the start: the scalar loop draws
    arrivals 2 to (n - 1) mod arrivals + 1.  Yields the wrapped scalar loop
    and window."""
    with (
        mock.patch.object(simulation, "_WINDOW_FROM", 1),
        mock.patch.object(simulation, "_WINDOW_ARRIVALS", arrivals),
        mock.patch.object(simulation, "_attach_arrivals", wraps=_attach_arrivals) as scalar,
        mock.patch.object(simulation, "_window_targets", wraps=_window_targets) as window,
    ):
        yield scalar, window


@settings(max_examples=200)
@given(case=stream_cases(), arrivals=st.integers(1, 8))
# windows 2..8, 9..15, ..., 58..64: tau = 40 lies inside 37..43, node 8 joins
# the pool inside 2..8, node 32 inside 30..36 and node 64, which every hit
# updates, inside 58..64
@example(case=(64, 3, DeltaProfile.step(0.3, -1.7, 40), 8), arrivals=7)
def test_window_path_matches_float_tree_oracle(case, arrivals):
    n, m, profile, seed = case
    u = np.random.default_rng(seed).random((n - 1) * m)
    expected = attach_kernel_float_tree(n, m, *profile.law(n), u)
    with windows(arrivals) as (scalar, window):
        g = simulate(n, m, profile, seed)
    assert np.array_equal(g.targets, expected)
    head = 1 + (n - 1) % arrivals
    assert scalar.call_args_list[0].args[6:8] == (2, head + 1)
    assert window.call_count == (n - head) // arrivals


@pytest.mark.parametrize("arrivals", [1, 2, 5, 16])
@pytest.mark.parametrize("case", GUARD_CASES, ids=lambda c: "n{}-m{}-k{}-{}-tau{}".format(*c))
def test_guard_windows_are_redrawn_by_the_scalar_loop(case, arrivals):
    # the guard cases' streams through windows: a window in which a draw
    # reaches the guard is redrawn by the scalar loop from its start's tree
    n, m, k0, k1, tau, seed, _ = case
    d0, d1 = -m + k0 / 30, -m + k1 / 30
    rng = np.random.default_rng(seed)
    u = rng.random((n - 1) * m)
    u[rng.random(len(u)) < 0.3] = np.nextafter(1.0, 0.0)
    expected, fired = attach_kernel_two_pass(n, m, d0, d1, tau, u)
    with windows(arrivals) as (scalar, _):
        targets = _attach_kernel(n, m, d0, d1, tau, u)
    assert np.array_equal(targets, expected)
    head = 1 + (n - 1) % arrivals
    late = sorted({(a - head - 1) // arrivals for a in (p // m + 2 for p in fired) if a > head})
    redrawn = [(head + 1 + w * arrivals, head + 1 + (w + 1) * arrivals) for w in late]
    assert [c.args[6:8] for c in scalar.call_args_list] == [(2, head + 1)] + redrawn


@pytest.mark.parametrize(
    "profile",
    [DeltaProfile.constant(1e308), DeltaProfile.step(0.5, sys.float_info.max, 30)],
    ids=["1e308", "0.5-max"],
)
def test_window_path_at_huge_delta_is_the_scalar_stream_without_warnings(profile):
    # the totals overflow to inf, as Python floats do in the scalar loop
    expected = simulate(100, 2, profile, 3)
    with windows(7):
        assert simulate(100, 2, profile, 3) == expected


R0 = simulation._BATCH_MIN_ROWS


@pytest.mark.parametrize(
    "rows, batches", [(R0 - 1, 0), (R0, 1), (2 * R0 + 1, 2)], ids=["R0-1", "R0", "split"]
)
@settings(max_examples=30)
@given(case=stream_cases(), data=st.data())
def test_simulate_many_matches_simulate(rows, batches, case, data):
    # one batch mixes constant and step rows of one size, each delta -m + k/30
    # as in stream_cases; uniforms come in blocks of 64, so the block refill
    # runs, and in the last case a budget of R0 + 1 lanes splits the rows
    n, m, profile, seed = case
    # the k of stream_cases, 1, 2, 4, 5, ..., 30 (m + 5) - 1, without a filter
    ks = st.integers(0, 20 * (m + 5) - 1).map(lambda j: 3 * (j // 2) + 1 + j % 2)
    deltas = ks.map(lambda k: -m + k / 30)
    profiles, seeds = [profile], [seed]
    for r in range(1, rows):
        d0 = data.draw(deltas)
        if r % 2:
            profiles.append(DeltaProfile.constant(d0))
        else:
            tau = data.draw(st.integers(0, n))
            profiles.append(DeltaProfile.step(d0, data.draw(deltas), tau))
        seeds.append((seed, r))
    budget = (R0 + 1) * simulation._row_bytes(n, m)
    with (
        mock.patch.object(simulation, "_UNIFORM_BLOCK", 64),
        mock.patch.object(simulation, "_BATCH_BYTES", budget),
        mock.patch.object(simulation, "_attach_batch", wraps=_attach_batch) as batch,
    ):
        logs = list(simulate_many(n, m, profiles, seeds))
    assert batch.call_count == (batches if n > 1 else 0)
    assert logs == [simulate(n, m, p, s) for p, s in zip(profiles, seeds)]


def test_simulate_many_past_the_sentinel_runs_the_scalar_kernel():
    # at delta = 1e308 the closed-form total overflows to inf, and inf times
    # the batched kernel's 0 mask would be NaN: such a batch must fall back
    n, rows = 50, R0
    profiles = [DeltaProfile.constant(1e308)] * (rows - 1) + [DeltaProfile.step(0.5, 1e300, 25)]
    seeds = [(31, r) for r in range(rows)]
    logs = list(simulate_many(n, 1, profiles, seeds))
    assert logs == [simulate(n, 1, p, s) for p, s in zip(profiles, seeds)]


def test_simulate_many_checks_its_arguments():
    with pytest.raises(DomainError):
        simulate_many(10, 1, [DeltaProfile.constant(0.0), DeltaProfile.constant(-1.0)], [1, 2])
    with pytest.raises(ValueError):
        simulate_many(10, 1, [DeltaProfile.constant(0.0)], [1, 2])
    assert list(simulate_many(10, 1, [], [])) == []
    # n is checked before the profiles, and also when there are none
    assert list(simulate_many(np.int64(10), 1, [], [])) == []
    with pytest.raises(DomainError):
        simulate_many(0, 1, [], [])


def test_numpy_integer_n_draws_the_int_log_and_other_n_is_a_domain_error():
    profile = DeltaProfile.constant(0.0)
    profiles, seeds = [profile] * R0, [(7, r) for r in range(R0)]
    logs = [simulate(50, 1, profile, s) for s in seeds]
    assert simulate(np.int64(50), 1, profile, seeds[0]) == logs[0]
    assert list(simulate_many(np.int64(50), 1, profiles[:1], seeds[:1])) == logs[:1]
    assert list(simulate_many(np.int64(50), 1, profiles, seeds)) == logs  # the batched kernel
    for n in (2.5, 50.0, "50", 0):
        for call in (
            lambda: simulate(n, 1, profile, 1),
            lambda: simulate_many(n, 1, [profile], [1]),
        ):
            with pytest.raises(DomainError, match="^n must be an integer >= 1, got "):
                call()


def test_profile_law():
    assert DeltaProfile.constant(0.5).law(9) == (0.5, 0.5, 9)
    assert DeltaProfile.step(0.5, 2.0, 4).law(9) == (0.5, 2.0, 4)


def test_empirical_law_matches_likelihood_chisquare():
    # empirical frequency over the whole support vs exact graph probabilities
    n, m, delta = 5, 1, 0.5
    graphs = list(support_graphs(n, m))
    assert len(graphs) == count_support(n, m) == 120
    index = {g: i for i, g in enumerate(graphs)}
    probs = np.array(
        [np.exp(log_likelihood(g, DeltaProfile.constant(delta)).value) for g in graphs]
    )
    assert abs(probs.sum() - 1.0) < 1e-12
    reps = 10**5
    counts = np.zeros(len(graphs))
    for r in range(reps):
        g = simulate(n, m, DeltaProfile.constant(delta), (17, r))
        canon = np.sort(g.targets.reshape(n - 1, m), axis=1).ravel()
        counts[index[AttachmentLog(n, m, canon, validate=False)]] += 1
    assert chi2_gof_pvalue(counts, probs, min_expected=10.0) > 0.001


def test_empirical_step_law_matches_likelihood_chisquare():
    # the weight-table rebuild at the switch must reproduce the step law
    # exactly; compare simulated frequencies with the two-block likelihood
    n, m = 4, 1
    profile = DeltaProfile.step(0.5, 2.0, 2)
    graphs = list(support_graphs(n, m))
    index = {g: i for i, g in enumerate(graphs)}
    probs = np.array([np.exp(log_likelihood(g, profile).value) for g in graphs])
    assert abs(probs.sum() - 1.0) < 1e-12
    reps = 10**5
    counts = np.zeros(len(graphs))
    for r in range(reps):
        g = simulate(n, m, profile, (23, r))
        counts[index[g]] += 1
    assert chi2_gof_pvalue(counts, probs, min_expected=10.0) > 0.001


def test_negative_delta_regime():
    # delta in (-m, 0) is exactly the regime a mixture shortcut cannot reach;
    # check the sampler against the limiting minimal-degree fraction there
    from pacp.theory import limit_degree_pmf

    n, m, delta = 3000, 1, -0.8
    frac = 0.0
    reps = 4
    for r in range(reps):
        g = simulate(n, m, DeltaProfile.constant(delta), (18, r))
        frac += float((g.degrees() == m).mean()) / reps
    assert abs(frac - limit_degree_pmf(1, m, delta)) < 0.02
