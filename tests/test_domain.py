"""The model's parameter domain: integer m >= 1 and finite delta > -m, on both
sides of the change.  Every public entry point that takes (m, delta) goes
through one rule, ``errors.check_domain``, so NaN, +-inf, delta = -m and
m < 1 fail with DomainError everywhere."""

import math

import numpy as np
import pytest

from pacp import DeltaProfile, simulate
from pacp.errors import DomainError
from pacp.inference import localize_tau, lr_test, score
from pacp.likelihood import log_likelihood, log_lr, s_product_ratio, s_value
from pacp.reduction import ReductionContext
from pacp.theory import (
    DegreeLaw,
    asymptotic_variance,
    degree_moment,
    limit_degree_pmf,
    limit_degree_tail,
    limit_loglr_rate,
    mean_weight_mn,
    score_limit,
)

# entry points taking m explicitly: f(m, delta), with the other delta valid
TAKES_M = {
    "simulate constant": lambda m, d: simulate(8, m, DeltaProfile.constant(d), 1),
    "simulate step delta1": lambda m, d: simulate(8, m, DeltaProfile.step(0.5, d, 4), 1),
    "DeltaProfile.validate": lambda m, d: DeltaProfile.step(d, 0.5, 4).validate(8, m),
    "s_value": lambda m, d: s_value(2, 1, d, m),
    "s_product_ratio delta0": lambda m, d: s_product_ratio(3, 6, d, 0.5, m),
    "s_product_ratio delta1": lambda m, d: s_product_ratio(3, 6, 0.5, d, m),
    "limit_degree_pmf": lambda m, d: limit_degree_pmf(5, m, d),
    "limit_degree_tail": lambda m, d: limit_degree_tail(5, m, d),
    "DegreeLaw.head": lambda m, d: DegreeLaw(m, d).head(5),
    "limit_loglr_rate delta0": lambda m, d: limit_loglr_rate(d, 0.5, m),
    "limit_loglr_rate delta1": lambda m, d: limit_loglr_rate(0.5, d, m, "H1"),
    "asymptotic_variance delta0": lambda m, d: asymptotic_variance(0, d, 0.5, m),
    "asymptotic_variance delta1": lambda m, d: asymptotic_variance(1, 0.5, d, m),
    "score_limit delta": lambda m, d: score_limit(d, 0.5, 1.0, m),
    "score_limit delta0": lambda m, d: score_limit(0.5, d, 1.0, m),
    "score_limit delta1": lambda m, d: score_limit(0.5, 1.0, d, m),
    "degree_moment": lambda m, d: degree_moment(0, 5, m, d),
    "mean_weight_mn delta0": lambda m, d: mean_weight_mn(3, 6, d, 0.5, m),
    "mean_weight_mn delta1": lambda m, d: mean_weight_mn(3, 6, 0.5, d, m),
}

# entry points reading m from a graph: f(g, delta)
ON_GRAPH = {
    "log_likelihood": lambda g, d: log_likelihood(g, DeltaProfile.step(0.5, d, 4)),
    "log_lr tail": lambda g, d: log_lr(g, 4, d, 0.5),
    "log_lr sequential": lambda g, d: log_lr(g, 4, 0.5, d, method="sequential"),
    "lr_test": lambda g, d: lr_test(g, 4, d, 0.5),
    "score": lambda g, d: score(g, (1, 8), d),
    "localize_tau delta0": lambda g, d: localize_tau(g, d, 0.5),
    "localize_tau delta1": lambda g, d: localize_tau(g, 0.5, d),
    "ReductionContext.build delta0": lambda g, d: ReductionContext.build(g, 6, 3, 1.0, d, 0.5),
    "ReductionContext.build delta1": lambda g, d: ReductionContext.build(g, 6, 3, 1.0, 0.5, d),
}

M = 2
BAD_DELTAS = (math.nan, math.inf, -math.inf, -M)


@pytest.fixture(scope="module")
def graph():
    return simulate(8, M, DeltaProfile.constant(0.5), 3)


@pytest.mark.parametrize("delta", BAD_DELTAS, ids=str)
@pytest.mark.parametrize("name", sorted(TAKES_M))
def test_bad_delta_is_a_domain_error(name, delta):
    with pytest.raises(DomainError, match="must be finite and > -m = -2"):
        TAKES_M[name](M, delta)


@pytest.mark.parametrize("m", (0, -1, 1.5), ids=str)
@pytest.mark.parametrize("name", sorted(TAKES_M))
def test_bad_m_is_a_domain_error(name, m):
    with pytest.raises(DomainError, match="m must be an integer >= 1"):
        TAKES_M[name](m, 0.5)


@pytest.mark.parametrize("delta", BAD_DELTAS, ids=str)
@pytest.mark.parametrize("name", sorted(ON_GRAPH))
def test_bad_delta_on_a_graph_is_a_domain_error(name, delta, graph):
    with pytest.raises(DomainError, match="must be finite and > -m = -2"):
        ON_GRAPH[name](graph, delta)


def test_valid_domain_passes_and_messages_name_the_parameter():
    from pacp.errors import check_domain

    check_domain(1, delta0=-0.999, delta1=1e300)
    check_domain(3)
    with pytest.raises(DomainError, match=r"^delta1 must be finite and > -m = -1, got nan$"):
        check_domain(1, delta0=0.0, delta1=math.nan)
    with pytest.raises(DomainError, match=r"^m must be an integer >= 1, got 0$"):
        check_domain(0, delta0=0.0)


def test_reduction_alpha_must_be_finite_and_positive(graph):
    for alpha in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="alpha"):
            ReductionContext.build(graph, 6, 3, alpha, 0.0, 0.5)


@pytest.mark.parametrize("tau", (2.5, 3.0, math.inf, math.nan, "3"), ids=repr)
def test_non_integer_tau_is_a_domain_error(tau, graph):
    # a non-integral tau never equals an arrival, so simulate would draw the
    # constant law, and log_likelihood would fail slicing at any float tau;
    # DeltaProfile.step hands tau over unconverted, so 2.5 is not truncated to 2
    for profile in (DeltaProfile(0.0, 5.0, tau), DeltaProfile.step(0.0, 5.0, tau)):
        for call in (
            lambda: profile.validate(8, M),
            lambda: simulate(8, M, profile, 3),
            lambda: log_likelihood(graph, profile),
        ):
            with pytest.raises(DomainError, match=r"^tau must be an integer, got "):
                call()


def test_numpy_integer_tau_passes():
    for tau in (np.int64(4), np.int32(0), np.uint8(8)):
        DeltaProfile(0.0, 5.0, tau).validate(8, M)
    g = simulate(8, M, DeltaProfile(0.0, 5.0, np.int64(4)), 3)
    assert g == simulate(8, M, DeltaProfile.step(0.0, 5.0, 4), 3)
