"""Correctness checks of the benchmark's outputs.

Each check returns ``None`` when the output passes and a one-line reason
when it does not.  Every check compares against a computation made apart
from the code under test, or against a property the method must have; none
compares against stored output.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.optimize import brentq

# Criterion 8's acceptance property for the penalised plug-in test.
MAX_ERROR_SUM = 0.10
MAX_ABSTAIN = 0.02


def campaign_summary(summary: dict, csv_text: str) -> str | None:
    """A ``pacp test`` campaign: the error rates meet criterion 8's property,
    every row's verdict follows its statistic, and the JSON rates are the
    ones the CSV rows give."""
    result = summary.get("result", {})
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != 2 * result.get("replicates", -1):
        return f"CSV has {len(rows)} rows for {result.get('replicates')} replicates"
    wrong = {0: 0, 1: 0}
    decided = {0: 0, 1: 0}
    abstain = {0: 0, 1: 0}
    for row in rows:
        h = int(row["hypothesis"])
        if row["abstain"] == "True":
            abstain[h] += 1
            continue
        stat = float(row["statistic"])
        reject = row["reject"] == "True"
        if reject != (stat > 0):
            return f"replicate {row['replicate']} h{h}: reject={reject} with statistic {stat}"
        decided[h] += 1
        wrong[h] += reject if h == 0 else not reject
    n_rep = result["replicates"]
    expect = {
        "type1": wrong[0] / decided[0] if decided[0] else None,
        "type2": wrong[1] / decided[1] if decided[1] else None,
        "abstain_h0": abstain[0] / n_rep,
        "abstain_h1": abstain[1] / n_rep,
    }
    for key, value in expect.items():
        if result.get(key) != value:
            return f"JSON {key}={result.get(key)} but the CSV gives {value}"
    if expect["type1"] is None or expect["type2"] is None:
        return "no decided replicate under one hypothesis"
    total = expect["type1"] + expect["type2"]
    if not total <= MAX_ERROR_SUM:
        return f"type I + type II = {total:.3f} > {MAX_ERROR_SUM}"
    if not (expect["abstain_h0"] < MAX_ABSTAIN and expect["abstain_h1"] < MAX_ABSTAIN):
        return f"abstentions {expect['abstain_h0']:.3f}/{expect['abstain_h1']:.3f}"
    return None


def csv_statistic(csv_text: str, replicate: int, hypothesis: int) -> float | None:
    """The statistic a campaign CSV records for one replicate and hypothesis."""
    for row in csv.DictReader(io.StringIO(csv_text)):
        if int(row["replicate"]) == replicate and int(row["hypothesis"]) == hypothesis:
            return None if row["abstain"] == "True" else float(row["statistic"])
    raise KeyError((replicate, hypothesis))


def _window_root(score_fn, m: int) -> float:
    """Root of a window score by Brent's method on a bracket found here."""
    lo = -m + 1e-6 * m
    hi = 1.0
    while score_fn(hi) > 0:
        hi *= 2.0
        if hi > 1e6:
            raise ValueError("no sign change below delta = 1e6")
    return brentq(score_fn, lo, hi, xtol=1e-14, rtol=4 * np.finfo(float).eps)


def plugin_statistic(g, tau: int, score, log_lr) -> float | None:
    """The penalised plug-in statistic recomputed without ``mle``: each
    window's delta from ``brentq`` on ``score``, the sequential-form log LR
    at those estimates, minus 1/2 log(n - tau).  ``None`` when a window's
    score has no root on the bracket."""
    n, m = g.n, g.m
    try:
        d0 = _window_root(lambda d: score(g, (1, tau), d), m)
        d1 = _window_root(lambda d: score(g, (tau + 1, n), d), m)
    except ValueError:
        return None
    return log_lr(g, tau, d0, d1, method="sequential") - 0.5 * math.log(n - tau)


def statistic_matches(
    recorded: float | None, recomputed: float | None, tol: float = 1e-6
) -> str | None:
    """``None`` on either side stands for an abstention (no window root)."""
    if recorded is None or recomputed is None:
        if recorded is recomputed:
            return None
        return f"abstention mismatch: recorded {recorded!r}, recomputed {recomputed!r}"
    if not abs(recorded - recomputed) <= tol * max(1.0, abs(recomputed)):
        return f"statistic {recorded!r} differs from the recomputed {recomputed!r}"
    return None


def identical(label: str, a: bytes, b: bytes) -> str | None:
    if a != b:
        return f"{label} differs between 1 and 2 workers"
    return None


def mean_within(values, target: float, n_se: float = 4.0) -> str | None:
    """The sample mean lies within ``n_se`` standard errors of ``target``."""
    x = np.asarray(values, dtype=np.float64)
    if len(x) < 2:
        return "fewer than two samples"
    se = x.std(ddof=1) / math.sqrt(len(x))
    z = (x.mean() - target) / se if se > 0 else math.inf
    if not abs(z) <= n_se:
        return f"mean {x.mean():.6g} is {z:+.2f} SE from {target:.6g}"
    return None


def at_most(label: str, value: float, bound: float) -> str | None:
    if not value <= bound:
        return f"{label} = {value:.6g} exceeds {bound:.6g}"
    return None


def same_log(a, b) -> str | None:
    if a.n != b.n or a.m != b.m or not np.array_equal(a.targets, b.targets):
        return "PALOG round trip changed the log"
    return None


def same_text(a: str, b: str) -> str | None:
    if a != b:
        return "format_palog(parse_palog(text)) != text"
    return None


def tail_total(tail, n: int, m: int) -> str | None:
    """Sum over k of N_{>k} is the total excess degree, m (n - 1)."""
    total = int(np.sum(tail))
    if total != m * (n - 1):
        return f"sum of tail counts {total} != m(n-1) = {m * (n - 1)}"
    return None


def close(label: str, a: float, b: float, tol: float) -> str | None:
    if not abs(a - b) <= tol:
        return f"{label}: {a!r} vs {b!r} (|diff| {abs(a - b):.3g} > {tol:g})"
    return None


def degree_sum(degrees, n: int, m: int) -> str | None:
    """Every edge adds two to the degree sum: n arrivals of m edges each."""
    total = int(np.sum(degrees))
    if total != 2 * m * n:
        return f"degree sum {total} != 2mn = {2 * m * n}"
    return None
