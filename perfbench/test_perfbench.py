"""The benchmark's own tests: every correctness check passes a correct
output and rejects a deliberately perturbed one.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

try:
    import pacp  # noqa: F401
except ImportError:  # allow running pytest from a fresh checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pacp import inference, likelihood
from pacp.graph import AttachmentLog, degree_tail_counts, format_palog
from pacp.simulation import DeltaProfile, simulate

import checks
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent


def _campaign(h0, h1):
    """Summary dict and CSV text of a test campaign; None marks an abstention."""
    lines = ["replicate,hypothesis,statistic,reject,abstain"]
    for r, pair in enumerate(zip(h0, h1)):
        for h, stat in enumerate(pair):
            if stat is None:
                lines.append(f"{r},{h},,,True")
            else:
                lines.append(f"{r},{h},{stat!r},{stat > 0},False")
    result = {"replicates": len(h0)}
    for h, stats, key in ((0, h0, "type1"), (1, h1, "type2")):
        decided = [s for s in stats if s is not None]
        wrong = sum((s > 0) if h == 0 else (s <= 0) for s in decided)
        result[key] = wrong / len(decided)
        result[f"abstain_h{h}"] = (len(stats) - len(decided)) / len(stats)
    return {"result": result}, "\n".join(lines) + "\n"


H0 = [-1.5] * 49 + [0.5]
H1 = [20.0] * 50


def test_campaign_summary_accepts_and_rejects():
    summary, text = _campaign(H0, H1)
    assert checks.campaign_summary(summary, text) is None
    # JSON rate disagrees with the rows
    bad = copy.deepcopy(summary)
    bad["result"]["type1"] = 0.0
    assert checks.campaign_summary(bad, text)
    # a verdict that does not follow its statistic
    assert checks.campaign_summary(summary, text.replace("-1.5,False", "-1.5,True", 1))
    # error rates above criterion 8's 0.10
    assert checks.campaign_summary(*_campaign([-1.5] * 44 + [0.5] * 6, H1))
    # too many abstentions
    assert checks.campaign_summary(*_campaign([None] + H0[1:], H1))
    # a row missing
    assert checks.campaign_summary(summary, text.rsplit("\n", 2)[0] + "\n")


def test_plugin_statistic_recomputes_and_rejects_perturbation():
    n, tau = 400, 300
    g = simulate(n, 1, DeltaProfile.step(0.0, 3.0, tau), 17)
    stat = checks.plugin_statistic(g, tau, inference.score, likelihood.log_lr)
    recorded = inference.plugin_lr_test(g, tau).statistic
    assert checks.statistic_matches(recorded, stat) is None
    assert checks.statistic_matches(recorded + 1e-4 * max(1.0, abs(recorded)), stat)
    assert checks.statistic_matches(None, stat)
    assert checks.statistic_matches(None, None) is None


def test_identical_mean_bound_and_close():
    assert checks.identical("x", b"abc", b"abc") is None
    assert checks.identical("x", b"abc", b"abd")
    x = np.random.default_rng(3).normal(1.0, 0.1, size=400)
    assert checks.mean_within(x, 1.0) is None
    assert checks.mean_within(x + 0.05, 1.0)
    assert checks.at_most("v", 1.0, 2.0) is None
    assert checks.at_most("v", 3.0, 2.0)
    assert checks.close("v", 1.0, 1.0 + 1e-12, 1e-10) is None
    assert checks.close("v", 1.0, 1.0 + 1e-9, 1e-10)


def test_graph_identities_reject_perturbation():
    g = simulate(200, 2, DeltaProfile.constant(0.5), 5)
    assert checks.same_log(g, g) is None
    bumped = g.targets.copy()
    bumped[-1] = (bumped[-1] + 1) % 200
    assert checks.same_log(g, AttachmentLog(g.n, g.m, bumped, validate=False))
    text = format_palog(g)
    assert checks.same_text(text, text) is None
    assert checks.same_text(text, text.replace("\n3 ", "\n3  ", 1))
    tail = degree_tail_counts(g).tail
    assert checks.tail_total(tail, g.n, g.m) is None
    tail = tail.copy()
    tail[0] += 1
    assert checks.tail_total(tail, g.n, g.m)
    deg = g.degrees()
    assert checks.degree_sum(deg, g.n, g.m) is None
    deg[3] += 1
    assert checks.degree_sum(deg, g.n, g.m)


def _timed(fn, *args, **kwargs):
    return fn(*args, **kwargs)


class _SmallGraphAnalysis(workloads.GraphAnalysis):
    N, TAU, TAU_PRIME = 3000, 2500, 2000


def test_graph_analysis_op_checks():
    wl = _SmallGraphAnalysis(1, dict(os.environ))
    wl.prepare()
    (out,) = wl.round(0, _timed)
    assert wl.check_op(out) is None
    for key, change in (
        ("lr_seq", lambda v: v + 1e-6),
        ("ll", lambda v: v + 1e-6),
        ("text", lambda v: v.replace("\n2 ", "\n2  ", 1)),
    ):
        bad = dict(out, **{key: change(out[key])})
        assert wl.check_op(bad), key
    profile = out["profile"].copy()
    profile[wl.taus[0]] += 1e-3
    assert wl.check_op(dict(out, profile=profile))


def test_small_graphs_checks():
    wl = workloads.SmallGraphs(1, dict(os.environ))
    outs = [o for k in range(8) for o in wl.round(k, _timed)]
    assert all(wl.check_op(o) is None for o in outs)
    assert wl.check_run() == []
    for u in wl.PICKS:
        wl.squares[u] = [v + 10.0 for v in wl.squares[u]]
    assert wl.check_run()


class _SmallContiguity(workloads.ContiguityProbe):
    N = 3000


def test_contiguity_checks():
    wl = _SmallContiguity(1, dict(os.environ))
    outs = [o for k in range(30) for o in wl.round(k, _timed)]
    assert all(wl.check_op(o) is None for o in outs)
    assert wl.check_run() == []
    wl.y = [2.0 * y for y in wl.y]  # a likelihood ratio whose mean is not 1
    assert wl.check_run()
    bad = copy.deepcopy(outs[0])
    bad.per_replicate["y2_bn"][0] += 1.0
    assert wl.check_op(bad)


class _ShortCampaign(workloads.DetectCampaign):
    REPLICATES = 10
    IDENTITY_REPLICATES = 4


def test_detect_campaign_checks(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    os.makedirs(workloads.RESULTS)
    wl = _ShortCampaign(3, dict(os.environ), in_process=True)
    (out,) = wl.round(0, _timed)
    assert wl.check_op(out) is None
    assert wl.check_run() == []
    # every statistic nudged, signs kept: the summary still agrees with the
    # rows, but the recomputed statistics do not
    rows = out["csv"].splitlines()
    nudged = [rows[0]]
    for row in rows[1:]:
        r, h, stat, reject, abstain = row.split(",")
        nudged.append(",".join((r, h, repr(float(stat) * (1 + 1e-5)), reject, abstain)))
    assert wl.check_op(dict(out, csv="\n".join(nudged) + "\n"))
    assert wl.check_op(dict(out, code=1))


def test_run_fails_without_sources(tmp_path):
    ignore = shutil.ignore_patterns("results", "__pycache__")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=ignore)
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-graphs", "--seconds", "1"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_records_calls_inside_the_package_and_restores():
    g = simulate(300, 1, DeltaProfile.step(0.0, 3.0, 200), 4)
    original = likelihood.log_lr
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_op()
        tracer.active = True
        inference.plugin_lr_test(g, 200)
        tracer.active = False
        inference.mle(g, 200)  # not recorded: the tracer is off
    finally:
        tracer.uninstall()
    assert likelihood.log_lr is original and inference.log_lr is original
    out = tracer.summary(1.0)
    # mle, log_lr and asymptotic_variance are called by plugin_lr_test itself
    assert out["inference.plugin_lr_test.calls"] == 1
    assert out["inference.mle.calls"] == 1
    assert out["likelihood.log_lr_tail.calls"] == 1
    assert out["theory.asymptotic_variance.calls"] == 2
    assert out["inference.mle.iterations"] > 0
    assert all(v >= 0 for k, v in out.items() if k.endswith(".s"))
    names = [span[1] for span in tracer.spans]
    assert tracer.spans[names.index("inference.mle")][2] == names.index("inference.plugin_lr_test")


def test_workloads_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
