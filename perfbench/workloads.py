"""The benchmark's workloads.

Each workload derives all of its inputs from the run seed, runs whole rounds
of one kind of operation, and checks every operation's output.  Operations
call pacp through module attributes (``graph.parse_palog``, not a name
imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time

import numpy as np

from pacp import campaign, cli, graph, inference, likelihood, reduction, simulation, theory
from pacp.simulation import DeltaProfile

import checks

RESULTS = os.path.join("perfbench", "results")  # relative to the checkout root


def derive_seed(seed: int, *parts: int) -> int:
    """A 32-bit seed that depends on the run seed and on ``parts`` only."""
    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


def noop(r):
    """Replicate worker that does nothing: times process-pool start-up."""
    return r


class Workload:
    name = ""
    # Interpreter arguments of the child process whose start-up set-up times.
    setup_probe = ["-c", "import pacp"]
    # peak_rss_mb reads this process ("self") or its waited-for children.
    rss_of = "self"
    # Rounds per phase of a traced run: a fixed count, so counts repeat.
    trace_rounds = 1

    def __init__(self, seed: int, env: dict, in_process: bool = False):
        self.seed = seed
        self.env = env
        self.in_process = in_process

    def prepare(self) -> None:
        """Input generation and warm-up; set-up runs it several times."""

    def round(self, k: int, timed) -> list:
        """Run round ``k``, each operation through ``timed(fn, *args)``,
        and return the operations' outputs."""
        raise NotImplementedError

    def check_op(self, out) -> str | None:
        return None

    def check_run(self) -> list[str]:
        """Checks over all operations of the run."""
        return []

    def layer_extras(self, untraced: list[float]) -> dict:
        return {"campaign.parallel_efficiency": 0.0}


class DetectCampaign(Workload):
    """Labelled detection: ``pacp test --mode plugin`` campaigns in
    criterion 8's setting, one CLI process per operation."""

    name = "detect-campaign"
    setup_probe = ["-m", "pacp.cli", "--version"]
    rss_of = "children"
    N, M, TAU, D0, D1 = 2000, 1, 1500, 0.0, 3.0
    REPLICATES = 200
    THREADS = 2
    IDENTITY_REPLICATES = 20
    SAMPLED = 2  # replicates per operation whose statistic is recomputed

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.out = os.path.join(RESULTS, "campaign.json")
        self.csv = os.path.join(RESULTS, "campaign.csv")

    def argv(self, seed, replicates, threads, out, csv):
        return [
            "test", "--mode", "plugin", "--n", str(self.N), "--m", str(self.M),
            "--tau", str(self.TAU), "--delta0", str(self.D0), "--delta1", str(self.D1),
            "--replicates", str(replicates), "--seed", str(seed), "--threads", str(threads),
            "--out", out, "--csv", csv,
        ]

    def _cli(self, argv) -> int:
        if self.in_process:
            return cli.main(argv)
        proc = subprocess.run(
            [sys.executable, "-m", "pacp.cli", *argv],
            env=self.env, stdout=subprocess.DEVNULL, timeout=170,
        )
        return proc.returncode

    def round(self, k, timed):
        seed = derive_seed(self.seed, 1, k)
        threads = 1 if self.in_process else self.THREADS
        code = timed(self._cli, self.argv(seed, self.REPLICATES, threads, self.out, self.csv))
        out = {"k": k, "seed": seed, "code": code}
        if code == 0:
            with open(self.out, encoding="utf-8") as fh:
                out["summary"] = json.load(fh)
            with open(self.csv, encoding="utf-8") as fh:
                out["csv"] = fh.read()
        return [out]

    def check_op(self, out):
        if out["code"] != 0:
            return f"pacp test exited {out['code']}"
        problem = checks.campaign_summary(out["summary"], out["csv"])
        if problem:
            return problem
        rng = np.random.default_rng(derive_seed(self.seed, 2, out["k"]))
        for _ in range(self.SAMPLED):
            h, r = int(rng.integers(2)), int(rng.integers(self.REPLICATES))
            profile = (
                DeltaProfile.constant(self.D0)
                if h == 0
                else DeltaProfile.step(self.D0, self.D1, self.TAU)
            )
            g = simulation.simulate(self.N, self.M, profile, (out["seed"], h, r))
            stat = checks.plugin_statistic(g, self.TAU, inference.score, likelihood.log_lr)
            problem = checks.statistic_matches(checks.csv_statistic(out["csv"], r, h), stat)
            if problem:
                return f"replicate {r} h{h}: {problem}"
        return None

    def check_run(self):
        # Byte identity of JSON and CSV at 1 and 2 workers, same output paths.
        seed = derive_seed(self.seed, 5)
        out = os.path.join(RESULTS, "identity.json")
        csv = os.path.join(RESULTS, "identity.csv")
        got = []
        for threads in (self.THREADS, 1):
            code = cli.main(self.argv(seed, self.IDENTITY_REPLICATES, threads, out, csv))
            if code != 0:
                return [f"identity campaign at {threads} workers exited {code}"]
            with open(out, "rb") as fj, open(csv, "rb") as fc:
                got.append((fj.read(), fc.read()))
        problems = [
            checks.identical("summary JSON", got[0][0], got[1][0]),
            checks.identical("replicate CSV", got[0][1], got[1][1]),
        ]
        return [p for p in problems if p]

    def layer_extras(self, untraced):
        # Round 0 again at 2 workers in this process; untraced[0] ran it at 1.
        seed = derive_seed(self.seed, 1, 0)
        t0 = time.perf_counter()
        cli.main(self.argv(seed, self.REPLICATES, self.THREADS, self.out, self.csv))
        t2 = time.perf_counter() - t0
        return {"campaign.parallel_efficiency": untraced[0] / (self.THREADS * t2)}


def contiguity_regime(n: int):
    """Criterion 10's regime: alpha = log10 n, width = n^(1/3)/alpha,
    width' = n^(2/3); returns (alpha, tau, tau_prime)."""
    alpha = math.log10(n)
    width = int(n ** (1 / 3) / alpha)
    width_prime = int(n ** (2 / 3))
    return alpha, n - width, n - width_prime


class ContiguityProbe(Workload):
    """Unlabelled impossibility: the second-moment probe under the constant
    law at n = 1e5, one replicate per operation, run serially."""

    name = "contiguity-probe"
    N, M, D0, D1 = 10**5, 1, 2.0, 0.5
    trace_rounds = 6

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.y: list[float] = []
        self.y2_bn: list[float] = []
        self.bound_rhs = math.inf

    def _probe(self, n, seed):
        alpha, tau, tau_prime = contiguity_regime(n)
        return reduction.second_moment_probe(
            n=n, m=self.M, delta0=self.D0, delta1=self.D1, tau=tau, tau_prime=tau_prime,
            alpha=alpha, replicates=1, seed=seed, threads=1,
        )

    def prepare(self):
        self._probe(1000, derive_seed(self.seed, 3))

    def round(self, k, timed):
        return [timed(self._probe, self.N, derive_seed(self.seed, 4, k))]

    def check_op(self, mc):
        y = float(mc.per_replicate["y"][0])
        y2_bn = float(mc.per_replicate["y2_bn"][0])
        if not (math.isfinite(y) and y > 0):
            return f"permuted LR y = {y}"
        expect = y * y if mc.per_replicate["bn"][0] else 0.0
        if y2_bn != expect:
            return f"y2_bn = {y2_bn} but y^2 1_B = {expect}"
        self.y.append(y)
        self.y2_bn.append(y2_bn)
        self.bound_rhs = mc.auxiliaries["bound_rhs"]
        return None

    def check_run(self):
        # Y is a likelihood ratio under H0, so its mean is 1.
        problems = [
            checks.mean_within(self.y, 1.0),
            checks.at_most("E0[Y^2 1_B]", float(np.mean(self.y2_bn)), self.bound_rhs),
        ]
        return [p for p in problems if p]


class GraphAnalysis(Workload):
    """One fixed step-law graph held as PALOG text; every operation parses
    it and runs the single-graph analyses.  No sampling is timed."""

    name = "graph-analysis"
    N, M, D0, D1, TAU = 10**5, 3, 0.0, 2.0, 90_000
    TAU_PRIME, ALPHA = 80_000, 1.0
    SAMPLED_TAUS = 3
    trace_rounds = 4

    def prepare(self):
        profile = DeltaProfile.step(self.D0, self.D1, self.TAU)
        self.graph = simulation.simulate(self.N, self.M, profile, derive_seed(self.seed, 6))
        self.text = graph.format_palog(self.graph)
        rng = np.random.default_rng(derive_seed(self.seed, 7))
        self.taus = rng.integers(1, self.N, size=self.SAMPLED_TAUS).tolist()

    def _op(self):
        g = graph.parse_palog(self.text)
        ll = likelihood.log_likelihood(g, DeltaProfile.step(self.D0, self.D1, self.TAU))
        lr_tail = likelihood.log_lr(g, self.TAU, self.D0, self.D1, method="tail")
        lr_seq = likelihood.log_lr(g, self.TAU, self.D0, self.D1, method="sequential")
        fit = inference.mle(g, self.TAU)
        inference.plugin_lr_test(g, self.TAU)
        _, profile = inference.localize_tau(g, self.D0, self.D1)
        ctx = reduction.ReductionContext.build(
            g, self.TAU, self.TAU_PRIME, self.ALPHA, self.D0, self.D1
        )
        log_y = reduction.log_permuted_lr(ctx)
        text = graph.format_palog(g)
        return dict(
            g=g, ll=ll.value, lr_tail=lr_tail, lr_seq=lr_seq, fit=fit, profile=profile,
            log_y=log_y, text=text,
        )

    def round(self, k, timed):
        return [timed(self._op)]

    def check_op(self, out):
        g = out["g"]
        lr = out["lr_tail"]
        ll_diff = out["ll"] - likelihood.log_likelihood(g, DeltaProfile.constant(self.D0)).value
        problems = [
            checks.same_log(g, self.graph),
            checks.same_text(out["text"], self.text),
            checks.tail_total(graph.degree_tail_counts(g).tail, g.n, g.m),
            checks.close("log_lr tail vs sequential", lr, out["lr_seq"], 1e-10),
            checks.close("loglik(step) - loglik(constant) vs log_lr", ll_diff, lr, 1e-8),
            None if math.isfinite(out["log_y"]) else f"log permuted LR {out['log_y']}",
        ]
        for tau in self.taus:
            step = likelihood.log_likelihood(g, DeltaProfile.step(self.D0, self.D1, tau)).value
            problems.append(
                checks.close(
                    f"localize profile at tau={tau}", out["profile"][tau], step,
                    1e-12 * max(1.0, abs(step)),
                )
            )
        fit = out["fit"]
        windows = (((1, self.TAU), fit.delta0_hat), ((self.TAU + 1, g.n), fit.delta1_hat))
        for window, delta in windows:
            if delta is None:
                problems.append(f"no estimate in window {window}")
                continue
            s = inference.score(g, window, delta)
            problems.append(checks.close(f"score at the estimate in {window}", s, 0.0, 1e-8))
        return next((p for p in problems if p), None)


class SmallGraphs(Workload):
    """Many constant-law graphs at n = 100, each simulated and reduced to its
    degree vector: the sampler's fixed per-call cost dominates."""

    name = "small-graphs"
    N, M, DELTA = 100, 1, 0.0
    PICKS = (0, 17)
    ROUND = 250
    trace_rounds = 40

    def __init__(self, *a, **kw):
        super().__init__(*a, **kw)
        self.squares = {u: [] for u in self.PICKS}

    def _op(self, profile, seed):
        return simulation.simulate(self.N, self.M, profile, seed).degrees()

    def prepare(self):
        self._op(DeltaProfile.constant(self.DELTA), (self.seed, 1 << 32))

    def round(self, k, timed):
        profile = DeltaProfile.constant(self.DELTA)
        return [timed(self._op, profile, (self.seed, k, j)) for j in range(self.ROUND)]

    def check_op(self, degrees):
        for u in self.PICKS:
            self.squares[u].append((degrees[u] + self.DELTA) ** 2)
        return checks.degree_sum(degrees, self.N, self.M)

    def check_run(self):
        problems = []
        for u in self.PICKS:
            exact = theory.degree_moment(u, self.N, self.M, self.DELTA).second_moment
            problems.append(checks.mean_within(self.squares[u], exact))
        return [p for p in problems if p]


WORKLOADS = {
    w.name: w for w in (DetectCampaign, ContiguityProbe, GraphAnalysis, SmallGraphs)
}


def pool_startup_s() -> float:
    """Median wall time of a no-op campaign at two workers."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        campaign.run_replicates(noop, 2, threads=2)
        times.append(time.perf_counter() - t0)
    return float(np.median(times))
