"""Batch front-end: simulation, likelihood evaluation, testing, estimation,
localization, and reduction campaigns with reproducible seeded outputs.

Summaries are strict JSON (stable field set under the "v1" tag; a non-finite
number is written as null), per-replicate tables are CSV, graphs travel as
PALOG text.  Outputs are byte-reproducible from the echoed config and master
seed, whatever the parallelism degree.

Exit codes: 0 success (abstentions are data), 2 bad arguments, 3 domain error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import __version__, campaign, errors, reduction, theory
from .graph import load_palog, save_palog
from .inference import localize_tau, lr_test, mle, plugin_lr_test
from .likelihood import log_likelihood, log_lr, safe_exp
from .simulation import DeltaProfile, simulate, simulate_many

OUTPUT_VERSION = "v1"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route all argparse failures through exit code 2
        raise _UsageError(message)


def _number(convert, text: str, what: str):
    # argparse would report a ValueError as "invalid _master_seed value".
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{what}, got {text!r}") from None


def _count_of(noun: str):
    def count_type(text: str) -> int:
        count = _number(int, text, f"the {noun} count must be an integer")
        if count < 1:
            raise argparse.ArgumentTypeError(f"need at least one {noun}, got {count}")
        return count

    return count_type


_replicate_count, _thread_count = _count_of("replicate"), _count_of("thread")


def _finite(text: str) -> float:
    value = _number(float, text, "expected a finite number")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _master_seed(text: str) -> int:
    seed = _number(int, text, "the seed must be an integer")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"the seed must be non-negative, got {seed}")
    return seed


def _level(text: str) -> float:
    level = _number(float, text, "the level must be a number")
    if not 0.0 < level < 1.0:
        raise argparse.ArgumentTypeError(f"the level must lie in (0, 1), got {level}")
    return level


def _profile_from(args) -> DeltaProfile:
    if args.delta1 is None and args.tau is None:
        return DeltaProfile.constant(args.delta0)
    if args.delta1 is None or args.tau is None:
        raise _UsageError("step profiles need both --delta1 and --tau")
    return DeltaProfile.step(args.delta0, args.delta1, args.tau)


def _check_deltas(args, m: int) -> None:
    """The model's domain rule on --m and every delta flag given, as a usage
    error naming the flag (the rule's message starts with the name)."""
    deltas = {k: getattr(args, k) for k in ("delta0", "delta1") if getattr(args, k) is not None}
    try:
        errors.check_domain(m, **deltas)
    except errors.DomainError as exc:
        raise _UsageError(f"--{exc}") from None


def _check_tau(tau: int | None, n: int, lo: int = 0) -> None:
    if tau is not None and not lo <= tau <= n:
        raise _UsageError(f"--tau must lie in {lo}..{n}, got {tau}")


def _strict(value):
    """``value`` with every non-finite float replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(payload: dict, path: str | None) -> None:
    text = json.dumps(_strict(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(kind: str, exc: Exception, code: int) -> int:
    _emit({"version": OUTPUT_VERSION, "error": {"type": kind, "message": str(exc)}}, None)
    return code


def _write_csv(path: str, fieldnames: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def _config_echo(args) -> dict:
    # threads is a runtime knob that cannot change any output by construction;
    # echoing it would break byte-identity of reruns at other widths
    skip = {"func", "command", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


# ---------------------------------------------------------------------------
# subcommand handlers: return (result dict, master seed or None, csv rows)
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    _check_deltas(args, args.m)
    _check_tau(args.tau, args.n)
    profile = _profile_from(args)
    g = simulate(args.n, args.m, profile, args.seed)
    save_palog(g, args.out)
    result = {"path": args.out, "n": g.n, "m": g.m, "edges": g.n * g.m}
    return result, args.seed, None


def _cmd_loglik(args):
    g = load_palog(args.graph)
    _check_deltas(args, g.m)
    _check_tau(args.tau, g.n)
    profile = _profile_from(args)
    ll = log_likelihood(g, profile)
    result = {
        "loglik": ll.value,
        "log_comb": ll.log_comb,
        "log_numerator": ll.log_numerator,
        "log_normalizer": ll.log_normalizer,
    }
    return result, None, None


def _cmd_lr(args):
    g = load_palog(args.graph)
    _check_deltas(args, g.m)
    _check_tau(args.tau, g.n, lo=1)
    if args.method == "both":
        tail = log_lr(g, args.tau, args.delta0, args.delta1, method="tail")
        seq = log_lr(g, args.tau, args.delta0, args.delta1, method="sequential")
        result = {"log_lr": tail, "log_lr_sequential": seq, "agreement": abs(tail - seq)}
    else:
        result = {"log_lr": log_lr(g, args.tau, args.delta0, args.delta1, method=args.method)}
    return result, None, None


def _cmd_mle(args):
    g = load_palog(args.graph)
    _check_tau(args.tau, g.n - 1, lo=1)
    fit = mle(g, args.tau)
    ci0, ci1 = fit.confidence_intervals(args.level)
    result = {
        "delta0_hat": fit.delta0_hat,
        "delta1_hat": fit.delta1_hat,
        "status_pre": fit.pre.status,
        "status_post": fit.post.status,
        "stderr0": fit.pre.stderr,
        "stderr1": fit.post.stderr,
        "ci0": list(ci0) if ci0 else None,
        "ci1": list(ci1) if ci1 else None,
        "level": args.level,
    }
    return result, None, None


def _test_replicates(indices, n, m, tau, delta0, delta1, mode, seed):
    profiles = (DeltaProfile.constant(delta0), DeltaProfile.step(delta0, delta1, tau))
    graphs = simulate_many(
        n, m, [profiles[h] for _ in indices for h in (0, 1)],
        [(seed, h, r) for r in indices for h in (0, 1)],
    )
    records = []
    for r in indices:
        rec = {"replicate": r}
        for h in (0, 1):
            g = next(graphs)
            try:
                if mode == "known":
                    verdict = lr_test(g, tau, delta0, delta1)
                else:
                    verdict = plugin_lr_test(g, tau)
                rec[f"h{h}_statistic"] = verdict.statistic
                rec[f"h{h}_reject"] = verdict.reject
                rec[f"h{h}_abstain"] = False
            except errors.NoInteriorRoot:
                rec[f"h{h}_statistic"] = None
                rec[f"h{h}_reject"] = None
                rec[f"h{h}_abstain"] = True
        records.append(rec)
    return records


def summarize_test_campaign(rows: list[dict]) -> dict:
    """Error rates over decided replicates; abstentions tallied apart."""
    out = {"replicates": len(rows)}
    for h, err_key in ((0, "type1"), (1, "type2")):
        abstain = sum(1 for row in rows if row[f"h{h}_abstain"])
        decided = [row for row in rows if not row[f"h{h}_abstain"]]
        if h == 0:
            wrong = sum(1 for row in decided if row["h0_reject"])
        else:
            wrong = sum(1 for row in decided if not row["h1_reject"])
        out[err_key] = wrong / len(decided) if decided else None
        out[f"abstain_h{h}"] = abstain / len(rows)
    if out["type1"] is not None and out["type2"] is not None:
        out["sum_errors"] = out["type1"] + out["type2"]
    else:
        out["sum_errors"] = None
    return out


def _cmd_test(args):
    if args.graph is not None:
        g = load_palog(args.graph)
        _check_deltas(args, g.m)
        if args.mode == "known":
            if args.delta0 is None or args.delta1 is None:
                raise _UsageError("--mode known needs --delta0 and --delta1")
            _check_tau(args.tau, g.n, lo=1)
            verdict = lr_test(g, args.tau, args.delta0, args.delta1)
        else:
            _check_tau(args.tau, g.n - 1, lo=1)
            verdict = plugin_lr_test(g, args.tau)
        result = {"statistic": verdict.statistic, "reject": verdict.reject, "mode": verdict.mode}
        return result, None, None
    for name in ("n", "m", "delta0", "delta1", "replicates", "seed"):
        if getattr(args, name) is None:
            raise _UsageError(f"campaign mode needs --{name}")
    _check_deltas(args, args.m)
    _check_tau(args.tau, args.n - 1, lo=1)
    threads = campaign.resolve_threads(args.threads)
    rows = campaign.run_replicates(
        _test_replicates,
        args.replicates,
        args=(args.n, args.m, args.tau, args.delta0, args.delta1, args.mode, args.seed),
        threads=threads,
    )
    result = summarize_test_campaign(rows)
    result["mode"] = args.mode
    csv_rows = None
    if args.csv:
        csv_rows = (
            ["replicate", "hypothesis", "statistic", "reject", "abstain"],
            [
                {
                    "replicate": row["replicate"],
                    "hypothesis": h,
                    "statistic": row[f"h{h}_statistic"],
                    "reject": row[f"h{h}_reject"],
                    "abstain": row[f"h{h}_abstain"],
                }
                for row in rows
                for h in (0, 1)
            ],
        )
    return result, args.seed, csv_rows


def _localize_replicates(indices, n, m, tau, delta0, delta1, seed):
    profile = DeltaProfile.step(delta0, delta1, tau)
    graphs = simulate_many(n, m, [profile] * len(indices), [(seed, r) for r in indices])
    records = []
    for r, g in zip(indices, graphs):
        tau_hat, _ = localize_tau(g, delta0, delta1)
        records.append({"replicate": r, "tau_hat": tau_hat, "abs_err": abs(tau_hat - tau)})
    return records


def _cmd_localize(args):
    if args.graph is not None:
        g = load_palog(args.graph)
        _check_deltas(args, g.m)
        tau_hat, profile = localize_tau(g, args.delta0, args.delta1)
        result = {
            "tau_hat": tau_hat,
            "profile_max": float(profile[tau_hat]),
            "n": g.n,
        }
        csv_rows = None
        if args.csv:
            csv_rows = (
                ["tau", "loglik"],
                [{"tau": t, "loglik": float(v)} for t, v in enumerate(profile)],
            )
        return result, None, csv_rows
    for name in ("n", "m", "delta0", "delta1", "tau", "replicates", "seed"):
        if getattr(args, name) is None:
            raise _UsageError(f"campaign mode needs --{name}")
    _check_deltas(args, args.m)
    _check_tau(args.tau, args.n)
    threads = campaign.resolve_threads(args.threads)
    rows = campaign.run_replicates(
        _localize_replicates,
        args.replicates,
        args=(args.n, args.m, args.tau, args.delta0, args.delta1, args.seed),
        threads=threads,
    )
    errs = np.array([row["abs_err"] for row in rows], dtype=np.float64)
    threshold = math.log(args.n) ** 3
    result = {
        "replicates": len(rows),
        "mean_abs_err": float(errs.mean()),
        "median_abs_err": float(np.median(errs)),
        "max_abs_err": float(errs.max()),
        "threshold_log3": threshold,
        "frac_within_log3": float((errs <= threshold).mean()),
    }
    csv_rows = None
    if args.csv:
        csv_rows = (["replicate", "tau_hat", "abs_err"], rows)
    return result, args.seed, csv_rows


def _cmd_reduce(args):
    g = load_palog(args.graph)
    _check_deltas(args, g.m)
    ctx = reduction.ReductionContext.build(
        g, args.tau, args.tau_prime, args.alpha, args.delta0, args.delta1
    )
    log_y = reduction.log_permuted_lr(ctx)
    result = {
        "bold_size": ctx.bold.size,
        "bold_late": ctx.r,
        "width": ctx.width,
        "width_prime": ctx.width_prime,
        "event_bn": reduction.event_bn(ctx),
        "log_y": log_y,
        "y": safe_exp(log_y),
    }
    return result, None, None


def _cmd_contiguity(args):
    _check_deltas(args, args.m)
    threads = campaign.resolve_threads(args.threads)
    common = dict(
        n=args.n,
        m=args.m,
        delta0=args.delta0,
        delta1=args.delta1,
        replicates=args.replicates,
        seed=args.seed,
        threads=threads,
    )
    if args.probe != "martingale" and args.tau is None:
        raise _UsageError(f"--probe {args.probe} needs --tau")
    if args.probe == "second-moment":
        mc = reduction.second_moment_probe(
            tau=args.tau, tau_prime=args.tau_prime, alpha=args.alpha,
            c1=args.c1, c2=args.c2, **common,
        )
    elif args.probe == "event-bn":
        mc = reduction.event_bn_failure_probe(
            tau=args.tau, tau_prime=args.tau_prime, alpha=args.alpha,
            c_const=args.c1, **common,
        )
    else:
        mc = reduction.martingale_tail_probe(tau_prime=args.tau_prime, **common)
    result = {
        "probe": args.probe,
        "estimate": mc.estimate,
        "stderr": mc.stderr,
        "replicates": mc.replicates,
        "auxiliaries": mc.auxiliaries,
    }
    csv_rows = None
    if args.csv and mc.per_replicate:
        keys = sorted(mc.per_replicate)
        n_rows = len(next(iter(mc.per_replicate.values())))
        csv_rows = (
            ["replicate"] + keys,
            [
                {"replicate": r, **{k: mc.per_replicate[k][r].item() for k in keys}}
                for r in range(n_rows)
            ],
        )
    return result, args.seed, csv_rows


def _cmd_theory(args):
    _check_deltas(args, args.m)
    law = theory.DegreeLaw(args.m, args.delta0)
    head = law.head(args.kmax)
    result = {
        "m": args.m,
        "delta0": args.delta0,
        "p": {str(k): float(p) for k, p in zip(range(args.m, args.kmax + 1), head)},
        "p_tail_kmax": float(law.tail(args.kmax)),
    }
    if args.delta1 is not None:
        result["ell_inf_0"] = theory.limit_loglr_rate(args.delta0, args.delta1, args.m, "H0").value
        result["ell_inf_1"] = theory.limit_loglr_rate(args.delta0, args.delta1, args.m, "H1").value
        result["nu0"] = theory.asymptotic_variance(0, args.delta0, args.delta1, args.m).value
        result["nu1"] = theory.asymptotic_variance(1, args.delta0, args.delta1, args.m).value
    return result, None, None


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pacp", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pacp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common_out(p):
        p.add_argument("--out", help="write the summary JSON here instead of stdout")

    p = sub.add_parser("simulate", help="generate a PALOG graph file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite)
    p.add_argument("--tau", type=int)
    p.add_argument("--seed", type=_master_seed, required=True, help="64-bit unsigned master seed")
    p.add_argument("--out", required=True, help="PALOG destination path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("loglik", help="exact log-likelihood of a PALOG graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite)
    p.add_argument("--tau", type=int)
    add_common_out(p)
    p.set_defaults(func=_cmd_loglik)

    p = sub.add_parser("lr", help="log likelihood-ratio step vs constant")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite, required=True)
    p.add_argument("--method", choices=["tail", "sequential", "both"], default="tail")
    add_common_out(p)
    p.set_defaults(func=_cmd_lr)

    p = sub.add_parser("mle", help="two-window maximum-likelihood estimates")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--level", type=_level, default=0.95)
    add_common_out(p)
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("test", help="LR test: one graph, or a seeded campaign")
    p.add_argument("--mode", choices=["known", "plugin"], default="known")
    p.add_argument("--graph")
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--delta0", type=_finite)
    p.add_argument("--delta1", type=_finite)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--replicates", type=_replicate_count)
    p.add_argument("--seed", type=_master_seed)
    p.add_argument("--threads", type=_thread_count)
    p.add_argument("--csv", help="per-replicate table destination")
    add_common_out(p)
    p.set_defaults(func=_cmd_test)

    p = sub.add_parser("localize", help="change-point localization sweep")
    p.add_argument("--graph")
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--tau", type=int)
    p.add_argument("--replicates", type=_replicate_count)
    p.add_argument("--seed", type=_master_seed)
    p.add_argument("--threads", type=_thread_count)
    p.add_argument("--csv", help="profile or per-replicate table destination")
    add_common_out(p)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("reduce", help="relabelable set, event and permuted LR of one graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--tau-prime", type=int, required=True, dest="tau_prime")
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite, required=True)
    add_common_out(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("contiguity", help="Monte Carlo probes of the reduction bounds")
    p.add_argument("--probe", choices=["second-moment", "event-bn", "martingale"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite, required=True)
    p.add_argument("--tau", type=int)
    p.add_argument("--tau-prime", type=int, required=True, dest="tau_prime")
    p.add_argument("--alpha", type=_finite, default=1.0)
    p.add_argument("--replicates", type=_replicate_count, required=True)
    p.add_argument("--seed", type=_master_seed, required=True)
    p.add_argument("--c1", type=_finite, default=1.0)
    p.add_argument("--c2", type=_finite, default=1.0)
    p.add_argument("--threads", type=_thread_count)
    p.add_argument("--csv", help="per-replicate table destination")
    add_common_out(p)
    p.set_defaults(func=_cmd_contiguity)

    p = sub.add_parser("theory", help="limiting degree law, rates, variance scales")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta0", type=_finite, required=True)
    p.add_argument("--delta1", type=_finite)
    p.add_argument("--kmax", type=int, default=20)
    add_common_out(p)
    p.set_defaults(func=_cmd_theory)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        result, seed, csv_rows = args.func(args)
    except _UsageError as exc:
        return _fail("usage", exc, 2)
    except OSError as exc:
        return _fail("io", exc, 2)
    except errors.PacpError as exc:
        return _fail(type(exc).__name__, exc, 3)
    payload = {
        "version": OUTPUT_VERSION,
        "command": args.command,
        "config_echo": _config_echo(args),
        "seed": seed,
        "result": result,
    }
    # simulate's --out is the graph file; every other command's is the summary
    _emit(payload, None if args.command == "simulate" else args.out)
    if csv_rows is not None and getattr(args, "csv", None):
        fieldnames, rows = csv_rows
        _write_csv(args.csv, fieldnames, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
