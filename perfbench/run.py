"""pacp benchmark: one workload per process, its metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or ``all`` (the default),
which runs each workload in its own child process.  With ``--trace 0`` the
last line of standard output carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The
program under test is imported from ``./src``; without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

SPEC_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "BENCHMARK.json")
SETUP_REPEATS = 3


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    p.add_argument("--workload", choices=names + ["all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


class _OpFailed:
    def __init__(self, reason: str):
        self.reason = reason


def measure(wl, *, seconds=None, rounds=None, first_round=0, tracer=None):
    """Run whole rounds until the operations' own time reaches ``seconds``,
    or for exactly ``rounds`` rounds.  Checks run between rounds, untimed
    and untraced.  Returns (operation durations, operations failed)."""
    durations: list[float] = []
    failed = 0

    def timed(fn, *args, **kwargs):
        if tracer:
            tracer.begin_op()
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:  # an operation that raises counts as failed
            out = _OpFailed(traceback.format_exc())
        finally:
            durations.append(time.perf_counter() - t0)
            if tracer:
                tracer.active = False
        return out

    k = first_round
    while (sum(durations) < seconds) if rounds is None else (k < first_round + rounds):
        for out in wl.round(k, timed):
            if isinstance(out, _OpFailed):
                problem = out.reason
            else:
                try:
                    problem = wl.check_op(out)
                except Exception:
                    problem = traceback.format_exc()
            if problem:
                failed += 1
                print(f"{wl.name}: operation failed: {problem}", file=sys.stderr)
        k += 1
    return durations, failed


def _run_child(cmd, env) -> None:
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)


def _import_seconds(env) -> float:
    code = "import time; t = time.perf_counter(); import pacp.cli; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    return float(out.stdout.strip())


def _peak_rss_mb(which: str) -> float:
    who = resource.RUSAGE_CHILDREN if which == "children" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_one(args, spec) -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "pacp", "__init__.py")):
        print("run.py: ./src/pacp not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.environ.pop("PACP_THREADS", None)  # the CLI's thread count is set per call
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    import workloads

    os.makedirs(workloads.RESULTS, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, env, in_process=bool(args.trace))

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _run_child([sys.executable, *wl.setup_probe], env)
        wl.prepare()
        setups.append(time.perf_counter() - t0)

    if not args.trace:
        durations, failed = measure(wl, seconds=args.seconds)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(durations) / sum(durations),
            "op_ms_p50": statistics.median(durations) * 1e3,
            "peak_rss_mb": _peak_rss_mb(wl.rss_of),
        }
    else:
        from tracing import Tracer

        layer = {
            "campaign.pool_startup_s": workloads.pool_startup_s(),
            "cli.import_s": _import_seconds(env),
        }
        base, failed = measure(wl, rounds=wl.trace_rounds)
        layer.update(wl.layer_extras(base))
        tracer = Tracer()
        tracer.install()
        try:
            durations, traced_failed = measure(
                wl, rounds=wl.trace_rounds, first_round=wl.trace_rounds, tracer=tracer
            )
        finally:
            tracer.uninstall()
        failed += traced_failed
        layer.update(tracer.summary(sum(durations)))
        untraced_rate = len(base) / sum(base)
        traced_rate = len(durations) / sum(durations)
        layer["trace.untraced_ops_per_s"] = untraced_rate
        layer["trace.traced_ops_per_s"] = traced_rate
        layer["trace.overhead"] = untraced_rate / traced_rate - 1.0
        durations = base + durations
        tracer.dump(
            os.path.join(workloads.RESULTS, f"spans-{wl.name}-seed{args.seed}.json"),
            {"workload": wl.name, "seed": args.seed, "rounds": wl.trace_rounds},
        )
        metrics = layer

    declared = spec["per_layer" if args.trace else "end_to_end"]
    mismatch = set(metrics) ^ {m["name"] for m in declared}
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    problems = wl.check_run()
    for problem in problems:
        print(f"{wl.name}: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(durations),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    path = os.path.join(
        workloads.RESULTS, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


def run_all(args, spec) -> int:
    """Every workload in its own child process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    args = _parse(argv, spec)
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
