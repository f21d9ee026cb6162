import json
import math
import os
import subprocess
from pathlib import Path
import sys
import time

import pytest

from pacp import DeltaProfile, format_palog, load_palog, simulate
from pacp.cli import main
from pacp.likelihood import log_likelihood


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_simulate_writes_palog_and_reproduces_bytes(tmp_path, capsys):
    out = tmp_path / "g.palog"
    argv = ["simulate", "--n", "5", "--m", "1", "--delta0", "0", "--seed", "7", "--out", str(out)]
    code, payload = run_cli(argv, capsys)
    assert code == 0
    assert payload["version"] == "v1"
    assert payload["result"]["n"] == 5
    first = out.read_bytes()
    code, _ = run_cli(argv, capsys)
    assert code == 0
    assert out.read_bytes() == first
    g = load_palog(out)
    assert g == simulate(5, 1, DeltaProfile.constant(0.0), 7)


def test_round_trip_loglik_matches_in_memory(tmp_path, capsys):
    out = tmp_path / "g.palog"
    run_cli(
        ["simulate", "--n", "40", "--m", "2", "--delta0", "0.5", "--delta1", "2", "--tau", "20",
         "--seed", "3", "--out", str(out)],
        capsys,
    )
    code, payload = run_cli(
        ["loglik", "--graph", str(out), "--delta0", "0.5", "--delta1", "2", "--tau", "20"],
        capsys,
    )
    assert code == 0
    g = load_palog(out)
    expected = log_likelihood(g, DeltaProfile.step(0.5, 2.0, 20)).value
    assert payload["result"]["loglik"] == expected


def test_lr_worked_example(tmp_path, capsys):
    p = tmp_path / "path3.palog"
    p.write_text("PALOG v1 n=3 m=1\n2 0\n3 0\n")
    code, payload = run_cli(
        ["lr", "--graph", str(p), "--tau", "2", "--delta0", "0", "--delta1", "1"], capsys
    )
    assert code == 0
    assert payload["result"]["log_lr"] == pytest.approx(math.log(6 / 7), abs=1e-7)


def test_theory_fields(capsys):
    code, payload = run_cli(
        ["theory", "--m", "1", "--delta0", "0", "--delta1", "2", "--kmax", "50"], capsys
    )
    assert code == 0
    res = payload["result"]
    assert res["p"]["1"] == pytest.approx(2 / 3)
    assert res["p"]["2"] == pytest.approx(1 / 6)
    for key in ("ell_inf_0", "ell_inf_1", "nu0", "nu1"):
        assert res[key] > 0


def test_theory_past_the_series_limit_fails_fast(capsys):
    # delta1 = 1e9 needs more than 1e8 series terms at the far endpoint: the
    # rate refuses before summing any node, as a structured DomainError
    t0 = time.perf_counter()
    code, payload = run_cli(
        ["theory", "--m", "1", "--delta0", "0", "--delta1", "1e9", "--kmax", "5"], capsys
    )
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and payload["error"]["type"] == "DomainError"
    assert "1e8 series terms" in payload["error"]["message"]


def test_mle_and_localize_single_graph(tmp_path, capsys):
    out = tmp_path / "g.palog"
    run_cli(
        ["simulate", "--n", "2000", "--m", "1", "--delta0", "0", "--delta1", "3", "--tau",
         "1500", "--seed", "9", "--out", str(out)],
        capsys,
    )
    code, payload = run_cli(["mle", "--graph", str(out), "--tau", "1500"], capsys)
    assert code == 0
    assert payload["result"]["status_pre"] == "converged"
    assert abs(payload["result"]["delta1_hat"] - 3.0) < 1.5

    csv_path = tmp_path / "prof.csv"
    code, payload = run_cli(
        ["localize", "--graph", str(out), "--delta0", "0", "--delta1", "3", "--csv",
         str(csv_path)],
        capsys,
    )
    assert code == 0
    assert abs(payload["result"]["tau_hat"] - 1500) < 300
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tau,loglik"
    assert len(lines) == 2002


def test_exit_codes_table(tmp_path, capsys):
    # bad arguments -> 2
    code, payload = run_cli(["simulate", "--n", "5", "--m", "1", "--delta0", "0"], capsys)
    assert code == 2 and "error" in payload
    code, payload = run_cli(
        ["simulate", "--n", "5", "--m", "1", "--delta0", "-3", "--seed", "1", "--out",
         str(tmp_path / "x.palog")],
        capsys,
    )
    assert code == 2 and payload["error"]["type"] == "usage"
    code, payload = run_cli(
        ["test", "--mode", "known", "--tau", "0", "--n", "5", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--replicates", "2", "--seed", "1"],
        capsys,
    )
    assert code == 2
    for probe in ("second-moment", "event-bn"):
        code, payload = run_cli(
            ["contiguity", "--probe", probe, "--n", "100", "--m", "1", "--delta0", "0",
             "--delta1", "1", "--tau-prime", "50", "--replicates", "2", "--seed", "1"],
            capsys,
        )
        assert code == 2 and payload["error"]["type"] == "usage"
    campaigns = (
        ["test", "--mode", "plugin", "--tau", "3", "--n", "5", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--seed", "1"],
        ["localize", "--tau", "3", "--n", "5", "--m", "1", "--delta0", "0", "--delta1", "1",
         "--seed", "1"],
        ["contiguity", "--probe", "martingale", "--n", "100", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--tau-prime", "50", "--seed", "1"],
    )
    for argv in campaigns:
        for count in ("0", "-2"):
            code, payload = run_cli(argv + ["--replicates", count], capsys)
            assert code == 2 and payload["error"]["type"] == "usage", (argv[0], count)
            assert "replicate" in payload["error"]["message"]

    # domain errors from the library -> 3
    p = tmp_path / "tiny.palog"
    p.write_text("PALOG v1 n=3 m=1\n2 0\n3 0\n")
    code, payload = run_cli(
        ["reduce", "--graph", str(p), "--tau", "2", "--tau-prime", "0", "--delta0", "0",
         "--delta1", "1"],
        capsys,
    )
    assert code == 3 and payload["error"]["type"] == "DomainError"
    code, payload = run_cli(
        ["contiguity", "--probe", "second-moment", "--n", "100", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--tau", "96", "--tau-prime", "2", "--replicates", "2", "--seed", "1"],
        capsys,
    )
    assert code == 3 and payload["error"]["type"] == "PreconditionViolated"
    code, payload = run_cli(["test", "--graph", str(p), "--mode", "plugin", "--tau", "2"], capsys)
    assert code == 3 and payload["error"]["type"] == "NoInteriorRoot"

    # malformed graph file -> 3
    bad = tmp_path / "bad.palog"
    bad.write_text("PALOG v1 n=3 m=1\n2 0\n3 7\n")
    code, payload = run_cli(["loglik", "--graph", str(bad), "--delta0", "0"], capsys)
    assert code == 3 and payload["error"]["type"] == "TargetTooLarge"
    binary = tmp_path / "binary.palog"
    binary.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)) * 8)
    code, payload = run_cli(["mle", "--graph", str(binary), "--tau", "2"], capsys)
    assert code == 3 and payload["error"]["type"] == "PalogError"

    # unreadable input path -> 2
    code, payload = run_cli(
        ["loglik", "--graph", str(tmp_path / "nope.palog"), "--delta0", "0"], capsys
    )
    assert code == 2 and payload["error"]["type"] == "io"

    # abstentions inside a campaign are data, not errors -> 0
    code, payload = run_cli(
        ["test", "--mode", "plugin", "--tau", "3", "--n", "5", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--replicates", "3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert payload["result"]["abstain_h0"] >= 0.0


_SEEDED = {
    "simulate": ["simulate", "--n", "5", "--m", "1", "--delta0", "0", "--out", "g.palog"],
    "test": ["test", "--mode", "known", "--n", "50", "--m", "1", "--tau", "40", "--delta0",
             "0", "--delta1", "1", "--replicates", "2"],
    "localize": ["localize", "--n", "50", "--m", "1", "--tau", "40", "--delta0", "0",
                 "--delta1", "1", "--replicates", "2"],
    "contiguity": ["contiguity", "--probe", "martingale", "--n", "50", "--m", "1",
                   "--delta0", "0", "--delta1", "1", "--tau-prime", "25", "--replicates", "2"],
}


@pytest.mark.parametrize("command", sorted(_SEEDED))
def test_negative_seed_is_a_usage_error(command, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, payload = run_cli(_SEEDED[command] + ["--seed", "-1"], capsys)
    assert code == 2 and payload["error"]["type"] == "usage"
    assert "non-negative" in payload["error"]["message"]
    assert not (tmp_path / "g.palog").exists()
    code, payload = run_cli(_SEEDED[command] + ["--seed", "0"], capsys)
    assert code == 0 and payload["seed"] == 0


def test_level_outside_unit_interval_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "g.palog"
    simulate_argv = ["simulate", "--n", "200", "--m", "1", "--delta0", "0", "--delta1", "2",
                     "--tau", "150", "--seed", "4", "--out", str(out)]
    assert run_cli(simulate_argv, capsys)[0] == 0
    for level in ("1.5", "1", "0", "-0.2", "nan"):
        code, payload = run_cli(
            ["mle", "--graph", str(out), "--tau", "150", "--level", level], capsys
        )
        assert code == 2 and payload["error"]["type"] == "usage", level
        assert "(0, 1)" in payload["error"]["message"]
    code, payload = run_cli(["mle", "--graph", str(out), "--tau", "150", "--level", "0.9"], capsys)
    assert code == 0 and payload["result"]["level"] == 0.9


def test_localize_campaign_checks_tau_like_simulate(capsys):
    argv = ["localize", "--n", "50", "--m", "1", "--delta0", "0", "--delta1", "1",
            "--replicates", "2", "--seed", "1", "--threads", "1"]
    for tau in ("80", "51", "-1"):
        code, payload = run_cli(argv + ["--tau", tau], capsys)
        assert code == 2 and payload["error"]["type"] == "usage", tau
        assert "0..50" in payload["error"]["message"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (_SEEDED["localize"] + ["--seed", "abc"], "argument --seed: the seed must be an integer"),
        (_SEEDED["test"][:-2] + ["--replicates", "2.5", "--seed", "1"],
         "argument --replicates: the replicate count must be an integer"),
        (["mle", "--graph", "g.palog", "--tau", "2", "--level", "high"],
         "argument --level: the level must be a number"),
        (["lr", "--graph", "g.palog", "--tau", "2", "--delta0", "zero", "--delta1", "1"],
         "argument --delta0: expected a finite number, got 'zero'"),
        (["lr", "--graph", "g.palog", "--tau", "2", "--delta0", "0", "--delta1=-inf"],
         "argument --delta1: expected a finite number, got '-inf'"),
        (["reduce", "--graph", "g.palog", "--tau", "2", "--tau-prime", "1", "--alpha", "nan",
          "--delta0", "0", "--delta1", "1"],
         "argument --alpha: expected a finite number, got 'nan'"),
        (_SEEDED["contiguity"] + ["--seed", "1", "--c1", "inf"],
         "argument --c1: expected a finite number, got 'inf'"),
        (_SEEDED["contiguity"] + ["--seed", "1", "--c2", "NaN"],
         "argument --c2: expected a finite number, got 'NaN'"),
        (_SEEDED["test"] + ["--seed", "1", "--threads", "-3"],
         "argument --threads: need at least one thread, got -3"),
        (_SEEDED["localize"] + ["--seed", "1", "--threads", "0"],
         "argument --threads: need at least one thread, got 0"),
        (_SEEDED["localize"] + ["--seed", "1", "--threads", "two"],
         "argument --threads: the thread count must be an integer"),
    ],
)
def test_bad_numbers_are_readable_usage_errors(argv, message, capsys):
    code, payload = run_cli(argv, capsys)
    assert code == 2 and payload["error"]["type"] == "usage"
    assert payload["error"]["message"].startswith(message)


def test_parameters_outside_the_model_domain_are_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    g = tmp_path / "g.palog"
    g.write_text(format_palog(simulate(30, 2, DeltaProfile.constant(0.5), 12)))
    cases = (
        (["theory", "--m", "0", "--delta0", "1"], "--m must be an integer >= 1, got 0"),
        (["theory", "--m", "-1", "--delta0", "1", "--delta1", "2"], "--m must be an integer >= 1"),
        (["theory", "--m", "2", "--delta0", "1", "--delta1", "-2"],
         "--delta1 must be finite and > -m = -2, got -2.0"),
        (["lr", "--graph", str(g), "--tau", "20", "--delta0", "nan", "--delta1", "1"],
         "argument --delta0: expected a finite number, got 'nan'"),
        (["simulate", "--n", "5", "--m", "0", "--delta0", "0", "--seed", "1", "--out", "x.palog"],
         "--m must be an integer >= 1, got 0"),
        (["simulate", "--n", "5", "--m", "1", "--delta0", "inf", "--seed", "1", "--out",
          "x.palog"], "argument --delta0: expected a finite number, got 'inf'"),
        (["test", "--graph", str(g), "--mode", "plugin", "--tau", "20", "--delta0", "-3"],
         "--delta0 must be finite and > -m = -2, got -3.0"),
    )
    for argv, message in cases:
        code, payload = run_cli(argv, capsys)
        assert code == 2 and payload["error"]["type"] == "usage", argv
        assert payload["error"]["message"].startswith(message), payload
    assert not (tmp_path / "x.palog").exists()


def _strict_json(text):
    def refuse(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=refuse)


def test_summaries_are_strict_json_with_null_for_non_finite(capsys):
    probes = (
        ["contiguity", "--probe", "martingale", "--n", "60", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--tau-prime", "30", "--replicates", "1", "--seed", "1"],
        ["contiguity", "--probe", "second-moment", "--n", "200", "--m", "1", "--delta0", "0",
         "--delta1", "1", "--tau", "175", "--tau-prime", "100", "--alpha", "0.5",
         "--replicates", "1", "--seed", "1"],
    )
    payloads = []
    for argv in probes:
        assert main(argv) == 0
        payloads.append(_strict_json(capsys.readouterr().out)["result"])
    martingale, second = payloads
    assert martingale["stderr"] is None and martingale["auxiliaries"]["sd_z"] is None
    assert second["stderr"] is None and second["auxiliaries"]["stderr_y_bn"] is None
    assert second["auxiliaries"]["bound_log_rhs"] >= 700
    assert second["auxiliaries"]["bound_rhs"] is None


def test_overflowing_likelihood_ratios_print_null(tmp_path, capsys):
    # a permuted log LR past 709 and a second-moment bound past float range
    graph = str(tmp_path / "g.palog")
    assert main(["simulate", "--n", "20000", "--m", "3", "--delta0", "0", "--delta1", "50",
                 "--tau", "10000", "--seed", "3", "--out", graph]) == 0
    capsys.readouterr()
    assert main(["reduce", "--graph", graph, "--tau", "10000", "--tau-prime", "5000",
                 "--delta0", "0", "--delta1", "50"]) == 0
    reduced = _strict_json(capsys.readouterr().out)["result"]
    assert reduced["log_y"] > 709 and reduced["y"] is None
    assert main(["contiguity", "--probe", "second-moment", "--n", "200", "--m", "1",
                 "--delta0", "0", "--delta1", "1", "--tau", "175", "--tau-prime", "100",
                 "--alpha", "0.5", "--replicates", "4", "--seed", "1", "--c2", "1000"]) == 0
    bound = _strict_json(capsys.readouterr().out)["result"]["auxiliaries"]
    assert bound["bound_log_rhs"] is None and bound["bound_rhs"] is None


def test_martingale_probe_tau_prime_past_n_is_a_domain_error(capsys):
    for tau_prime in ("50", "60"):
        code, payload = run_cli(
            ["contiguity", "--probe", "martingale", "--n", "50", "--m", "1", "--delta0", "0",
             "--delta1", "1", "--tau-prime", tau_prime, "--replicates", "2", "--seed", "1"],
            capsys,
        )
        assert code == 3 and payload["error"]["type"] == "PreconditionViolated"
        assert "tau_prime < n" in payload["error"]["message"]


def test_martingale_probe_at_extreme_weight_ratios(capsys):
    # m |log((2m+d1)/(2m+d0))| in the thousands: where the mean weight m_n
    # underflows to 0 every weight reads 0 and the tails compare nothing, and
    # where the Azuma rate underflows to 0 there is no default x grid; both
    # are a structured error (exit 3)
    base = ["contiguity", "--probe", "martingale", "--n", "200", "--m", "1000",
            "--replicates", "2", "--seed", "1"]
    code, payload = run_cli(
        base + ["--delta0", "1000", "--delta1", "-999", "--tau-prime", "100"], capsys
    )
    assert code == 3 and payload["error"]["type"] == "UnsupportedRegime"
    assert "m_n = 0.0" in payload["error"]["message"]
    code, payload = run_cli(
        base + ["--delta0", "-999", "--delta1", "1000000", "--tau-prime", "10"], capsys
    )
    assert code == 3 and payload["error"]["type"] == "UnsupportedRegime"


def test_single_graph_test_checks_its_arguments_like_lr(tmp_path, capsys):
    p = tmp_path / "g.palog"
    g = simulate(30, 2, DeltaProfile.constant(0.5), 12)
    p.write_text(format_palog(g))
    known = ["test", "--graph", str(p), "--mode", "known"]
    for extra in (
        ["--tau", "20", "--delta0", "-5", "--delta1", "1"],
        ["--tau", "20", "--delta0", "0", "--delta1", "-2"],
        ["--tau", "0", "--delta0", "0", "--delta1", "1"],
        ["--tau", "31", "--delta0", "0", "--delta1", "1"],
    ):
        code, payload = run_cli(known + extra, capsys)
        assert code == 2 and payload["error"]["type"] == "usage", extra
        lr_code, _ = run_cli(["lr", "--graph", str(p)] + extra, capsys)
        assert lr_code == 2, extra
    code, payload = run_cli(known + ["--tau", "30", "--delta0", "0", "--delta1", "1"], capsys)
    assert code == 0 and payload["result"]["statistic"] == 0.0
    plugin = ["test", "--graph", str(p), "--mode", "plugin"]
    for tau in ("0", "30", "31"):
        code, payload = run_cli(plugin + ["--tau", tau], capsys)
        assert code == 2 and payload["error"]["type"] == "usage", tau
        assert "1..29" in payload["error"]["message"]


def test_campaign_summary_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "reps.csv"
    code, payload = run_cli(
        ["test", "--mode", "known", "--n", "300", "--m", "1", "--tau", "250", "--delta0", "0",
         "--delta1", "2", "--replicates", "30", "--seed", "11", "--threads", "1", "--csv",
         str(csv_path)],
        capsys,
    )
    assert code == 0
    res = payload["result"]
    assert res["replicates"] == 30
    assert 0 <= res["sum_errors"] <= 1
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "replicate,hypothesis,statistic,reject,abstain"
    assert len(lines) == 61


def test_campaign_bytes_identical_across_thread_counts(tmp_path):
    # spawn real processes so the parallel path is exercised end to end; 49
    # replicates split unevenly over 2 and 3 workers, and the chunks of 1 and
    # 2 workers are large enough to simulate in batches while those of 3 are not
    common = ["--n", "200", "--m", "1", "--tau", "150", "--delta0", "0", "--delta1", "2",
              "--replicates", "49", "--seed", "5", "--out", "summary.json", "--csv", "reps.csv"]
    commands = {
        "known": ["test", "--mode", "known"],
        "plugin": ["test", "--mode", "plugin"],
        "localize": ["localize"],
    }
    env = {k: v for k, v in os.environ.items() if k != "PACP_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for name, command in commands.items():
        outputs = []
        for threads in (1, 2, 3):
            d = tmp_path / f"{name}-{threads}"
            d.mkdir()
            cmd = [sys.executable, "-m", "pacp.cli", *command, *common, "--threads", str(threads)]
            proc = subprocess.run(cmd, cwd=d, capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append((d / "summary.json").read_bytes() + (d / "reps.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name


def test_threads_env_override(tmp_path, monkeypatch, capsys):
    from pacp.campaign import resolve_threads

    monkeypatch.setenv("PACP_THREADS", "2")
    assert resolve_threads(None) == 2
    assert resolve_threads(5) == 2  # the environment overrides the flag
    monkeypatch.setenv("PACP_THREADS", "junk")
    assert resolve_threads(7) == 7
    monkeypatch.delenv("PACP_THREADS")
    assert resolve_threads(None) >= 1

    # a campaign driven purely by the env var still reproduces the flag run
    out1 = tmp_path / "e1.json"
    out2 = tmp_path / "e2.json"
    base = ["test", "--mode", "known", "--n", "150", "--m", "1", "--tau", "100", "--delta0",
            "0", "--delta1", "2", "--replicates", "8", "--seed", "3"]
    code, _ = run_cli(base + ["--threads", "1", "--out", str(out1)], capsys)
    assert code == 0
    monkeypatch.setenv("PACP_THREADS", "2")
    code, _ = run_cli(base + ["--out", str(out2)], capsys)
    assert code == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    assert a["result"] == b["result"]


def test_replicates_one_equals_direct_run(capsys):
    code, payload = run_cli(
        ["test", "--mode", "known", "--n", "100", "--m", "1", "--tau", "80", "--delta0", "0",
         "--delta1", "2", "--replicates", "1", "--seed", "4"],
        capsys,
    )
    assert code == 0
    from pacp.cli import _test_replicates, summarize_test_campaign

    direct = summarize_test_campaign(_test_replicates([0], 100, 1, 80, 0.0, 2.0, "known", 4))
    res = dict(payload["result"])
    res.pop("mode")
    assert res == direct


def test_config_echo_replays(tmp_path, capsys):
    out1 = tmp_path / "g1.palog"
    argv = ["simulate", "--n", "25", "--m", "2", "--delta0", "1", "--seed", "21", "--out",
            str(out1)]
    code, payload = run_cli(argv, capsys)
    assert code == 0
    echo = payload["config_echo"]
    out2 = tmp_path / "g2.palog"
    replay = ["simulate", "--n", str(echo["n"]), "--m", str(echo["m"]), "--delta0",
              str(echo["delta0"]), "--seed", str(payload["seed"]), "--out", str(out2)]
    code, _ = run_cli(replay, capsys)
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
