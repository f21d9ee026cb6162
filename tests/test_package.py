import importlib
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pacp


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks star imports
    modules = [pacp] + [
        importlib.import_module(f"pacp.{info.name}") for info in pkgutil.iter_modules(pacp.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


_SCIPY_PROBE = """
import json, sys
from pacp.cli import main
code = main(sys.argv[1:]) if len(sys.argv) > 1 else 0
loaded = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
print(json.dumps({"code": code, "scipy": loaded}))
"""


def _cli_in_fresh_interpreter(argv, tmp_path):
    env = dict(os.environ)
    env.pop("PACP_THREADS", None)  # it would override --threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(pacp.__file__).resolve().parents[1]), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_and_plugin_campaign_load_no_scipy(tmp_path):
    # the package runs on numpy alone: scipy is a test dependency, and
    # scipy.special would cost most of a cold start
    assert _cli_in_fresh_interpreter([], tmp_path) == {"code": 0, "scipy": []}
    theory = ["theory", "--m", "1", "--delta0", "0", "--delta1", "2", "--out", "theory.json"]
    assert _cli_in_fresh_interpreter(theory, tmp_path) == {"code": 0, "scipy": []}
    assert json.loads((tmp_path / "theory.json").read_text())["result"]["ell_inf_1"] > 0
    campaign = ["test", "--mode", "plugin", "--n", "300", "--m", "1", "--tau", "200",
                "--delta0", "0", "--delta1", "2", "--replicates", "4", "--seed", "5",
                "--threads", "1", "--out", "summary.json", "--csv", "rows.csv"]
    assert _cli_in_fresh_interpreter(campaign, tmp_path) == {"code": 0, "scipy": []}
    assert json.loads((tmp_path / "summary.json").read_text())["result"]["replicates"] == 4

    simulate = ["simulate", "--n", "50", "--m", "2", "--delta0", "0.5", "--seed", "3",
                "--out", "g.palog"]
    assert _cli_in_fresh_interpreter(simulate, tmp_path)["scipy"] == []
    loglik = _cli_in_fresh_interpreter(
        ["loglik", "--graph", "g.palog", "--delta0", "0.5", "--out", "ll.json"], tmp_path
    )
    assert loglik == {"code": 0, "scipy": []}
    assert math.isfinite(json.loads((tmp_path / "ll.json").read_text())["result"]["loglik"])
    localize = ["localize", "--graph", "g.palog", "--delta0", "0.5", "--delta1", "2",
                "--out", "loc.json"]
    assert _cli_in_fresh_interpreter(localize, tmp_path) == {"code": 0, "scipy": []}
    assert 0 <= json.loads((tmp_path / "loc.json").read_text())["result"]["tau_hat"] <= 50
