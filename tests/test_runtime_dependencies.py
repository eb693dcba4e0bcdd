"""numpy is the only runtime dependency: the system runs without networkx.

networkx stays a test-only dependency (the graph oracles in
``tests/test_design_index.py``); nothing under ``src/`` may import it.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
CHECKPOINT = ROOT / "tests" / ".cache" / "model_e30_d20_s1.npz"

SCRIPT = """
import sys

sys.modules["networkx"] = None  # every networkx import now raises ImportError

import repro, repro.api, repro.lint
from repro.api import SessionConfig, VeriBugSession
from repro.designs import design_info
from repro.lint import lint_module
from repro.verilog import parse_module

config = SessionConfig().with_campaign_defaults(n_traces=6, min_correct_traces=4)
with VeriBugSession.from_checkpoint(sys.argv[1], config) as session:
    target = design_info("wb_mux_2").targets[0]
    handle = session.campaign(
        "wb_mux_2", target, plan={"negation": 1, "operation": 1}, n_cycles=8, seed=29
    )
    updates = list(handle.stream())
assert updates, "the campaign streamed no outcome"

loop = parse_module(
    "module loop(b, y); input b; output y; wire w;"
    " assign w = y ^ b; assign y = w; endmodule"
)
rules = [diag.rule for diag in lint_module(loop).findings]
assert "cycle.comb" in rules, rules

loaded = [name for name, mod in sys.modules.items()
          if name.split(".")[0] == "networkx" and mod is not None]
assert not loaded, loaded
print("campaign updates:", len(updates))
"""


def test_system_runs_with_networkx_unimportable():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(CHECKPOINT)],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "campaign updates:" in result.stdout
