"""Import weight of the packages the paper's experiments load.

Simulation, PEX, training and the baselines must not drag in the
reporting stack (:mod:`repro.analysis`, ``scipy.stats``) or the YAML
parser: every benchmark and training run pays for what these packages
import.  The check runs in a fresh interpreter, because the test
process has already imported everything.
"""

import os
import pathlib
import subprocess
import sys

import repro

PACKAGES = ("repro", "repro.core", "repro.pex", "repro.topologies",
            "repro.baselines", "repro.rl", "repro.sim")
HEAVY = ("scipy.stats", "repro.analysis", "yaml")


def test_core_packages_leave_reporting_modules_unloaded():
    code = (f"import sys\nimport {', '.join(PACKAGES)}\n"
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
