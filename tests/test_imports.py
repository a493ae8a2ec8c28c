"""Import weight of the packages the paper's experiments load.

Simulation, PEX, training and the baselines must not drag in the
reporting stack (:mod:`repro.analysis`, ``scipy.stats``) or the YAML
parser: every benchmark and training run pays for what these packages
import.  Only the LVS check of :mod:`repro.pex` needs ``networkx``, so
everything short of that package leaves it unloaded too.  The checks run
in a fresh interpreter, because the test process has already imported
everything.
"""

import os
import pathlib
import subprocess
import sys

import repro

PACKAGES = ("repro", "repro.core", "repro.pex", "repro.topologies",
            "repro.baselines", "repro.rl", "repro.sim")
HEAVY = ("scipy.stats", "repro.analysis", "yaml")


#: Packages that must not load networkx (everything but repro.pex).
WITHOUT_PEX = ("repro", "repro.sim", "repro.topologies", "repro.core",
               "repro.rl", "repro.baselines", "repro.cli")


def _loaded_after_import(packages, modules) -> str:
    """Which of ``modules`` a fresh interpreter has loaded after
    importing ``packages``, as the printed sorted list."""
    code = (f"import sys\nimport {', '.join(packages)}\n"
            f"print(sorted(m for m in {modules!r} if m in sys.modules))")
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_core_packages_leave_reporting_modules_unloaded():
    assert _loaded_after_import(PACKAGES, HEAVY) == "[]"


def test_packages_short_of_pex_leave_networkx_unloaded():
    assert _loaded_after_import(WITHOUT_PEX, ("networkx",)) == "[]"
