"""Shared pieces of the benchmark: stored inputs, output checks, metadata.

Everything here runs after :func:`perfbench.run.prepare_environment` has
cleared the ``REPRO_*`` knobs and pinned the BLAS thread count, so the
imports below see the program's defaults.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = pathlib.Path(__file__).resolve().parent / "data"
MANIFEST = DATA / "manifest.json"
REFERENCE = DATA / "reference.json"


class BenchError(RuntimeError):
    """A stored input or an output failed its check."""


def sha256_file(path: pathlib.Path) -> str:
    return hashlib.sha256(pathlib.Path(path).read_bytes()).hexdigest()


def load_manifest(path: pathlib.Path = MANIFEST) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def load_policy(name: str, manifest: dict | None = None,
                data_dir: pathlib.Path = DATA):
    """Load a stored policy after checking its sha256 against the manifest."""
    from repro.rl.policy import ActorCritic

    manifest = manifest if manifest is not None else load_manifest()
    entry = manifest["policies"][name]
    path = data_dir / entry["file"]
    digest = sha256_file(path)
    if digest != entry["sha256"]:
        raise BenchError(f"policy {path.name} has sha256 {digest}, "
                         f"manifest expects {entry['sha256']}")
    return ActorCritic.load(str(path))


# -- output correctness ------------------------------------------------------
def probe_designs(space, n_random: int, seed: int) -> list[np.ndarray]:
    """The grid centre plus ``n_random`` uniform designs from ``seed``."""
    rng = np.random.default_rng(seed)
    return [space.center.copy()] + [space.sample(rng)
                                    for _ in range(n_random)]


def evaluate_probes(simulator, designs) -> list[dict[str, float]]:
    """Specs of each design, each solved without trajectory warm state."""
    rows = []
    for design in designs:
        simulator.reset_warm_start()
        rows.append(dict(simulator.evaluate(np.asarray(design))))
    return rows


def compare_rows(actual: list[dict], reference: list[dict],
                 rtol: float) -> list[str]:
    """Human-readable mismatches between spec rows (empty when all agree).

    Two values agree when ``|a - b| <= rtol * max(|a|, |b|)``; a zero in
    the reference must be matched exactly.
    """
    problems = []
    if len(actual) != len(reference):
        return [f"{len(actual)} rows, reference has {len(reference)}"]
    for i, (got, want) in enumerate(zip(actual, reference)):
        if set(got) != set(want):
            problems.append(f"row {i}: specs {sorted(got)} != {sorted(want)}")
            continue
        for name, w in want.items():
            g = got[name]
            if not abs(g - w) <= rtol * max(abs(g), abs(w)):
                problems.append(f"row {i} {name}: {g!r} vs reference {w!r}")
    return problems


def check_reference(key: str, simulator,
                    path: pathlib.Path = REFERENCE) -> list[str]:
    """Evaluate the stored probe set of ``key`` and compare with its rows."""
    entry = json.loads(pathlib.Path(path).read_text())[key]
    actual = evaluate_probes(simulator, entry["designs"])
    return compare_rows(actual, entry["specs"], entry["rtol"])


# -- run metadata ----------------------------------------------------------------
def _git_sha(root: pathlib.Path) -> str | None:
    """HEAD commit read from ``.git`` files (None outside a repository)."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def source_digest(root: pathlib.Path = ROOT) -> str:
    """sha256 over the program's source files (identifies a checkout that
    is not a git repository)."""
    h = hashlib.sha256()
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".yml"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def run_metadata(workload: str, seed: int, cleared: dict[str, str],
                 blas_threads: str) -> dict:
    """Everything needed to tell two runs' conditions apart."""
    import scipy

    from repro.rl.async_env import async_enabled
    from repro.sim import engine
    from repro.sim.parallel import shard_count
    from repro.sim.store import get_store

    store = get_store()
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads,
        "platform": platform.platform(),
        "repro_env_cleared": cleared,
        "repro_config": {
            "engine": engine.engine_mode(),
            "sparse_threshold": engine.sparse_threshold(),
            "iterative_threshold": engine.iterative_threshold(),
            "store": type(store).__name__ if store is not None else "off",
            "shards": shard_count(),
            "async": async_enabled(),
        },
        "argv": sys.argv[1:],
    }
