"""Make the benchmark's stored inputs: two trained policies and the
reference spec rows the output check compares against.

Run once from the repository root (takes a few minutes on two cores)::

    python3 perfbench/prepare.py              # policies + reference rows
    python3 perfbench/prepare.py --reference  # reference rows only

The policies are trained at a fixed seed with the configuration recorded
in ``data/manifest.json`` next to each file's sha256; the benchmark
refuses a policy whose hash differs.  Regenerating the reference rows is
only right when a change to the program's numerics has been audited.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.environment import prepare_environment  # noqa: E402

POLICY_SEED = 0
#: name -> (topology class name, stop reward, iteration cap).  PPO and
#: environment settings are those of the repository's table benches.
POLICIES = {
    "opamp": ("TwoStageOpAmp", 3.0, 220),
    "ngm": ("NegGmOta", 2.0, 120),
}
#: Probe sets: key -> (random designs besides the centre, rtol).
PROBES = {
    "opamp": (7, 1e-9),
    "ngm_pex": (3, 1e-9),
    "mesh": (1, 1e-8),
}
PROBE_SEED = 2024


def policy_config(stop_reward: float, max_iterations: int):
    from repro.core import AutoCktConfig, SizingEnvConfig
    from repro.rl import PPOConfig

    return AutoCktConfig(
        ppo=PPOConfig(n_envs=10, n_steps=60, epochs=8, minibatch_size=64,
                      lr=5e-4, ent_coef=0.003, seed=POLICY_SEED),
        env=SizingEnvConfig(max_steps=30),
        n_train_targets=50,
        max_iterations=max_iterations,
        stop_reward=stop_reward,
        stop_patience=3,
        seed=POLICY_SEED,
    )


def train_policies(manifest: dict) -> None:
    import repro.topologies
    from repro.config import autockt_to_dict
    from repro.core import AutoCkt

    from perfbench.harness import DATA, sha256_file

    for name, (cls_name, stop_reward, cap) in POLICIES.items():
        config = policy_config(stop_reward, cap)
        agent = AutoCkt.for_topology(getattr(repro.topologies, cls_name),
                                     config=config)
        started = time.perf_counter()
        history = agent.train()
        wall = time.perf_counter() - started
        path = DATA / f"{name}_policy.npz"
        agent.save_policy(str(path))
        manifest["policies"][name] = {
            "file": path.name,
            "sha256": sha256_file(path),
            "topology": cls_name,
            "config": autockt_to_dict(config),
            "train_env_steps": agent.training_env_steps,
            "iterations": len(history.iterations),
            "final_mean_reward": history.final_mean_reward,
            "stopped_early": history.stopped_early,
            "train_wall_s": round(wall, 2),
        }
        print(f"{name}: {agent.training_env_steps} env steps, "
              f"final mean reward {history.final_mean_reward:.3f}, "
              f"{wall:.1f} s", flush=True)


def make_reference() -> dict:
    from perfbench import workloads
    from perfbench.harness import evaluate_probes, probe_designs

    simulators = {
        "opamp": workloads.opamp_simulator(),
        "ngm_pex": workloads.ngm_pex_simulator(),
        "mesh": workloads.mesh_simulator(),
    }
    out = {}
    for key, (n_random, rtol) in PROBES.items():
        sim = simulators[key]
        designs = probe_designs(sim.parameter_space, n_random, PROBE_SEED)
        out[key] = {
            "rtol": rtol,
            "designs": [[int(i) for i in d] for d in designs],
            "specs": evaluate_probes(sim, designs),
        }
        print(f"reference {key}: {len(designs)} designs", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reference", action="store_true",
                        help="regenerate the reference rows only")
    args = parser.parse_args(argv)
    prepare_environment(ROOT)

    from perfbench.harness import DATA, MANIFEST, REFERENCE, sha256_file

    DATA.mkdir(exist_ok=True)
    manifest = (json.loads(MANIFEST.read_text()) if MANIFEST.exists()
                else {"policies": {}})
    if not args.reference:
        train_policies(manifest)
    REFERENCE.write_text(json.dumps(make_reference(), indent=1) + "\n")
    manifest["reference"] = {"file": REFERENCE.name,
                             "sha256": sha256_file(REFERENCE),
                             "probe_seed": PROBE_SEED}
    MANIFEST.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
