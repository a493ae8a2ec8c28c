"""Command-line interface.

``python -m repro <command>`` exposes the library's main workflows without
writing any Python:

* ``info``            — describe a topology (parameters, specs, cardinality);
* ``simulate``        — evaluate one sizing (grid indices) and print its specs;
* ``train``           — train an agent (flags or ``--config`` JSON) and save
  a policy or full checkpoint;
* ``config-template`` — print the default training config as JSON;
* ``deploy``          — load a policy and chase N random targets;
* ``sensitivity``     — spec-vs-parameter sensitivity matrix;
* ``sweep``           — sweep one parameter, plot every spec;
* ``montecarlo``      — mismatch Monte Carlo of one sizing;
* ``poles``           — pole analysis / stability verdict;
* ``zoo``             — the declarative scenario zoo (:mod:`repro.zoo`):
  ``zoo list``, ``zoo validate [name|--all]``, ``zoo show <name>``;
* ``experiments``     — list the paper-experiment registry;
* ``knobs``           — list the runtime knobs (``REPRO_*``; see
  ``docs/knobs.md``).

Every command taking a topology accepts zoo scenario names (builtin and
``REPRO_ZOO_DIR``) alongside the module aliases below — a declared
scenario trains and simulates exactly like a module class.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.analysis import ascii_table
from repro.analysis.experiments import EXPERIMENTS
from repro.core import AutoCkt, AutoCktConfig, SizingEnvConfig
from repro.rl.ppo import PPOConfig
from repro.topologies import (
    FiveTransistorOta,
    FoldedCascodeOta,
    NegGmOta,
    OtaChain,
    SchematicSimulator,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)

TOPOLOGIES = {
    "tia": TransimpedanceAmplifier,
    "opamp": TwoStageOpAmp,
    "ngm": NegGmOta,
    "ota5": FiveTransistorOta,
    "folded": FoldedCascodeOta,
    "ota_chain": OtaChain,
}


def _topology_factory(name: str):
    """Resolve a topology argument to a zero-argument factory.

    Module aliases win on collision; everything else looks up the zoo
    registry, so compiled scenarios flow through ``train``/``deploy``/
    ... exactly like classes."""
    from repro.errors import TopologyError
    from repro.zoo import scenario

    if name in TOPOLOGIES:
        return TOPOLOGIES[name]
    try:
        return scenario(name)
    except TopologyError as exc:
        raise SystemExit(str(exc)) from None


def _topology(name: str):
    """Build the topology instance a CLI command operates on."""
    return _topology_factory(name)()


def _topology_names() -> list[str]:
    """Argparse choices: module aliases plus every registered scenario
    (best effort — a broken user zoo degrades to the builtin set so the
    parser, and ``repro zoo validate``'s diagnosis, keep working)."""
    from repro.zoo import scenario_names

    return sorted(set(TOPOLOGIES) | set(scenario_names(strict=False)))


def cmd_info(args: argparse.Namespace) -> int:
    """Describe a topology: parameter grid and spec ranges."""
    topo = _topology(args.topology)
    rows = [[p.name, p.start, p.stop, p.step, p.count, p.scale]
            for p in topo.parameter_space]
    print(ascii_table(["param", "start", "stop", "step", "K", "scale"],
                      rows, title=f"{topo.name} ({topo.technology.name}, "
                      f"{topo.parameter_space.cardinality:.3e} sizings)"))
    rows = [[s.name, s.low, s.high, s.kind.value,
             "log" if s.log_scale else "lin", s.unit]
            for s in topo.spec_space]
    print()
    print(ascii_table(["spec", "low", "high", "kind", "scale", "unit"], rows))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Evaluate one sizing (grid indices) and print measured specs."""
    topo = _topology(args.topology)
    simulator = SchematicSimulator(topo, cache=False)
    space = topo.parameter_space
    if args.indices:
        indices = np.array([int(i) for i in args.indices.split(",")])
        if len(indices) != len(space):
            raise SystemExit(f"need {len(space)} indices, got {len(indices)}")
    else:
        indices = space.center
    specs = simulator.evaluate(indices)
    values = space.values(space.clip(indices))
    print(json.dumps({"indices": [int(i) for i in space.clip(indices)],
                      "values": values, "specs": specs}, indent=2))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Train an AutoCkt agent; save a policy or a full checkpoint."""
    if args.config:
        from repro.config import load_config

        config = load_config(args.config)
    else:
        config = AutoCktConfig(
            ppo=PPOConfig(n_envs=args.envs, n_steps=60, epochs=8,
                          minibatch_size=64, lr=5e-4, seed=args.seed),
            env=SizingEnvConfig(max_steps=args.horizon),
            n_train_targets=args.targets,
            max_iterations=args.iterations,
            stop_reward=args.stop_reward,
            stop_patience=3,
            seed=args.seed,
        )
    agent = AutoCkt.for_topology(_topology_factory(args.topology),
                                 config=config)

    def progress(trainer, history):
        i = history.iterations[-1]
        if i % 5 == 0 or i == 1:
            print(f"iter {i:3d}  steps {history.env_steps[-1]:7d}  "
                  f"reward {history.mean_reward[-1]:8.2f}  "
                  f"success {history.success_rate[-1]:.2f}", flush=True)
        return False

    history = agent.train(callback=progress)
    if args.output.endswith(".ckpt.npz") or args.checkpoint:
        agent.save_checkpoint(args.output)
        kind = "checkpoint"
    else:
        agent.save_policy(args.output)
        kind = "policy"
    print(f"saved {kind} to {args.output} (final mean reward "
          f"{history.final_mean_reward:.2f}, {history.env_steps[-1]} steps)")
    return 0


def cmd_config_template(args: argparse.Namespace) -> int:
    """Print (or write) the default training configuration as JSON."""
    from repro.config import autockt_to_dict, save_config

    config = AutoCktConfig()
    if args.output:
        save_config(config, args.output)
        print(f"wrote default config to {args.output}")
    else:
        print(json.dumps(autockt_to_dict(config), indent=2, sort_keys=True))
    return 0


def cmd_deploy(args: argparse.Namespace) -> int:
    """Load a policy and chase N random unseen targets."""
    agent = AutoCkt.for_topology(_topology_factory(args.topology))
    agent.load_policy(args.policy)
    report = agent.deploy(args.targets, seed=args.seed,
                          max_steps=args.horizon)
    print(json.dumps(report.summary(), indent=2))
    return 0


def _indices_or_center(args: argparse.Namespace, space) -> np.ndarray:
    if getattr(args, "indices", None):
        indices = np.array([int(i) for i in args.indices.split(",")])
        if len(indices) != len(space):
            raise SystemExit(f"need {len(space)} indices, got {len(indices)}")
        return space.clip(indices)
    return space.center


def cmd_sensitivity(args: argparse.Namespace) -> int:
    """Spec-vs-parameter sensitivity matrix at one sizing."""
    from repro.analysis import spec_sensitivities

    topo = _topology(args.topology)
    simulator = SchematicSimulator(topo)
    report = spec_sensitivities(simulator,
                                _indices_or_center(args, topo.parameter_space),
                                step=args.step)
    print(report.render(relative=not args.slopes))
    print()
    for spec in topo.spec_space.names:
        print(f"{spec}: dominated by {report.dominant_parameter(spec)}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Sweep one parameter and plot every spec against it."""
    from repro.analysis import line_plot, sweep_parameter

    topo = _topology(args.topology)
    simulator = SchematicSimulator(topo)
    result = sweep_parameter(simulator, args.parameter,
                             _indices_or_center(args, topo.parameter_space),
                             points=args.points)
    for spec in topo.spec_space:
        xs, ys = result.spec_trace(spec.name)
        print(line_plot({spec.name: (xs, ys)},
                        log_y=spec.log_scale,
                        x_label=f"{args.parameter} [{topo.parameter_space[args.parameter].unit}]",
                        y_label=f"{spec.name} [{spec.unit}]",
                        title=f"{spec.name} vs {args.parameter} "
                              f"(monotone {100 * result.monotonic_fraction(spec.name):.0f}%)",
                        width=56, height=10))
        print()
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    """Mismatch Monte Carlo of one sizing."""
    from repro.analysis import ascii_table
    from repro.pex import MismatchModel, MonteCarloAnalysis

    topo = _topology(args.topology)
    mc = MonteCarloAnalysis(topo, MismatchModel(a_vth=args.avth * 1e-9))
    result = mc.run(indices=_indices_or_center(args, topo.parameter_space),
                    n_trials=args.trials, seed=args.seed)
    rows = [[name, f"{result.mean(name):.4g}", f"{result.std(name):.3g}",
             f"{100 * result.sigma_fraction(name):.2f}%",
             f"{result.quantile(name, 0.05):.4g}",
             f"{result.quantile(name, 0.95):.4g}"]
            for name in topo.spec_space.names]
    print(ascii_table(
        ["spec", "mean", "sigma", "sigma/mean", "q05", "q95"], rows,
        title=(f"{topo.name}: {args.trials} mismatch trials "
               f"({result.n_failed} failed), A_vt = {args.avth} mV*um")))
    return 0


def cmd_poles(args: argparse.Namespace) -> int:
    """Pole analysis of one sizing."""
    from repro.analysis import ascii_table
    from repro.sim import MnaSystem, circuit_poles, solve_dc

    topo = _topology(args.topology)
    indices = _indices_or_center(args, topo.parameter_space)
    values = topo.parameter_space.values(indices)
    system = MnaSystem(topo.build(values), temperature=topo.temperature)
    op = solve_dc(system)
    poles = circuit_poles(system, op)
    rows = [[f"{p.real:.4e}", f"{p.imag:+.4e}",
             f"{abs(p) / (2 * np.pi):.4e}"]
            for p in poles.poles]
    print(ascii_table(["re [rad/s]", "im [rad/s]", "|p|/2pi [Hz]"], rows,
                      title=f"{topo.name}: {len(poles)} finite poles, "
                            f"{'stable' if poles.stable else 'UNSTABLE'}, "
                            f"max Q {poles.max_q():.2f}"))
    return 0


def cmd_datasheet(args: argparse.Namespace) -> int:
    """Full datasheet of one sizing: specs, bias, poles, power, area."""
    from repro.analysis import build_datasheet

    topo = _topology(args.topology)
    sheet = build_datasheet(
        topo, indices=_indices_or_center(args, topo.parameter_space))
    print(sheet.render())
    return 0


def cmd_zoo_list(_args: argparse.Namespace) -> int:
    """List every registered zoo scenario."""
    from repro.errors import TopologyError
    from repro.zoo import registry

    try:
        scenarios = registry()
    except TopologyError as exc:
        raise SystemExit(str(exc)) from None
    rows = [[name, s.base_cls.__name__, os.path.basename(s.source),
             s.description] for name, s in sorted(scenarios.items())]
    print(ascii_table(["scenario", "class", "file", "description"], rows,
                      title=f"Scenario zoo ({len(rows)} registered)"))
    return 0


def cmd_zoo_validate(args: argparse.Namespace) -> int:
    """Validate the zoo (one scenario, or everything with ``--all``).

    The registry load *is* the validation — parsing, inheritance
    resolution, variant expansion and semantic checks all run there —
    so any broken builtin or ``REPRO_ZOO_DIR`` file surfaces here with
    its file and key path, exit code 1."""
    from repro.errors import TopologyError
    from repro.zoo import registry

    try:
        scenarios = registry()
    except TopologyError as exc:
        print(f"INVALID: {exc}")
        return 1
    if args.name:
        if args.name not in scenarios:
            print(f"INVALID: unknown scenario {args.name!r}; registered: "
                  f"{', '.join(sorted(scenarios))}")
            return 1
        print(f"OK: {args.name} ({scenarios[args.name].source})")
        return 0
    for name in sorted(scenarios):
        print(f"OK: {name}")
    print(f"{len(scenarios)} scenarios valid")
    return 0


def cmd_zoo_show(args: argparse.Namespace) -> int:
    """Print one scenario's resolved description as JSON."""
    from repro.errors import TopologyError
    from repro.zoo import scenario

    try:
        print(json.dumps(scenario(args.name).describe(), indent=2))
    except TopologyError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def cmd_experiments(_args: argparse.Namespace) -> int:
    """List the paper-experiment registry."""
    rows = [[e.key, e.title, e.bench] for e in EXPERIMENTS.values()]
    print(ascii_table(["key", "experiment", "bench"], rows,
                      title="Paper experiments"))
    return 0


#: Runtime knobs surfaced by ``repro knobs`` (reference: docs/knobs.md).
KNOBS = [
    ("REPRO_ENGINE", "auto|dense|sparse", "auto",
     "linear-algebra backend (auto: picked by MNA unknown count)"),
    ("REPRO_ZOO_DIR", "dir[:dir...]", "",
     "user scenario-zoo directories (repro zoo; YAML/JSON declarations)"),
    ("AUTOCKT_FULL", "0|1", "0",
     "paper-scale benchmark configurations"),
]


def cmd_knobs(_args: argparse.Namespace) -> int:
    """Print the runtime-knob reference (see docs/knobs.md)."""
    print(ascii_table(["variable", "values", "default", "effect"],
                      [list(row) for row in KNOBS],
                      title="Runtime knobs (details: docs/knobs.md)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Assemble the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AutoCkt reproduction CLI")
    sub = parser.add_subparsers(dest="command", required=True)
    topologies = _topology_names()

    p = sub.add_parser("info", help="describe a topology")
    p.add_argument("topology", choices=topologies)
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("simulate", help="evaluate one sizing")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--indices", help="comma-separated grid indices "
                                     "(default: grid centre)")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train an agent")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--config", help="JSON config file (see config-template); "
                                    "overrides the other training flags")
    p.add_argument("--output", default="policy.npz")
    p.add_argument("--checkpoint", action="store_true",
                   help="save a full checkpoint (config + targets + history) "
                        "instead of a bare policy")
    p.add_argument("--iterations", type=int, default=100)
    p.add_argument("--targets", type=int, default=50)
    p.add_argument("--envs", type=int, default=10)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--stop-reward", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("config-template",
                       help="print the default training config as JSON")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.set_defaults(fn=cmd_config_template)

    p = sub.add_parser("deploy", help="deploy a trained policy")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--policy", default="policy.npz")
    p.add_argument("--targets", type=int, default=100)
    p.add_argument("--horizon", type=int, default=30)
    p.add_argument("--seed", type=int, default=1234)
    p.set_defaults(fn=cmd_deploy)

    p = sub.add_parser("sensitivity",
                       help="spec-vs-parameter sensitivity matrix")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--indices", help="comma-separated grid indices")
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--slopes", action="store_true",
                   help="print raw slopes per grid step instead of "
                        "relative swings")
    p.set_defaults(fn=cmd_sensitivity)

    p = sub.add_parser("sweep", help="sweep one parameter, plot the specs")
    p.add_argument("topology", choices=topologies)
    p.add_argument("parameter")
    p.add_argument("--indices", help="comma-separated grid indices")
    p.add_argument("--points", type=int, default=25)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("montecarlo", help="mismatch Monte Carlo of a sizing")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--indices", help="comma-separated grid indices")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--avth", type=float, default=3.5,
                   help="Pelgrom A_vt in mV*um (default 3.5)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_montecarlo)

    p = sub.add_parser("poles", help="pole analysis of a sizing")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--indices", help="comma-separated grid indices")
    p.set_defaults(fn=cmd_poles)

    p = sub.add_parser("datasheet",
                       help="full datasheet of a sizing (specs, bias, "
                            "poles, power, area)")
    p.add_argument("topology", choices=topologies)
    p.add_argument("--indices", help="comma-separated grid indices")
    p.set_defaults(fn=cmd_datasheet)

    p = sub.add_parser("zoo", help="declarative scenario zoo "
                                   "(list / validate / show)")
    zoo_sub = p.add_subparsers(dest="zoo_command", required=True)
    zp = zoo_sub.add_parser("list", help="list registered scenarios")
    zp.set_defaults(fn=cmd_zoo_list)
    zp = zoo_sub.add_parser("validate",
                            help="validate scenario declarations "
                                 "(builtin + REPRO_ZOO_DIR)")
    zp.add_argument("name", nargs="?",
                    help="one scenario to validate (default: all)")
    zp.add_argument("--all", action="store_true",
                    help="validate every declaration (the default when "
                         "no name is given)")
    zp.set_defaults(fn=cmd_zoo_validate)
    zp = zoo_sub.add_parser("show", help="show one scenario, resolved")
    zp.add_argument("name")
    zp.set_defaults(fn=cmd_zoo_show)

    p = sub.add_parser("experiments", help="list the paper experiments")
    p.set_defaults(fn=cmd_experiments)

    p = sub.add_parser("knobs",
                       help="list the runtime knobs (REPRO_* variables)")
    p.set_defaults(fn=cmd_knobs)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
