"""Tests of the benchmark's own pieces (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from perfbench import harness, tracing, workloads  # noqa: E402


# -- seeded inputs ----------------------------------------------------------------
def test_deploy_inputs_follow_the_seed():
    a, b, c = (workloads.DeployOpamp(seed, 1.0) for seed in (3, 3, 4))
    for w in (a, b, c):
        w.setup()
    assert a.targets == b.targets and a.target_seeds == b.target_seeds
    assert a.targets != c.targets
    assert len(a.targets) == a.n_tasks == 30


def test_latin_hypercube_targets_fill_every_stratum_once():
    space = workloads.opamp_simulator().spec_space
    n = 25
    targets = workloads.latin_hypercube_targets(
        space, n, np.random.default_rng(5))
    for spec in space.specs:
        values = np.array([t[spec.name] for t in targets])
        if spec.log_scale:
            u = np.log(values / spec.low) / np.log(spec.high / spec.low)
        else:
            u = (values - spec.low) / (spec.high - spec.low)
        assert sorted(np.floor(u * n).astype(int)) == list(range(n))


def test_ga_inputs_do_not_depend_on_the_seed():
    a, b = workloads.GaOpamp(1, 2.0), workloads.GaOpamp(2, 2.0)
    a.setup()
    b.setup()
    assert a.targets == b.targets and a.ga_seeds == b.ga_seeds


def test_random_walk_is_seeded_and_moves_one_grid_step():
    space = workloads.opamp_simulator().parameter_space
    walk = workloads.random_walk(space, 40, seed=7)
    assert [w.tolist() for w in walk] == [
        w.tolist() for w in workloads.random_walk(space, 40, seed=7)]
    assert [w.tolist() for w in walk] != [
        w.tolist() for w in workloads.random_walk(space, 40, seed=8)]
    previous = space.center
    for point in walk:
        assert np.abs(point - previous).sum() == 1
        previous = point
    visited = {tuple(p.tolist()) for p in walk} | {tuple(space.center)}
    assert len(visited) == len(walk) + 1


def test_task_count_scales_with_run_length():
    assert workloads.DeployOpamp(0, 2.0).n_tasks == 60
    assert workloads.TrainOpamp(0, 60.0).n_tasks == 1


# -- span arithmetic ---------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_children_and_unattributed_closes_the_sum():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    clock.now = 1.0
    outer = tracer.enter("outer")
    clock.now = 2.0
    inner = tracer.enter("inner")
    clock.now = 5.0
    tracer.exit(inner)
    clock.now = 6.0
    again = tracer.enter("inner")
    clock.now = 7.0
    tracer.exit(again)
    clock.now = 8.0
    tracer.exit(outer)
    wall = 10.0
    assert tracer.self_s["outer"] == pytest.approx(3.0)
    assert tracer.self_s["inner"] == pytest.approx(4.0)
    assert tracer.total_s["outer"] == pytest.approx(7.0)
    assert tracer.calls["inner"] == 2
    assert tracer.unattributed_s(wall) == pytest.approx(3.0)
    assert sum(tracer.self_s.values()) + tracer.unattributed_s(wall) == \
        pytest.approx(wall)
    parents = {span[0]: span[1] for span in tracer.spans}
    assert parents[outer[0]] == -1 and parents[inner[0]] == outer[0]


def test_same_name_nesting_counts_the_outermost_span_once():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    outer = tracer.enter("rl.act")
    clock.now = 1.0
    inner = tracer.enter("rl.act")
    clock.now = 3.0
    tracer.exit(inner)
    clock.now = 4.0
    tracer.exit(outer)
    assert tracer.calls["rl.act"] == 1
    assert tracer.total_s["rl.act"] == pytest.approx(4.0)
    assert tracer.self_s["rl.act"] == pytest.approx(4.0)


def test_tracing_changes_no_output_and_uninstalls_cleanly():
    from repro.topologies.base import SchematicSimulator

    original = SchematicSimulator.__dict__["evaluate"]
    rng = np.random.default_rng(0)
    sim = workloads.opamp_simulator(cache=False)
    designs = [sim.parameter_space.sample(rng) for _ in range(3)]
    plain = harness.evaluate_probes(sim, designs)
    with tracing.Tracer() as tracer:
        traced = harness.evaluate_probes(
            workloads.opamp_simulator(cache=False), designs)
        assert SchematicSimulator.__dict__["evaluate"] is not original
    assert traced == plain
    assert SchematicSimulator.__dict__["evaluate"] is original
    assert tracer.calls["topologies.evaluate"] == 3
    assert tracer.counts["sim.fresh"] == 3
    assert not tracer.missing


def test_layer_metrics_cover_the_declared_table():
    tracer = tracing.Tracer()
    metrics = tracing.layer_metrics(tracer, 2.0, 1.0, sims=10, cached=4)
    assert list(metrics) == [name for name, _, _ in tracing.PER_LAYER]
    assert metrics["topologies.memo_hit_frac"] == (0.4, "ratio")
    assert metrics["trace_overhead_frac"] == (1.0, "ratio")
    assert metrics["unattributed_s"] == (2.0, "s")


# -- stored inputs and output checks ----------------------------------------------
def test_reference_check_passes_and_fails_on_a_perturbed_row(tmp_path):
    sim = workloads.opamp_simulator(cache=False)
    assert harness.check_reference("opamp", sim) == []
    data = json.loads(harness.REFERENCE.read_text())
    row = data["opamp"]["specs"][1]
    name = sorted(row)[0]
    row[name] *= 1 + 1e-7
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(data))
    problems = harness.check_reference("opamp", sim, path=perturbed)
    assert len(problems) == 1 and name in problems[0]


def test_compare_rows_tolerance():
    ref = [{"gain": 100.0, "zero": 0.0}]
    assert harness.compare_rows([{"gain": 100.0 + 1e-8, "zero": 0.0}], ref,
                                1e-9) == []
    assert harness.compare_rows([{"gain": 100.0 + 1e-6, "zero": 0.0}], ref,
                                1e-9)
    assert harness.compare_rows([{"gain": 100.0, "zero": 1e-300}], ref, 1e-9)
    assert harness.compare_rows([], ref, 1e-9)


def test_policy_hash_check_rejects_a_modified_file(tmp_path):
    manifest = harness.load_manifest()
    assert harness.load_policy("opamp", manifest) is not None
    name = manifest["policies"]["opamp"]["file"]
    shutil.copy(harness.DATA / name, tmp_path / name)
    with open(tmp_path / name, "r+b") as fh:
        fh.seek(-10, 2)
        byte = fh.read(1)
        fh.seek(-10, 2)
        fh.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(harness.BenchError, match="sha256"):
        harness.load_policy("opamp", manifest, data_dir=tmp_path)


def test_benchmark_spec_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _, _ in tracing.PER_LAYER]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "deploy_opamp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert '"correct"' not in proc.stdout
