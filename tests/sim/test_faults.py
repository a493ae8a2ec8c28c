"""Chaos suite: the deterministic fault plane (``REPRO_FAULTS``) drives
every recovery path of the supervised evaluation layer, and recovery must
be invisible in the results."""

import os

import numpy as np
import pytest

from repro.errors import PoisonDesignFault, TrainingError
from repro.sim.faults import (BatchReport, FaultDirective, FaultRecord,
                              FaultStats, SupervisorConfig, check_poison,
                              design_digest, parse_fault_profile,
                              worker_directives)
from repro.topologies import SchematicSimulator, TwoStageOpAmp


@pytest.fixture(scope="module")
def opamp_batch():
    sim = SchematicSimulator(TwoStageOpAmp(), cache=False)
    rng = np.random.default_rng(11)
    designs = np.stack([sim.parameter_space.sample(rng) for _ in range(8)])
    return sim, designs


def _digest_of(sim, design_row) -> str:
    """Content digest of one design, as the supervisor computes it."""
    values = sim.parameter_space.values(design_row)
    row = np.array([values[n] for n in sim.parameter_space.names])
    return design_digest(row)


class TestProfileParsing:
    def test_event_directive_forms(self):
        kill, exc, hang, delay = parse_fault_profile(
            "kill@1, exc@2#1, hang@3, delay@1:0.2#2")
        assert kill == FaultDirective("kill", at=1, worker=0)
        assert exc == FaultDirective("exc", at=2, worker=1)
        assert hang == FaultDirective("hang", at=3, worker=0)
        assert delay == FaultDirective("delay", at=1, worker=2, arg=0.2)

    def test_poison_directive(self):
        (d,) = parse_fault_profile("poison@3f2a9c0d11ee")
        assert d.kind == "poison" and d.digest == "3f2a9c0d11ee"

    def test_empty_profile(self):
        assert parse_fault_profile("") == ()
        assert parse_fault_profile(" , ") == ()

    @pytest.mark.parametrize("bad", ["kill", "kill@0", "kill@x", "boom@1",
                                     "delay@1", "delay@1:0", "poison@",
                                     "exc@1#-1", "drop@1"])
    def test_malformed_tokens_raise(self, bad):
        with pytest.raises(TrainingError, match="REPRO_FAULTS"):
            parse_fault_profile(bad)

    def test_worker_directives_respawn_drops_events(self):
        profile = parse_fault_profile("kill@1, exc@1#1, poison@abcdef012345")
        assert [d.kind for d in worker_directives(profile, 0)] == [
            "kill", "poison"]
        assert [d.kind for d in worker_directives(profile, 1)] == [
            "exc", "poison"]
        # A respawned worker inherits only the content directives —
        # re-running the fatal event would loop recovery forever.
        assert [d.kind for d in worker_directives(profile, 0,
                                                  respawned=True)] == [
            "poison"]

    def test_design_digest_is_content_addressed(self):
        row = np.array([1.0e-6, 2.5e-6, 30.0])
        assert design_digest(row) == design_digest(row.copy())
        assert design_digest(row) != design_digest(row[::-1])
        assert len(design_digest(row)) == 12

    def test_check_poison(self):
        rows = np.array([[1.0, 2.0], [3.0, 4.0]])
        bad = design_digest(rows[1])
        directives = parse_fault_profile(f"poison@{bad}")
        with pytest.raises(PoisonDesignFault, match=bad):
            check_poison(rows, directives)
        check_poison(rows[:1], directives)   # healthy row passes


class TestSupervisorConfig:
    def test_defaults(self):
        config = SupervisorConfig()
        assert config.timeout == 0.0
        assert config.retries == 2
        assert config.backoff == 0.05

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "4")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
        config = SupervisorConfig.from_env()
        assert config == SupervisorConfig(timeout=2.5, retries=4,
                                          backoff=0.5)

    def test_from_env_malformed_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "banana")
        monkeypatch.setenv("REPRO_RETRIES", "-3")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "")
        with pytest.warns(RuntimeWarning) as record:
            assert SupervisorConfig.from_env() == SupervisorConfig()
        # One warning per rejected value; the empty backoff stays silent.
        retries, timeout = sorted(str(w.message) for w in record
                                  if "REPRO_" in str(w.message))
        assert "REPRO_RETRIES='-3'" in retries and "using 2" in retries
        assert ("REPRO_TIMEOUT='banana'" in timeout
                and "using 0.0" in timeout)

    def test_negative_values_rejected(self):
        with pytest.raises(TrainingError):
            SupervisorConfig(timeout=-1.0)

    def test_backoff_delay_ladder(self):
        config = SupervisorConfig(backoff=0.1)
        assert config.backoff_delay(1) == pytest.approx(0.1)
        assert config.backoff_delay(2) == pytest.approx(0.2)
        assert config.backoff_delay(3) == pytest.approx(0.4)
        assert SupervisorConfig(backoff=0.0).backoff_delay(2) == 0.0


class TestNonBlockingBackoff:
    """Retry backoff must gate only the flaky job, never the pool
    (regression: the supervisor used to time.sleep the backoff in its
    service loop, stalling every shard and — with a timeout armed —
    spuriously expiring healthy queue-head deadlines)."""

    def test_healthy_shard_unaffected_by_backoff(self, opamp_batch,
                                                 monkeypatch):
        sim, designs = opamp_batch
        backoff = 1.2
        monkeypatch.setenv("REPRO_SHARDS", "2")
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_TIMEOUT", raising=False)
        base = sim.evaluate_batch(designs)
        sim.close_shard_pool()
        monkeypatch.setenv("REPRO_FAULTS", "exc@1")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", str(backoff))
        # A timeout far below the backoff: if deferral blocked the
        # service loop, the healthy shard's deadline would expire while
        # the supervisor slept and the run would report timeout faults.
        monkeypatch.setenv("REPRO_TIMEOUT", "30")
        try:
            out = sim.evaluate_batch(designs)
            report = sim.last_batch_report
        finally:
            sim.close_shard_pool()
        assert out == base
        assert report.retries >= 1
        assert all(f.kind == "solve-error" for f in report.faults)
        # The healthy shard (rows 4..) finished at normal solve speed;
        # only the flaky shard's rows carry the backoff wait.
        healthy = report.latency[len(designs) // 2:]
        flaky = report.latency[:len(designs) // 2]
        assert healthy.max() < backoff
        assert flaky.max() >= backoff


class TestChaosEquivalence:
    """Every event profile must leave batch results bitwise equal to the
    fault-free sharded run: recovery re-runs whole shards on respawned
    workers from the same canonical warm seeds."""

    def _sharded_run(self, sim, designs, monkeypatch, profile=None,
                     timeout=None):
        monkeypatch.setenv("REPRO_SHARDS", "2")
        monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
        if profile is None:
            monkeypatch.delenv("REPRO_FAULTS", raising=False)
        else:
            monkeypatch.setenv("REPRO_FAULTS", profile)
        if timeout is None:
            monkeypatch.delenv("REPRO_TIMEOUT", raising=False)
        else:
            monkeypatch.setenv("REPRO_TIMEOUT", str(timeout))
        try:
            return sim.evaluate_batch(designs), sim.last_batch_report
        finally:
            sim.close_shard_pool()   # next run re-reads the profile

    @pytest.mark.parametrize("profile,expect", [
        ("kill@1", "worker-death"),
        ("exc@1", "solve-error"),
        ("delay@1:0.05", None),
    ])
    def test_event_profiles_heal_bitwise(self, opamp_batch, monkeypatch,
                                         profile, expect):
        sim, designs = opamp_batch
        base, base_report = self._sharded_run(sim, designs, monkeypatch)
        assert base_report.clean
        out, report = self._sharded_run(sim, designs, monkeypatch,
                                        profile=profile)
        assert out == base   # bitwise: dict float equality
        assert not report.quarantined.any()
        if expect is not None:
            assert any(f.kind == expect for f in report.faults)
            assert report.attempts.max() >= 2
        if profile.startswith("kill"):
            assert report.respawns >= 1

    def test_hang_profile_heals_via_timeout(self, opamp_batch, monkeypatch):
        """A hung worker trips the REPRO_TIMEOUT deadline: the supervisor
        kills it, respawns, retries — and the batch still completes
        bitwise equal."""
        sim, designs = opamp_batch
        base, _ = self._sharded_run(sim, designs, monkeypatch)
        out, report = self._sharded_run(sim, designs, monkeypatch,
                                        profile="hang@1", timeout=2)
        assert out == base
        assert report.respawns >= 1
        assert any(f.kind == "timeout" for f in report.faults)
        assert not report.quarantined.any()

    def test_poison_quarantined_sharded(self, opamp_batch, monkeypatch):
        """A poison design is bisected out and charged failure
        measurements; every healthy design keeps its result and the pool
        survives."""
        sim, designs = opamp_batch
        base, _ = self._sharded_run(sim, designs, monkeypatch)
        digest = _digest_of(sim, designs[2])
        monkeypatch.setenv("REPRO_RETRIES", "0")
        out, report = self._sharded_run(sim, designs, monkeypatch,
                                        profile=f"poison@{digest}")
        assert out[2] == sim.failure_measurements()
        assert report.quarantined[2] and report.n_quarantined == 1
        assert any(f.kind == "quarantine" for f in report.faults)
        for i, (a, b) in enumerate(zip(base, out)):
            if i == 2:
                continue
            for name in a:
                # Bisection re-stacks the survivors, so healthy rows
                # agree to solver tolerance (same hedge as the shard
                # decomposition tests).
                assert b[name] == pytest.approx(a[name], rel=1e-6), name


class TestInProcessQuarantine:
    """REPRO_SHARDS unset: the in-process recovery path honours poison
    directives with the same bisection/quarantine contract, no pool."""

    def test_poison_quarantined_in_process(self, opamp_batch, monkeypatch):
        sim, designs = opamp_batch
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        base = sim.evaluate_batch(designs)
        digest = _digest_of(sim, designs[5])
        monkeypatch.setenv("REPRO_FAULTS", f"poison@{digest}")
        out = sim.evaluate_batch(designs)
        report = sim.last_batch_report
        assert out[5] == sim.failure_measurements()
        assert report.quarantined[5] and report.n_quarantined == 1
        assert all(f.worker == -1 for f in report.faults)
        assert report.respawns == 0
        for i, (a, b) in enumerate(zip(base, out)):
            if i == 5:
                continue
            for name in a:
                assert b[name] == pytest.approx(a[name], rel=1e-6), name

    def test_event_directives_ignored_in_process(self, opamp_batch,
                                                 monkeypatch):
        """kill/exc/hang/delay target shard workers; with no pool they
        must be inert (the parent never injects them into itself)."""
        sim, designs = opamp_batch
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        base = sim.evaluate_batch(designs[:4])
        monkeypatch.setenv("REPRO_FAULTS", "kill@1, exc@1, hang@1")
        assert sim.evaluate_batch(designs[:4]) == base
        assert sim.last_batch_report.clean


class TestQuarantinePurity:
    """Property: quarantining one poison design never alters any healthy
    design's measurements (beyond the documented re-stacking tolerance)."""

    def test_healthy_designs_unaltered_property(self, opamp_batch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        sim, designs = opamp_batch
        base = {}

        @hypothesis.given(poison_row=st.integers(0, len(designs) - 1))
        @hypothesis.settings(max_examples=8, deadline=None)
        def run(poison_row):
            if not base:
                os.environ.pop("REPRO_FAULTS", None)
                base["specs"] = sim.evaluate_batch(designs)
            digest = _digest_of(sim, designs[poison_row])
            os.environ["REPRO_FAULTS"] = f"poison@{digest}"
            try:
                out = sim.evaluate_batch(designs)
            finally:
                os.environ.pop("REPRO_FAULTS", None)
            assert out[poison_row] == sim.failure_measurements()
            assert sim.last_batch_report.n_quarantined == 1
            for i, (a, b) in enumerate(zip(base["specs"], out)):
                if i == poison_row:
                    continue
                for name in a:
                    assert b[name] == pytest.approx(a[name], rel=1e-6)

        # Plain os.environ (hypothesis re-enters the body, so a function
        # -scoped monkeypatch would tear down mid-run); save/restore by
        # hand so the chaos CI leg's profile survives this test.
        saved = {env: os.environ.pop(env, None)
                 for env in ("REPRO_SHARDS", "REPRO_FAULTS")}
        try:
            run()
        finally:
            for env, value in saved.items():
                if value is not None:
                    os.environ[env] = value


class TestBatchReport:
    def test_clean_report(self):
        report = BatchReport(3)
        assert report.clean and report.n_quarantined == 0
        assert report.attempts.tolist() == [0, 0, 0]

    def test_translate_expands_deduped_rows(self):
        """The cache front-end dedupes: one fresh row may serve several
        caller rows, and the report must fan its entries back out."""
        fresh = BatchReport(2, respawns=1, retries=2)
        fresh.attempts[:] = [2, 1]
        fresh.latency[:] = [0.5, 0.1]
        fresh.quarantined[0] = True
        fresh.faults.append(FaultRecord("quarantine", 0, (0,), 2))
        out = fresh.translate({0: [0, 3], 1: [1]}, 4)
        assert out.attempts.tolist() == [2, 1, 0, 2]
        assert out.quarantined.tolist() == [True, False, False, True]
        assert out.latency[2] == 0.0          # pure cache hit: zeroed
        assert out.respawns == 1 and out.retries == 2
        assert out.faults[0].rows == (0, 3)
        assert out.n_quarantined == 2 and not out.clean

    def test_fault_stats_absorb_is_identity_guarded(self):
        """Reports fold into the cumulative counters once each: re-reading
        the same report (no new batch published) must not double-count."""
        report = BatchReport(2, respawns=1, retries=3)
        report.quarantined[1] = True
        report.faults.append(FaultRecord("quarantine", 0, (1,), 2))
        stats = FaultStats()
        assert stats == {"faults": 0, "retries": 0, "respawns": 0,
                         "quarantined": 0}
        stats.absorb(report)
        stats.absorb(report)
        stats.absorb(None)
        assert stats == {"faults": 1, "retries": 3, "respawns": 1,
                         "quarantined": 1}
        stats.absorb(BatchReport(1, retries=1))
        assert stats["retries"] == 4
