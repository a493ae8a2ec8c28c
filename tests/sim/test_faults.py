"""In-process supervision: a design whose solve faults is bisected out of
its batch and quarantined, and the rest of the batch keeps its results."""

import numpy as np
import pytest

from repro.errors import EvaluationFault
from repro.sim.faults import BatchReport, FaultRecord, FaultStats
from repro.topologies import SchematicSimulator, TwoStageOpAmp


class FaultySimulator(SchematicSimulator):
    """Op-amp simulator whose batched engine raises whenever a batch holds
    the ``poisoned`` sizing (an injected solve fault)."""

    poisoned = None

    def _inprocess_batch(self, values_list):
        if self.poisoned is not None and self.poisoned in values_list:
            raise EvaluationFault("injected solve fault")
        return super()._inprocess_batch(values_list)

    def poison(self, design_row) -> None:
        """Make every batch holding ``design_row`` fault (None: none)."""
        self.poisoned = (None if design_row is None
                         else self.parameter_space.values(design_row))


@pytest.fixture(scope="module")
def opamp_batch():
    sim = FaultySimulator(TwoStageOpAmp(), cache=False)
    rng = np.random.default_rng(11)
    designs = np.stack([sim.parameter_space.sample(rng) for _ in range(8)])
    return sim, designs


class TestInProcessQuarantine:
    """The poisoned row is isolated by bisection and charged failure
    measurements; no other row is."""

    def test_poison_quarantined_in_process(self, opamp_batch):
        sim, designs = opamp_batch
        sim.poison(None)
        base = sim.evaluate_batch(designs)
        sim.poison(designs[5])
        try:
            out = sim.evaluate_batch(designs)
        finally:
            sim.poison(None)
        report = sim.last_batch_report
        assert out[5] == sim.failure_measurements()
        assert report.quarantined[5] and report.n_quarantined == 1
        assert report.retries >= 1
        assert [f.rows for f in report.faults
                if f.kind == "quarantine"] == [(5,)]
        assert all(5 in f.rows for f in report.faults)
        for i, (a, b) in enumerate(zip(base, out)):
            if i == 5:
                continue
            for name in a:
                assert b[name] == pytest.approx(a[name], rel=1e-6), name


class TestEmptyBatch:
    def test_simulator_empty_batch(self, opamp_batch):
        """evaluate_batch([]) returns [] with a clean 0-design report."""
        sim, _ = opamp_batch
        empty = np.zeros((0, len(sim.parameter_space.names)), dtype=np.int64)
        assert sim.evaluate_batch(empty) == []
        assert sim.evaluate_batch([]) == []
        report = sim.last_batch_report
        assert report.clean and len(report.attempts) == 0


class TestQuarantinePurity:
    """Property: quarantining one poison design never alters any healthy
    design's measurements (beyond the documented re-stacking tolerance)."""

    def test_healthy_designs_unaltered_property(self, opamp_batch):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        sim, designs = opamp_batch
        sim.poison(None)
        base = sim.evaluate_batch(designs)

        @hypothesis.given(poison_row=st.integers(0, len(designs) - 1))
        @hypothesis.settings(max_examples=8, deadline=None)
        def run(poison_row):
            sim.poison(designs[poison_row])
            try:
                out = sim.evaluate_batch(designs)
            finally:
                sim.poison(None)
            assert out[poison_row] == sim.failure_measurements()
            assert sim.last_batch_report.n_quarantined == 1
            for i, (a, b) in enumerate(zip(base, out)):
                if i == poison_row:
                    continue
                for name in a:
                    assert b[name] == pytest.approx(a[name], rel=1e-6)

        run()


class TestBatchReport:
    def test_clean_report(self):
        report = BatchReport(3)
        assert report.clean and report.n_quarantined == 0
        assert report.attempts.tolist() == [0, 0, 0]

    def test_translate_expands_deduped_rows(self):
        """The cache front-end dedupes: one fresh row may serve several
        caller rows, and the report must fan its entries back out."""
        fresh = BatchReport(2, retries=2)
        fresh.attempts[:] = [2, 1]
        fresh.latency[:] = [0.5, 0.1]
        fresh.quarantined[0] = True
        fresh.faults.append(FaultRecord("quarantine", (0,), 2))
        out = fresh.translate({0: [0, 3], 1: [1]}, 4)
        assert out.attempts.tolist() == [2, 1, 0, 2]
        assert out.quarantined.tolist() == [True, False, False, True]
        assert out.latency[2] == 0.0          # pure cache hit: zeroed
        assert out.retries == 2
        assert out.faults[0].rows == (0, 3)
        assert out.n_quarantined == 2 and not out.clean

    def test_fault_stats_absorb_is_identity_guarded(self):
        """Reports fold into the cumulative counters once each: re-reading
        the same report (no new batch published) must not double-count."""
        report = BatchReport(2, retries=3)
        report.quarantined[1] = True
        report.faults.append(FaultRecord("quarantine", (1,), 2))
        stats = FaultStats()
        assert stats == {"faults": 0, "retries": 0, "quarantined": 0}
        stats.absorb(report)
        stats.absorb(report)
        stats.absorb(None)
        assert stats == {"faults": 1, "retries": 3, "quarantined": 1}
        stats.absorb(BatchReport(1, retries=1))
        assert stats["retries"] == 4
