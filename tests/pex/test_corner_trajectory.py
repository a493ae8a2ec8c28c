"""PEX corner trajectories: one-design evaluations seed each corner's
Newton solve from that corner's previous operating point.

``PexSimulator.evaluate`` seeds corner row k with corner topology k's
``_warm_x`` (the operating point of its last converged, non-gated
evaluation) and falls back to the canonical grid-centre seeds when a
trajectory-seeded row fails; ``evaluate_batch`` always solves from the
canonical seeds and leaves the trajectory state alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pex import PexSimulator, extraction
from repro.sim import dc
from repro.topologies import NegGmOta

#: A design whose FF/-40 C corner latches (its first-stage gate fails)
#: while the other two corners measure, and a one-step neighbour that
#: measures at every corner.
LATCHED = [41, 27, 28, 32, 45, 5, 61]
NEIGHBOUR = [41, 28, 28, 32, 45, 5, 61]


@pytest.fixture
def solves(monkeypatch):
    """Every ``solve_dc_batch`` call of the PEX module as ``(x0, result)``."""
    calls = []
    real = extraction.solve_dc_batch

    def recording(stack, x0=None):
        result = real(stack, x0=x0)
        calls.append((np.array(x0), result))
        return result

    monkeypatch.setattr(extraction, "solve_dc_batch", recording)
    return calls


def _pex():
    return PexSimulator(NegGmOta, cache=False)


def _walk(space, start, moves):
    """``start`` followed by one grid step per ``(axis, sign)`` move
    (moves that would leave the grid are skipped)."""
    point = space.clip(np.asarray(start, dtype=np.int64))
    walk = [point]
    for axis, sign in moves:
        step = point.copy()
        step[axis] += sign
        if space.contains(step):
            point = step
            walk.append(point)
    return walk


def _canonical(pex):
    """The canonical seed of each corner (its grid-centre solution)."""
    return np.stack([t.centre_solution(t._plan.system.size)
                     for t in pex._topologies])


def _rel_close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class TestTrajectorySeeds:
    def test_seeded_walk_takes_fewer_iterations(self, solves):
        pex = _pex()
        rng = np.random.default_rng(0)
        moves = [(rng.integers(len(pex.parameter_space)), rng.choice([-1, 1]))
                 for _ in range(20)]
        walk = _walk(pex.parameter_space, pex.parameter_space.center, moves)
        for point in walk:
            pex.evaluate(point)
        seeded = sum(int(r.iterations.sum()) for _, r in solves)
        solves.clear()
        for point in walk:
            pex.reset_warm_start()
            pex.evaluate(point)
        canonical = sum(int(r.iterations.sum()) for _, r in solves)
        assert seeded < canonical

    def test_rows_are_seeded_from_the_previous_step(self, solves):
        pex = _pex()
        pex.evaluate(np.array(NEIGHBOUR))
        previous = solves[-1][1].x
        pex.evaluate(np.array(LATCHED))
        assert len(solves) == 2
        assert np.array_equal(solves[-1][0], previous)

    def test_reset_is_bitwise_a_fresh_simulator(self):
        pex = _pex()
        space = pex.parameter_space
        for point in _walk(space, space.center, [(0, 1), (3, -1), (6, 1)]):
            pex.evaluate(point)
        target = space.center + np.array([1, -1, 0, 0, 0, 0, 1])
        pex.reset_warm_start()
        specs = pex.evaluate(target)
        fresh = _pex()
        assert specs == fresh.evaluate(target)
        for mine, theirs in zip(pex._topologies, fresh._topologies):
            assert np.array_equal(mine._warm_x, theirs._warm_x)

    def test_latched_corner_clears_its_state(self, solves):
        pex = _pex()
        pex.evaluate(np.array(NEIGHBOUR))
        assert all(t._warm_x is not None for t in pex._topologies)
        specs = pex.evaluate(np.array(LATCHED))
        assert solves[-1][1].converged.all()     # solved, then gated
        assert specs == pex.failure_measurements()
        kept = [t._warm_x is not None for t in pex._topologies]
        assert kept == [True, True, False]
        # The latched corner restarts from its canonical seed.
        pex.evaluate(np.array(NEIGHBOUR))
        x0 = solves[-1][0]
        assert np.array_equal(x0[2], _canonical(pex)[2])
        assert not np.array_equal(x0[:2], _canonical(pex)[:2])

    def test_failed_seeded_stack_falls_back_to_canonical_seeds(
            self, solves, monkeypatch):
        """One Newton iteration per rung cannot reach the grid centre from
        a neighbour's operating points, but the canonical seeds are the
        centre's own solution: the retry converges and its rows become
        the trajectory state."""
        pex = _pex()
        pex.evaluate(np.array(NEIGHBOUR))
        monkeypatch.setattr(dc, "_MAX_ITER", 1)
        solves.clear()
        pex.evaluate(pex.parameter_space.center)
        assert len(solves) == 2
        (seeded_x0, first), (retry_x0, final) = solves
        assert not first.converged.any()
        assert not np.array_equal(seeded_x0, retry_x0)
        assert np.array_equal(retry_x0, _canonical(pex))
        assert final.converged.all()
        for k, topology in enumerate(pex._topologies):
            assert np.array_equal(topology._warm_x, final.x[k])
        # A design that fails from both seeds clears every corner.
        solves.clear()
        specs = pex.evaluate(np.array(LATCHED))
        assert len(solves) == 2 and not solves[-1][1].converged.any()
        assert specs == pex.failure_measurements()
        assert all(t._warm_x is None for t in pex._topologies)

    @pytest.mark.parametrize("B", [1, 3])
    def test_evaluate_batch_leaves_the_state_alone(self, solves, B):
        pex = _pex()
        space = pex.parameter_space
        pex.evaluate(space.center)
        before = [t._warm_x for t in pex._topologies]
        rng = np.random.default_rng(B)
        pex.evaluate_batch(np.stack([space.sample(rng) for _ in range(B)]))
        assert all(t._warm_x is x for t, x in zip(pex._topologies, before))
        assert np.array_equal(solves[-1][0],
                              np.repeat(_canonical(pex), B, axis=0))


class TestSeedIndependence:
    """Trajectory seeding moves no spec past the seed-independence bars
    of canonical seeding and flips no gate along one-step walks."""

    @settings(max_examples=6, deadline=None, derandomize=True,
              database=None)
    @given(data=st.data())
    def test_one_step_walk_matches_canonical_seeding(self, data):
        traj, canon = self._pair()
        space = traj.parameter_space
        start = [data.draw(st.integers(0, int(c) - 1)) for c in space.counts]
        moves = data.draw(st.lists(
            st.tuples(st.integers(0, len(space) - 1), st.sampled_from([-1, 1])),
            min_size=8, max_size=8))
        failure = traj.failure_measurements()
        traj.reset_warm_start()
        for point in _walk(space, start, moves):
            seeded = traj.evaluate(point)
            canon.reset_warm_start()
            reference = canon.evaluate(point)
            assert (seeded == failure) == (reference == failure)
            for name, tol in (("gain", 1e-9), ("phase_margin", 1e-9),
                              ("ugbw", 1e-7)):
                assert _rel_close(seeded[name], reference[name], tol), (
                    f"{name} at {point.tolist()}: {seeded[name]!r} "
                    f"vs {reference[name]!r}")

    _sims = None

    @classmethod
    def _pair(cls):
        if cls._sims is None:
            cls._sims = (_pex(), _pex())
        return cls._sims
