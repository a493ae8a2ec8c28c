"""The batched UGBW/-3 dB crossing and phase margin must stay bitwise.

``crossing_frequency_batch`` and ``phase_margin_batch`` read their
neighbours by fancy indexing, clamp with ``minimum``/``maximum``, and
the crossing gathers from ``log10`` of the whole sweep grid.  The
references below are the earlier implementations (``take_along_axis``,
``clip`` and ``log10`` of the gathered frequencies); the same ufuncs run
on the same values, so every result must be equal bit for bit on
measured responses and on the edge rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.measure.acspecs import (
    crossing_frequency_batch,
    f3db_batch,
    phase_margin_batch,
)
from repro.measure.pipeline import MeasureContext
from repro.sim import solve_dc_batch
from repro.topologies import (
    NegGmOta,
    OtaChain,
    TransimpedanceAmplifier,
    TwoStageOpAmp,
)


def reference_crossing(freqs, mag, level, fallback=1.0):
    """``crossing_frequency_batch`` as it was before fancy indexing."""
    mag = np.asarray(mag, dtype=float)
    level = np.asarray(level, dtype=float)
    below = mag < (level[:, None] if level.ndim else level)
    crosses = below.any(axis=1)
    i = below.argmax(axis=1)
    i = np.clip(i, 1, mag.shape[1] - 1)
    m0 = np.take_along_axis(mag, (i - 1)[:, None], axis=1)[:, 0]
    m1 = np.take_along_axis(mag, i[:, None], axis=1)[:, 0]
    f0, f1 = freqs[i - 1], freqs[i]
    degenerate = (m0 <= 0.0) | (m1 <= 0.0) | (m0 == m1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (np.log10(m0) - np.log10(level)) / (np.log10(m0) - np.log10(m1))
        interp = 10.0 ** (np.log10(f0) + t * (np.log10(f1) - np.log10(f0)))
    out = np.where(degenerate, f1, interp)
    out = np.where(crosses, out, freqs[-1])
    return np.where(mag[:, 0] < level, fallback, out)


def reference_phase_margin(freqs, H, ugbw):
    """``phase_margin_batch`` as it was before fancy indexing."""
    freqs = np.asarray(freqs, dtype=float)
    ph = np.angle(np.asarray(H))
    jumps = np.round(np.diff(ph, axis=1) / (2.0 * np.pi))
    if jumps.any():
        ph = ph.copy()
        ph[:, 1:] -= 2.0 * np.pi * np.cumsum(jumps, axis=1)
    phase = np.degrees(ph)
    logf = np.log10(freqs)
    target = np.log10(np.maximum(ugbw, freqs[0]))
    j = np.clip(np.searchsorted(logf, target, side="right"), 1,
                len(logf) - 1)
    p0 = np.take_along_axis(phase, (j - 1)[:, None], axis=1)[:, 0]
    p1 = np.take_along_axis(phase, j[:, None], axis=1)[:, 0]
    t = (target - logf[j - 1]) / (logf[j] - logf[j - 1])
    t = np.clip(t, 0.0, 1.0)
    pm = 180.0 + p0 + t * (p1 - p0)
    return np.where(np.abs(H[:, 0]) < 1.0, 0.0, pm)


def measured_responses(topology, n=24, seed=0):
    """``(freqs, H)`` AC responses at ``out`` of ``n`` random designs."""
    space = topology.parameter_space
    rng = np.random.default_rng(seed)
    designs = space.values(np.stack([space.sample(rng) for _ in range(n)]))
    stack = topology._plan.stack(designs)
    result = solve_dc_batch(stack, x0=topology._batch_warm_start(stack))
    rows = np.nonzero(result.converged)[0]
    ctx = MeasureContext(topology, stack, rows, result.x[rows])
    freqs = topology.AC_FREQUENCIES
    return freqs, ctx.node_response(freqs, "out")


def assert_bitwise(freqs, H):
    mag = np.abs(H)
    ugbw = crossing_frequency_batch(freqs, mag, 1.0)
    assert np.array_equal(ugbw, reference_crossing(freqs, mag, 1.0))
    assert np.array_equal(phase_margin_batch(freqs, H, ugbw),
                          reference_phase_margin(freqs, H, ugbw))
    level = mag[:, 0] / np.sqrt(2.0)
    assert np.array_equal(f3db_batch(freqs, H),
                          reference_crossing(freqs, mag, level))


@pytest.mark.parametrize("topology_cls", [
    TwoStageOpAmp, NegGmOta, TransimpedanceAmplifier,
    lambda: OtaChain(n_stages=2, segments=4),
], ids=["opamp", "ngm", "tia", "ota_chain"])
def test_measured_rows(topology_cls):
    freqs, H = measured_responses(topology_cls())
    assert len(H) > 10
    assert_bitwise(freqs, H)


class TestEdgeRows:
    """Rows that take every fallback branch."""

    FREQS = np.logspace(2, 11, 73)

    def _pole(self, a0, fp):
        return a0 / (1.0 + 1j * self.FREQS / fp)

    def test_gain_below_one(self):
        H = np.stack([self._pole(0.5, 1e4), self._pole(0.9, 1e9)])
        assert (np.abs(H[:, 0]) < 1.0).all()
        assert_bitwise(self.FREQS, H)
        assert (phase_margin_batch(self.FREQS, H, np.ones(2)) == 0.0).all()

    def test_never_crossing(self):
        H = np.stack([self._pole(1e3, 1e12), np.full(73, 5.0 + 0j)])
        ugbw = crossing_frequency_batch(self.FREQS, np.abs(H), 1.0)
        assert (ugbw == self.FREQS[-1]).all()
        assert_bitwise(self.FREQS, H)

    def test_flat_rows_m0_equals_m1(self):
        """Flat magnitudes take the degenerate branch (``m0 == m1`` at
        the clamped first index): one never crosses, one starts below
        the level, one sits exactly on it."""
        H = np.stack([np.full(73, 5.0 + 0j), np.full(73, 0.25 + 0j),
                      np.full(73, 1.0 + 0j), self._pole(300.0, 1e5)])
        mag = np.abs(H)
        i = np.clip((mag < 1.0).argmax(axis=1), 1, 72)
        assert (mag[np.arange(4), i - 1] == mag[np.arange(4), i])[:3].all()
        assert_bitwise(self.FREQS, H)

    def test_mixed_batch(self):
        H = np.stack([self._pole(0.5, 1e4), self._pole(1e3, 1e12),
                      self._pole(300.0, 1e5), self._pole(2e4, 3e3)])
        assert_bitwise(self.FREQS, H)
