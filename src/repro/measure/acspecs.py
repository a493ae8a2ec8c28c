"""AC-domain spec extraction: gain, bandwidth, phase margin.

All functions take a frequency grid and the complex transfer function
sampled on it.  Crossings are interpolated in log-frequency / log-magnitude
space, which is accurate on the logarithmic sweeps the analyses produce.

Fallback conventions (needed because an RL agent will visit broken designs
and the environment must keep stepping):

* no unity crossing because the DC gain is already below 1 →
  ``unity_gain_bandwidth`` returns ``fallback`` (default 1.0 Hz) and
  ``phase_margin`` returns 0 degrees;
* magnitude still above the threshold at the top of the sweep → the top
  frequency is returned (the sweep should be chosen wide enough that this
  is a saturation, not a common case).
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import MeasurementError


def _as_mag(freqs: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    freqs = np.asarray(freqs, dtype=float)
    h = np.asarray(h)
    if freqs.shape != h.shape or freqs.ndim != 1:
        raise MeasurementError("frequency and transfer arrays must be 1-D and equal length")
    if len(freqs) < 2:
        raise MeasurementError("need at least two frequency points")
    return freqs, np.abs(h)


def dc_gain(freqs: np.ndarray, h: np.ndarray) -> float:
    """Magnitude of the transfer function at the lowest swept frequency."""
    _, mag = _as_mag(freqs, h)
    return float(mag[0])


def crossing_frequency(freqs: np.ndarray, h: np.ndarray, level: float,
                       fallback: float = 1.0) -> float:
    """First frequency where |H| falls below ``level``, log-log interpolated.

    Returns ``fallback`` when |H| starts below ``level`` and the top sweep
    frequency when |H| never drops below ``level``.
    """
    freqs, mag = _as_mag(freqs, h)
    if level <= 0.0:
        raise MeasurementError("crossing level must be positive")
    # log-magnitude is close to linear in log-frequency near a crossing
    return _crossing_from_mag(freqs, mag, level, fallback)


def unity_gain_bandwidth(freqs: np.ndarray, h: np.ndarray,
                         fallback: float = 1.0) -> float:
    """Frequency where |H| crosses unity (the paper's UGBW spec)."""
    return crossing_frequency(freqs, h, 1.0, fallback=fallback)


def f3db(freqs: np.ndarray, h: np.ndarray, fallback: float = 1.0) -> float:
    """-3 dB bandwidth relative to the DC gain."""
    freqs_arr, mag = _as_mag(freqs, h)
    return crossing_frequency(freqs_arr, mag, mag[0] / np.sqrt(2.0),
                              fallback=fallback)


def phase_at(freqs: np.ndarray, h: np.ndarray, frequency: float) -> float:
    """Unwrapped phase [degrees] of H at ``frequency`` (log-f interpolation)."""
    freqs, _ = _as_mag(freqs, h)
    phase = np.degrees(np.unwrap(np.angle(np.asarray(h))))
    return float(np.interp(np.log10(max(frequency, freqs[0])),
                           np.log10(freqs), phase))


def phase_margin(freqs: np.ndarray, h: np.ndarray) -> float:
    """Phase margin [degrees]: ``180 + phase(H)`` at the unity-gain frequency.

    The transfer function convention is non-inverting (phase ~ 0 at DC); an
    amplifier whose phase has fallen to -120 degrees at unity gain has a
    60 degree margin.  Returns 0.0 when there is no unity crossing.
    """
    freqs_arr, mag = _as_mag(freqs, h)
    if mag[0] < 1.0:
        return 0.0
    fu = unity_gain_bandwidth(freqs_arr, h)
    return 180.0 + phase_at(freqs_arr, h, fu)


def gain_margin_db(freqs: np.ndarray, h: np.ndarray) -> float:
    """Gain margin [dB]: -20 log10 |H| at the -180 degree phase crossing.

    Returns +inf when the phase never reaches -180 degrees in the sweep.
    """
    freqs_arr, mag = _as_mag(freqs, h)
    phase = np.degrees(np.unwrap(np.angle(np.asarray(h))))
    below = np.nonzero(phase <= -180.0)[0]
    if len(below) == 0:
        return float("inf")
    i = int(below[0])
    if i == 0:
        mag_180 = mag[0]
    else:
        t = (phase[i - 1] - (-180.0)) / (phase[i - 1] - phase[i])
        log_mag = np.log10(mag[i - 1]) + t * (np.log10(mag[i]) - np.log10(mag[i - 1]))
        mag_180 = 10.0 ** log_mag
    if mag_180 <= 0.0:
        return float("inf")
    return float(-20.0 * np.log10(mag_180))


def _crossing_from_mag(freqs: np.ndarray, mag: np.ndarray, level: float,
                       fallback: float) -> float:
    """Core of :func:`crossing_frequency` on a precomputed magnitude.

    Scalar transcendentals go through ``math`` (numpy's scalar ufunc
    dispatch costs more than the log itself on this hot path).
    """
    if mag[0] < level:
        return float(fallback)
    below = np.nonzero(mag < level)[0]
    if len(below) == 0:
        return float(freqs[-1])
    i = int(below[0])
    m0, m1 = float(mag[i - 1]), float(mag[i])
    f0, f1 = float(freqs[i - 1]), float(freqs[i])
    if m0 <= 0.0 or m1 <= 0.0 or m0 == m1:
        return f1
    lm0 = math.log10(m0)
    t = (lm0 - math.log10(level)) / (lm0 - math.log10(m1))
    lf0 = math.log10(f0)
    return 10.0 ** (lf0 + t * (math.log10(f1) - lf0))


def _unwrapped_phase_deg(h: np.ndarray) -> np.ndarray:
    """Unwrapped phase [degrees] of a 1-D complex response.

    Equivalent to ``degrees(unwrap(angle(h)))`` but ~3x cheaper:
    ``np.unwrap`` is general-purpose (axis handling, variable period);
    this is the textbook cumulative-jump correction.
    """
    ph = np.angle(h)
    jumps = np.round(np.diff(ph) / (2.0 * np.pi))
    if jumps.any():
        ph = ph.copy()
        ph[1:] -= 2.0 * np.pi * np.cumsum(jumps)
    return np.degrees(ph)


def amplifier_ac_specs(freqs: np.ndarray, h: np.ndarray,
                       with_phase: bool = True, fallback: float = 1.0,
                       logf: np.ndarray | None = None) -> dict[str, float]:
    """Gain, UGBW and (optionally) phase margin from one transfer function.

    Fuses :func:`dc_gain`, :func:`unity_gain_bandwidth` and
    :func:`phase_margin` so the magnitude/phase arrays are computed once —
    the per-evaluation spec extraction is on the simulator's hot path.
    ``logf`` optionally supplies a precomputed ``log10(freqs)`` (topologies
    cache it with their sweep grid).  Results are identical to the
    individual functions.
    """
    mag = np.abs(h)
    gain = float(mag[0])
    ugbw = _crossing_from_mag(freqs, mag, 1.0, fallback)
    specs = {"gain": gain, "ugbw": ugbw}
    if with_phase:
        if gain < 1.0:
            specs["phase_margin"] = 0.0
        else:
            if logf is None:
                logf = np.log10(freqs)
            phase = _unwrapped_phase_deg(h)
            at = np.interp(math.log10(max(ugbw, freqs[0])), logf, phase)
            specs["phase_margin"] = 180.0 + float(at)
    return specs


def crossing_frequency_batch(freqs: np.ndarray, mag: np.ndarray,
                             level, fallback: float = 1.0) -> np.ndarray:
    """Vectorised :func:`crossing_frequency` over stacked sweeps.

    ``mag`` has shape ``(B, F)`` (magnitudes, shared frequency grid);
    ``level`` is a scalar or a per-row ``(B,)`` array (the batched -3 dB
    measurement crosses each row at its own DC-gain-derived level).
    Returns ``(B,)`` crossing frequencies with the same start-below /
    never-crossing conventions as the scalar function.
    """
    mag = np.asarray(mag, dtype=float)
    level = np.asarray(level, dtype=float)
    below = mag < (level[:, None] if level.ndim else level)
    crosses = below.any(axis=1)
    rows = np.arange(len(mag))
    # First below index (argmax gives 0 when none), kept inside [1, F-1].
    i = np.minimum(np.maximum(below.argmax(axis=1), 1), mag.shape[1] - 1)
    m0, m1 = mag[rows, i - 1], mag[rows, i]
    logf = np.log10(freqs)
    lf0, f1 = logf[i - 1], freqs[i]
    degenerate = (m0 <= 0.0) | (m1 <= 0.0) | (m0 == m1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (np.log10(m0) - np.log10(level)) / (np.log10(m0) - np.log10(m1))
        interp = 10.0 ** (lf0 + t * (logf[i] - lf0))
    out = np.where(degenerate, f1, interp)
    out = np.where(crosses, out, freqs[-1])
    return np.where(mag[:, 0] < level, fallback, out)


def f3db_batch(freqs: np.ndarray, H: np.ndarray,
               fallback: float = 1.0) -> np.ndarray:
    """Vectorised :func:`f3db` over stacked transfer functions ``(B, F)``."""
    mag = np.abs(np.asarray(H))
    return crossing_frequency_batch(freqs, mag, mag[:, 0] / np.sqrt(2.0),
                                    fallback=fallback)


def phase_margin_batch(freqs: np.ndarray, H: np.ndarray,
                       ugbw: np.ndarray) -> np.ndarray:
    """Vectorised :func:`phase_margin` over stacked transfer functions.

    ``H`` has shape ``(B, F)`` and ``ugbw`` the per-row unity-crossing
    frequencies (from :func:`crossing_frequency_batch`); rows whose DC
    gain is below 1 report 0 degrees, matching the scalar convention.
    """
    freqs = np.asarray(freqs, dtype=float)
    # Row-wise cumulative-jump unwrap (the batched mirror of
    # _unwrapped_phase_deg — ~3x cheaper than np.unwrap).
    ph = np.angle(np.asarray(H))
    jumps = np.round(np.diff(ph, axis=1) / (2.0 * np.pi))
    if jumps.any():
        ph = ph.copy()
        ph[:, 1:] -= 2.0 * np.pi * np.cumsum(jumps, axis=1)
    phase = np.degrees(ph)
    logf = np.log10(freqs)
    target = np.log10(np.maximum(ugbw, freqs[0]))
    j = np.minimum(np.maximum(np.searchsorted(logf, target, side="right"), 1),
                   len(logf) - 1)
    rows = np.arange(len(phase))
    p0, p1 = phase[rows, j - 1], phase[rows, j]
    t = (target - logf[j - 1]) / (logf[j] - logf[j - 1])
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    pm = 180.0 + p0 + t * (p1 - p0)
    return np.where(np.abs(H[:, 0]) < 1.0, 0.0, pm)


def amplifier_ac_specs_batch(freqs: np.ndarray, H: np.ndarray,
                             with_phase: bool = True,
                             fallback: float = 1.0) -> dict[str, np.ndarray]:
    """Vectorised :func:`amplifier_ac_specs` over stacked transfer functions.

    ``H`` has shape ``(B, F)``; every returned spec is a ``(B,)`` array.
    This is the measurement half of batched design evaluation: one set of
    numpy calls extracts the specs of a whole batch.
    """
    freqs = np.asarray(freqs, dtype=float)
    mag = np.abs(H)
    ugbw = crossing_frequency_batch(freqs, mag, 1.0, fallback=fallback)
    specs = {"gain": mag[:, 0], "ugbw": ugbw}
    if with_phase:
        specs["phase_margin"] = phase_margin_batch(freqs, H, ugbw)
    return specs
