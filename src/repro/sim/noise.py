"""Small-signal noise analysis.

For every noise current source ``k`` (resistor thermal noise, MOSFET
channel and flicker noise) the transfer impedance to the designated output
node is computed with one *adjoint* solve per frequency:

    ``A(w)^T y = e_out``  =>  ``Z_k(w) = y[p_k] - y[n_k]``

so the output voltage noise PSD is ``S_out(f) = sum_k S_k(f) |Z_k(f)|^2``.
Input-referred noise divides by the squared magnitude of the signal
transfer function from the circuit's AC input.  This is the textbook
adjoint-network method used by SPICE's ``.noise`` analysis.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import AnalysisError
from repro.sim.ac import ac_solutions, ac_sweep
from repro.sim.dc import OperatingPoint
from repro.sim.system import MnaSystem


@dataclasses.dataclass
class NoiseResult:
    """Noise spectra over a frequency sweep."""

    frequencies: np.ndarray          # (F,)
    output_psd: np.ndarray           # (F,) [V^2/Hz] at the output node
    input_psd: np.ndarray | None     # (F,) referred to the AC input, or None
    gain_squared: np.ndarray | None  # (F,) |H|^2 used for input referral
    contributions: dict[str, np.ndarray]  # per-element output PSD [V^2/Hz]

    def integrated_output_rms(self, f_low: float | None = None,
                              f_high: float | None = None) -> float:
        """Total output noise [V rms] over the (sub)band, trapezoid rule."""
        return _integrate_rms(self.frequencies, self.output_psd, f_low, f_high)


def _integrate_rms(freqs: np.ndarray, psd: np.ndarray,
                   f_low: float | None, f_high: float | None) -> float:
    mask = np.ones(len(freqs), dtype=bool)
    if f_low is not None:
        mask &= freqs >= f_low
    if f_high is not None:
        mask &= freqs <= f_high
    if mask.sum() < 2:
        raise AnalysisError("noise integration band contains fewer than 2 points")
    return float(np.sqrt(np.trapezoid(psd[mask], freqs[mask])))


def _psd_over(psd_fn, frequencies: np.ndarray) -> np.ndarray:
    """Evaluate a PSD callable over the sweep, vectorised when supported.

    The built-in element PSDs accept arrays; user-supplied scalar-only
    callables fall back to a Python loop.
    """
    try:
        vals = np.asarray(psd_fn(frequencies), dtype=float)
        if vals.shape == frequencies.shape:
            return vals
    except Exception:
        pass
    return np.array([float(psd_fn(f)) for f in frequencies])


def output_noise_rms_batch(stack, rows: np.ndarray, gm: np.ndarray,
                           G: np.ndarray, C: np.ndarray,
                           frequencies: np.ndarray,
                           out_idx: int) -> np.ndarray:
    """Integrated output noise [V rms] of stacked designs.

    The batched counterpart of ``noise_analysis(...).integrated_output_rms``
    for a :class:`~repro.sim.batch.SystemStack`: the adjoint solves of all
    designs run as one stacked AC sweep of the transposed operators, and
    the per-source PSDs are rebuilt from the constants the stack captured
    at snapshot time — resistor ``4 k T / R`` entries and the MOSFET
    channel thermal/flicker coefficients (``gamma_noise``, ``kf``) stored
    in the stacked device bank — with ``gm`` the ``(B, K)`` stacked
    transconductances at each design's operating point.

    ``G``/``C`` are the stacked small-signal matrices of designs ``rows``
    (as produced by ``Topology.batch_small_signal``).
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if np.any(frequencies <= 0.0):
        raise AnalysisError("noise frequencies must be positive")
    if out_idx < 0:
        raise AnalysisError("noise output node cannot be ground")
    B, n = G.shape[0], G.shape[1]
    e_out = np.zeros(n, dtype=complex)
    e_out[out_idx] = 1.0
    GT = np.ascontiguousarray(np.swapaxes(G, 1, 2))
    CT = np.ascontiguousarray(np.swapaxes(C, 1, 2))
    y = np.conjugate(ac_solutions(GT, CT, np.tile(e_out, (B, 1)),
                                  frequencies))            # (B, F, n)
    return output_noise_rms_from_adjoint(stack, rows, gm, y, frequencies)


def output_noise_rms_from_adjoint(stack, rows: np.ndarray, gm: np.ndarray,
                                  y: np.ndarray,
                                  frequencies: np.ndarray) -> np.ndarray:
    """Integrated output noise [V rms] from stacked adjoint solutions.

    The PSD-accumulation half of :func:`output_noise_rms_batch`, shared
    with the sparse stacked path (which produces its adjoint solutions
    ``y`` of shape ``(B, F, n)`` through per-design
    :class:`~repro.sim.sparse.SweepFactorization` transpose solves
    instead of a dense stacked sweep): resistor thermal PSDs and the
    MOSFET channel thermal/flicker PSDs are rebuilt from the constants
    the stack captured at snapshot time and weighted by the adjoint
    transfer impedances.
    """
    from repro.units import BOLTZMANN

    B, n = y.shape[0], y.shape[2]
    # Ground (-1) routes to a zero padding column.
    y_pad = np.concatenate([y, np.zeros((B, len(frequencies), 1))], axis=-1)

    psd_out = np.zeros((B, len(frequencies)))
    res_idx = np.where(stack.noise_res_idx < 0, n, stack.noise_res_idx)
    if len(res_idx):
        Z = y_pad[..., res_idx[:, 0]] - y_pad[..., res_idx[:, 1]]  # (B, F, R)
        psd_out += np.einsum("bfr,br->bf", np.abs(Z) ** 2,
                             stack.noise_res_psd[rows])
    if stack.dev is not None:
        terms = stack.template._mos_terms
        d_idx = np.where(terms[:, 0] < 0, n, terms[:, 0])
        s_idx = np.where(terms[:, 2] < 0, n, terms[:, 2])
        Zm2 = np.abs(y_pad[..., d_idx] - y_pad[..., s_idx]) ** 2   # (B, F, K)
        dev = stack.dev.take(rows)
        thermal = (4.0 * BOLTZMANN * stack.temperatures[rows][:, None]
                   * dev.gamma_n * gm)                             # (B, K)
        flicker = dev.kf * gm ** 2 / dev.c_area                    # (B, K)
        psd_out += np.einsum("bfk,bk->bf", Zm2, thermal)
        psd_out += np.einsum("bfk,bk,f->bf", Zm2, flicker,
                             1.0 / frequencies)
    return np.sqrt(np.trapezoid(psd_out, frequencies, axis=-1))


def noise_analysis(system: MnaSystem, op: OperatingPoint,
                   frequencies: np.ndarray, output: str,
                   refer_to_input: bool = True) -> NoiseResult:
    """Compute output (and optionally input-referred) noise at ``output``.

    Parameters
    ----------
    output:
        Node whose voltage noise is computed.
    refer_to_input:
        If True, also divide by ``|H(f)|^2`` where ``H`` is the transfer
        function from the netlist's AC excitation to ``output``; the input
        referral then has the units of the excited source (volts for a
        voltage input, volts per (A) — i.e. ohms — absorbed into the PSD
        for a current input, matching SPICE's convention).
    """
    frequencies = np.asarray(frequencies, dtype=float)
    if np.any(frequencies <= 0.0):
        raise AnalysisError("noise frequencies must be positive")
    out_idx = system.node_index[output]
    if out_idx < 0:
        raise AnalysisError("noise output node cannot be ground")

    sources = system.noise_source_list(op)
    names = [e.name for e in system.netlist for _ in e.noise_sources(op)]

    # Adjoint solve: A(w)^H y = e_out.  Since G and C are real,
    # A^H = G^T - j w C^T, so y = conj(x') where (G^T + j w C^T) x' = e_out
    # — which is exactly an AC sweep of the transposed operator and rides
    # the same modal-decomposition fast path as the forward analyses.
    # Sparse systems reuse the forward sweep's cached splu factors through
    # SuperLU's transpose solve instead of factoring the transposed
    # operators: one factorisation per frequency serves both directions.
    e_out = np.zeros(system.size)
    e_out[out_idx] = 1.0
    if getattr(system, "sparse", False):
        lus = system.sparse_sweep_lus(op, frequencies)
        y = np.conjugate(lus.solve(e_out, adjoint=True))
    else:
        G, C = system.small_signal_matrices(op)
        y = np.conjugate(ac_solutions(np.ascontiguousarray(G.T),
                                      np.ascontiguousarray(C.T),
                                      e_out.astype(complex), frequencies))

    output_psd = np.zeros(len(frequencies))
    contributions: dict[str, np.ndarray] = {}
    for (p, n, psd_fn), name in zip(sources, names):
        zp = y[:, p] if p >= 0 else 0.0
        zn = y[:, n] if n >= 0 else 0.0
        transfer_sq = np.abs(zp - zn) ** 2
        psd_vals = _psd_over(psd_fn, frequencies)
        contrib = psd_vals * transfer_sq
        contributions[name] = contributions.get(name, 0.0) + contrib
        output_psd += contrib

    input_psd = None
    gain_sq = None
    if refer_to_input:
        if not np.any(system.b_ac):
            raise AnalysisError("input referral needs an AC excitation")
        gain = ac_sweep(system, op, frequencies).voltage(output)
        gain_sq = np.abs(gain) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            input_psd = np.where(gain_sq > 0.0, output_psd / gain_sq, np.inf)
    return NoiseResult(frequencies=frequencies, output_psd=output_psd,
                       input_psd=input_psd, gain_squared=gain_sq,
                       contributions=contributions)
