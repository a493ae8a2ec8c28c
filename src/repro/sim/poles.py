"""Pole analysis of the linearised circuit.

The natural frequencies of ``C dx/dt + G x = 0`` are the finite
generalised eigenvalues ``s`` of the pencil ``(-G, C)``: nontrivial
solutions ``x e^{st}`` exist iff ``det(sC + G) = 0``.  MNA systems always
carry algebraic rows (capacitor-free KCL equations, source branch rows),
which show up as infinite eigenvalues and are filtered out.

A designer reads three things off the pole set, and this module computes
all of them:

* stability — any pole in the right half plane means the bias point is
  unstable (the negative-g_m OTA of paper §III-C lives near this edge);
* the dominant pole — sets the -3 dB bandwidth of an amplifier;
* pole Q — complex pairs with high Q mean peaking/ringing, which is what
  the phase-margin spec guards against.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy import linalg as scipy_linalg

from repro.errors import AnalysisError
from repro.sim.dc import OperatingPoint
from repro.sim.system import MnaSystem


@dataclasses.dataclass(frozen=True)
class PoleSet:
    """Finite natural frequencies of a linearised circuit [rad/s]."""

    poles: np.ndarray  # complex, sorted by |Re| ascending

    def __len__(self) -> int:
        return len(self.poles)

    @property
    def stable(self) -> bool:
        """True when every finite pole lies in the open left half plane."""
        return bool(np.all(np.real(self.poles) < 0.0))

    @property
    def dominant(self) -> complex:
        """The pole closest to the imaginary axis (slowest dynamics)."""
        if len(self.poles) == 0:
            raise AnalysisError("circuit has no finite poles")
        return complex(self.poles[np.argmin(np.abs(np.real(self.poles)))])

    def dominant_frequency_hz(self) -> float:
        """|dominant pole| / 2 pi — the single-pole bandwidth estimate."""
        return float(abs(self.dominant) / (2.0 * np.pi))

    def q_factors(self) -> list[float]:
        """Q of each complex-conjugate pair (0.5 for real poles).

        ``Q = |p| / (2 |Re p|)``; pairs are reported once.
        """
        qs = []
        seen = set()
        for i, p in enumerate(self.poles):
            if i in seen:
                continue
            if abs(p.imag) > 1e-9 * abs(p):
                # find the conjugate partner and skip it
                for j in range(i + 1, len(self.poles)):
                    if j not in seen and np.isclose(self.poles[j], np.conj(p),
                                                    rtol=1e-6, atol=1e-3):
                        seen.add(j)
                        break
            denom = 2.0 * abs(p.real)
            qs.append(float(abs(p) / denom) if denom > 0.0 else float("inf"))
        return qs

    def max_q(self) -> float:
        """Worst (highest) pole Q — the ringing indicator."""
        qs = self.q_factors()
        return max(qs) if qs else 0.5


def circuit_poles(system: MnaSystem, op: OperatingPoint, *,
                  max_abs: float = 1e15) -> PoleSet:
    """Finite poles of the circuit linearised at ``op``.

    ``max_abs`` [rad/s] separates genuine fast poles from the numerically-
    infinite eigenvalues of the algebraic MNA rows.
    """
    G, C = system.small_signal_matrices(op)
    if G.shape[0] == 0:
        raise AnalysisError("empty system has no poles")
    # Generalised problem: s C x = -G x.
    alphas, betas = scipy_linalg.eig(-G, C, right=False,
                                     homogeneous_eigvals=True)
    poles = []
    for a, b in zip(alphas, betas):
        if abs(b) < 1e-300:         # infinite eigenvalue (algebraic row)
            continue
        s = a / b
        if not np.isfinite(s) or abs(s) > max_abs:
            continue
        poles.append(s)
    arr = np.asarray(poles, dtype=complex)
    arr = arr[np.argsort(np.abs(np.real(arr)))]
    return PoleSet(poles=arr)
