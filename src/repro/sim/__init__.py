"""Circuit simulation engine: MNA assembly, DC/AC/transient/noise analyses.

The engine is a small SPICE, organised around a fixed-structure /
varying-values split (sizing loops restamp matrices in place instead of
rebuilding them) and vectorised device evaluation (one numpy call per
Newton iteration regardless of device count — or of *design* count, for
batched solves):

* :mod:`repro.sim.system` assembles modified-nodal-analysis matrices,
  with in-place restamping and precomputed stamp scatter maps;
* :mod:`repro.sim.stamp` caches MNA structure per netlist family
  (:class:`~repro.sim.stamp.StampPlan`);
* :mod:`repro.sim.dc` finds operating points (Newton with gmin/source
  stepping);
* :mod:`repro.sim.batch` solves stacked batches of same-structure designs
  with per-design convergence masking;
* :mod:`repro.sim.ac` sweeps small-signal transfer functions (modal
  pole–residue fast path with verified fallback);
* :mod:`repro.sim.linear` computes linearised step responses (for settling
  time);
* :mod:`repro.sim.transient` integrates the full nonlinear equations
  (trapezoidal steps through one damped Newton loop on the system's own
  engine leg);
* :mod:`repro.sim.faults` holds the supervision records of batched
  evaluation (per-batch :class:`~repro.sim.faults.BatchReport`,
  quarantine counters);
* :mod:`repro.sim.engine` selects the linear-algebra backend per system
  (``REPRO_ENGINE=auto|dense|sparse``, thresholded in ``auto`` by
  unknown count);
* :mod:`repro.sim.sparse` is the SuperLU backend for large netlists:
  one structure-cached CSC master pattern per system, in-place ``.data``
  refresh per sizing, cached ``splu`` factorisations for DC Newton, AC
  sweeps, the noise adjoint and transient steps;
* :mod:`repro.sim.condense` eliminates the sizing-invariant R/C
  interior of mesh-scale netlists exactly, out of every measured AC
  sweep and every gmin-0 DC Newton step of the sparse leg;
* :mod:`repro.sim.noise` computes output/input-referred noise spectra;
* :mod:`repro.sim.poles` extracts natural frequencies (pole analysis);
* :mod:`repro.sim.sweep` steps a source for VTC/output-swing analysis;
* :mod:`repro.sim.cache` caches and counts simulations (the paper's
  sample-efficiency metric counts simulator invocations).
"""

from repro.sim.ac import ACResult, ac_node_response, ac_sweep, transfer_function
from repro.sim.batch import BatchDcResult, SystemStack, solve_dc_batch
from repro.sim.cache import SimulationCache, SimulationCounter
from repro.sim.dc import OperatingPoint, solve_dc
from repro.sim.engine import (
    SPARSE_AUTO_THRESHOLD,
    engine_mode,
    resolve_engine,
    sparse_threshold,
)
from repro.sim.linear import linear_step_response
from repro.sim.noise import NoiseResult, noise_analysis
from repro.sim.poles import PoleSet, circuit_poles
from repro.sim.stamp import StampPlan
from repro.sim.sweep import DcSweepResult, dc_sweep
from repro.sim.system import MnaSystem, StructureMismatch
from repro.sim.transient import TransientResult, transient_analysis

__all__ = [
    "ACResult",
    "BatchDcResult",
    "DcSweepResult",
    "MnaSystem",
    "SPARSE_AUTO_THRESHOLD",
    "engine_mode",
    "resolve_engine",
    "sparse_threshold",
    "NoiseResult",
    "OperatingPoint",
    "PoleSet",
    "SimulationCache",
    "SimulationCounter",
    "StampPlan",
    "StructureMismatch",
    "SystemStack",
    "TransientResult",
    "ac_node_response",
    "ac_sweep",
    "circuit_poles",
    "dc_sweep",
    "linear_step_response",
    "noise_analysis",
    "solve_dc",
    "solve_dc_batch",
    "transfer_function",
    "transient_analysis",
]
