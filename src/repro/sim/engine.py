"""Linear-algebra engine selection: dense LAPACK, sparse SuperLU, or
the sparse leg with condensed DC Newton.

The repo's historical circuits have 5–40 unknowns, where dense matrices
(and the dense stamp scatter maps of :mod:`repro.sim.system`) beat any
sparse format on both constant factors and simplicity.  Post-PEX mesh
netlists and the RC-interconnect chain scenarios push the unknown count
into the hundreds, where the dense ``O(n^3)`` solves (and the
``O(K n^2)`` scatter maps) stop scaling; those systems route their
factorisations through :mod:`repro.sim.sparse` instead.  Power-grid
meshes (:class:`~repro.topologies.power_grid.PowerGridOta`) push another
order of magnitude; the *iterative* leg keeps the sparse assembly and
factorisations and solves their gmin-0 DC Newton steps through the
exact condensation of the mesh interior (:mod:`repro.sim.condense`).
The leg is named after the ILU-preconditioned Krylov solver it used to
run, which the condensation made unnecessary and which is gone.

Selection contract
------------------
``REPRO_ENGINE`` picks the backend for every :class:`~repro.sim.system.
MnaSystem` built afterwards (the variable is read at *construction* time,
so tests can monkeypatch it per-case):

* ``auto`` (default) — dense below :data:`SPARSE_AUTO_THRESHOLD`
  unknowns, sparse direct between the two thresholds, iterative at or
  above :data:`ITERATIVE_AUTO_THRESHOLD`.  The first threshold sits at
  the crossover measured by ``benchmarks/bench_sparse_engine.py``; the
  second is explained where it is defined.
* ``dense`` — force dense everywhere (the pre-PR-3 behaviour).
* ``sparse`` — force sparse direct everywhere, including the small
  circuits.  Slower there (SuperLU's per-call overhead dwarfs a 15x15
  factorisation) but invaluable for the engine-equivalence test matrix.
* ``iterative`` — force the iterative leg everywhere: the sparse leg
  plus condensed DC Newton.  A system with a condensable interior
  solves its gmin-0 Newton steps through :mod:`repro.sim.condense`;
  every other Newton step, AC sweep and noise adjoint is bitwise the
  sparse leg's, so forcing it is always safe.

Callers that need a specific backend regardless of the environment pass
``engine="dense"``/``"sparse"``/``"iterative"`` explicitly to
:class:`MnaSystem` or :class:`~repro.sim.stamp.StampPlan`.
"""

from __future__ import annotations

from repro.knobs import env_knob, one_of

#: ``auto`` switches from dense to the sparse backend at this many MNA
#: unknowns.  Set from the crossover measured in
#: ``benchmarks/bench_sparse_engine.py`` on warm full evaluations of the
#: OTA chain family: dense wins ~1.6x at 41 unknowns, sparse wins ~2x at
#: 125 and ~3x at 221, so the single-eval crossover sits around 60-90.
#: The threshold is kept above it because *batched* workloads amortise
#: dense dispatch over the stack — 128 keeps every pre-chain topology
#: (schematic and lumped PEX) on the measured dense batch path while
#: routing mesh/chain scenarios sparse.
SPARSE_AUTO_THRESHOLD = 128

#: ``auto`` switches from sparse direct to the iterative leg (the
#: sparse leg plus condensed DC Newton) at this many unknowns.  No
#: registered scenario reaches it; only the 5k–50k-unknown power-grid
#: meshes of perfbench's ``mesh_walk`` and of the benches do, and each
#: has a condensable interior.  The value was the measured crossover of
#: the retired ILU-GMRES solver; it stays because moving it would change
#: which systems condense their DC Newton steps, and so their numerics
#: (a condensed step agrees with ``splu`` to the rounding plateau, not
#: bit for bit).
ITERATIVE_AUTO_THRESHOLD = 4096

_MODES = ("auto", "dense", "sparse", "iterative")
_EXPLICIT = ("dense", "sparse", "iterative")


def sparse_threshold() -> int:
    """Unknown count at which ``auto`` leaves the dense backend
    (:data:`SPARSE_AUTO_THRESHOLD`)."""
    return SPARSE_AUTO_THRESHOLD


def iterative_threshold() -> int:
    """Unknown count at which ``auto`` switches from sparse direct to
    the iterative leg (:data:`ITERATIVE_AUTO_THRESHOLD`)."""
    return ITERATIVE_AUTO_THRESHOLD


def engine_mode() -> str:
    """The configured engine mode (``auto``/``dense``/``sparse``/
    ``iterative``).

    Unknown values fall back to ``auto`` with a warning rather than
    raising: an engine knob must never turn a working simulation into a
    crash.
    """
    return env_knob("REPRO_ENGINE", one_of(*_MODES), "auto")


def resolve_engine(size: int, engine: str | None = None) -> str:
    """Resolve the backend for a system of ``size`` unknowns to one of
    ``"dense"``/``"sparse"``/``"iterative"``.

    ``engine`` overrides the environment when given (``"auto"`` and None
    defer to :func:`engine_mode`).  Unlike the forgiving environment
    knob, a bad *explicit* override is a programming error and raises —
    a typo must not silently hand a backend-pinned test the wrong
    engine.  ``auto`` applies both thresholds: dense below
    :data:`SPARSE_AUTO_THRESHOLD`, iterative at or above
    :data:`ITERATIVE_AUTO_THRESHOLD`, sparse direct in between.
    """
    if engine not in (None, *_MODES):
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {_MODES}")
    mode = engine if engine in _EXPLICIT else engine_mode()
    if mode in _EXPLICIT:
        return mode
    if size >= ITERATIVE_AUTO_THRESHOLD:
        return "iterative"
    if size >= SPARSE_AUTO_THRESHOLD:
        return "sparse"
    return "dense"

