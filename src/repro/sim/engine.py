"""Linear-algebra engine selection: dense LAPACK or sparse SuperLU.

The repo's historical circuits have 5–40 unknowns, where dense matrices
(and the dense stamp scatter maps of :mod:`repro.sim.system`) beat any
sparse format on both constant factors and simplicity.  Post-PEX mesh
netlists, the RC-interconnect chain scenarios and the power-grid meshes
(:class:`~repro.topologies.power_grid.PowerGridOta`) push the unknown
count into the hundreds and thousands, where the dense ``O(n^3)`` solves
(and the ``O(K n^2)`` scatter maps) stop scaling; those systems route
their factorisations through :mod:`repro.sim.sparse` instead, and where
a system has a sizing-invariant R/C interior the sparse leg condenses it
out of the measured AC sweep and of the gmin-0 DC Newton steps
(:mod:`repro.sim.condense`).

Selection contract
------------------
``REPRO_ENGINE`` picks the backend for every :class:`~repro.sim.system.
MnaSystem` built afterwards (the variable is read at *construction* time,
so tests can monkeypatch it per-case):

* ``auto`` (default) — dense below :data:`SPARSE_AUTO_THRESHOLD`
  unknowns, sparse from there up.  The threshold sits at the crossover
  measured by ``benchmarks/bench_sparse_engine.py``.
* ``dense`` — force dense everywhere (the pre-PR-3 behaviour).
* ``sparse`` — force sparse everywhere, including the small circuits.
  Slower there (SuperLU's per-call overhead dwarfs a 15x15
  factorisation) but invaluable for the engine-equivalence test matrix.

Any other value (``iterative``, the name of a retired third leg,
included) warns and runs ``auto``.  Callers that need a specific backend
regardless of the environment pass ``engine="dense"``/``"sparse"``
explicitly to :class:`MnaSystem` or :class:`~repro.sim.stamp.StampPlan`.
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

#: Selects nothing.  It was the unknown count at which ``auto`` switched
#: to a third engine leg, which the sparse leg has absorbed; it stays,
#: with :func:`iterative_threshold`, only because ``perfbench``'s
#: ``harness.run_metadata`` reads it, until perfbench reads one public
#: knob record instead.
ITERATIVE_AUTO_THRESHOLD = 4096

_MODES = ("auto", "dense", "sparse")
_EXPLICIT = ("dense", "sparse")


def sparse_threshold() -> int:
    """Unknown count at which ``auto`` leaves the dense backend
    (:data:`SPARSE_AUTO_THRESHOLD`)."""
    return SPARSE_AUTO_THRESHOLD


def iterative_threshold() -> int:
    """:data:`ITERATIVE_AUTO_THRESHOLD`, which selects nothing (kept for
    the benchmark harness's run metadata)."""
    return ITERATIVE_AUTO_THRESHOLD


def engine_mode() -> str:
    """The configured engine mode (``auto``/``dense``/``sparse``).

    Unknown values fall back to ``auto`` with a warning rather than
    raising: an engine knob must never turn a working simulation into a
    crash.
    """
    return env_knob("REPRO_ENGINE", one_of(*_MODES), "auto")


def resolve_engine(size: int, engine: str | None = None) -> str:
    """Resolve the backend for a system of ``size`` unknowns to
    ``"dense"`` or ``"sparse"``.

    ``engine`` overrides the environment when given (``"auto"`` and None
    defer to :func:`engine_mode`).  Unlike the forgiving environment
    knob, a bad *explicit* override is a programming error and raises —
    a typo must not silently hand a backend-pinned test the wrong
    engine.  ``auto`` is dense below :data:`SPARSE_AUTO_THRESHOLD` and
    sparse from there up.
    """
    if engine not in (None, *_MODES):
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {_MODES}")
    mode = engine if engine in _EXPLICIT else engine_mode()
    if mode in _EXPLICIT:
        return mode
    return "sparse" if size >= SPARSE_AUTO_THRESHOLD else "dense"
