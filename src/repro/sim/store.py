"""Leftover of the removed persistent result store.

Every evaluation resolves through the per-simulator memo
(:class:`repro.sim.cache.SimulationCache`) and then the engine; there is
no persistent tier any more.  This module stays only because the
benchmark harness (``perfbench/harness.py``) imports :func:`get_store`
for its run-metadata record, and benchmark runs would fail without it.
Nothing in the package imports it; delete it once that import is gone.
"""

from __future__ import annotations


def get_store() -> None:
    """Always None: the persistent result store no longer exists."""
    return None
