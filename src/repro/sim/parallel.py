"""Leftover of the removed multiprocess simulator shard pool.

Batched evaluation runs in process through the one
``CircuitSimulator.evaluate_batch`` path, with in-process bisection and
quarantine of faulting designs; there is no shard pool any more.  This
module stays only because the benchmark harness
(``perfbench/harness.py``) imports :func:`shard_count` for its
run-metadata record, and benchmark runs would fail without it.  Nothing
in the package imports it; delete it once that import is gone.
"""

from __future__ import annotations


def shard_count() -> int:
    """Always 1: every batch is evaluated in the calling process."""
    return 1
