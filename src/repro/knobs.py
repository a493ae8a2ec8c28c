"""Parsing of the ``REPRO_*`` environment knobs.

The forgiving knob reader (engine selection) goes through
:func:`env_knob`.  A value the reader cannot use falls back to the
built-in default, so a typo never turns a working run into a crash, but
it never does so silently either: the first time a (variable, value)
pair is rejected, a :class:`RuntimeWarning` names the variable, the
rejected value and the value used instead.  Unset and empty variables
mean "use the default" and stay silent.  (The zoo directories are
strict and raise instead.)
"""

from __future__ import annotations

import os
import warnings
from typing import Callable, TypeVar

T = TypeVar("T")

#: (variable, value) pairs already warned about in this process.
_WARNED: set[tuple[str, str]] = set()


def env_knob(name: str, parse: Callable[[str], T], default: T) -> T:
    """Value of knob ``name``: ``parse`` applied to its stripped text.

    Returns ``default`` when the variable is unset or empty, and when
    ``parse`` rejects the text by raising :class:`ValueError` (whose
    message says what was expected); a rejection warns once per
    (variable, value).
    """
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError as exc:
        if (name, raw) not in _WARNED:
            _WARNED.add((name, raw))
            warnings.warn(f"ignoring {name}={raw!r} ({exc}); using "
                          f"{default!r}", RuntimeWarning, stacklevel=2)
        return default


def one_of(*choices: str) -> Callable[[str], str]:
    """Parser accepting one of ``choices`` (case-insensitive)."""
    def parse(raw: str) -> str:
        value = raw.lower()
        if value not in choices:
            raise ValueError(f"expected one of {'|'.join(choices)}")
        return value
    return parse
