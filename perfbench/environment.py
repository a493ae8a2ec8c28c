"""Process set-up that must happen before numpy or the program is imported.

Kept free of third-party imports: the BLAS thread count is read when
numpy loads, and ``REPRO_*`` knobs are read by the program at import and
call time, so both are fixed here first.
"""

from __future__ import annotations

import os
import pathlib
import sys

#: Thread-count variables of the BLAS builds numpy may ship with.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
BLAS_THREADS = "1"


class MissingProgram(RuntimeError):
    """The checkout holds no program source to benchmark."""


def prepare_environment(root: pathlib.Path) -> dict[str, str]:
    """Clear inherited ``REPRO_*`` knobs, pin BLAS to one thread and put
    ``root/src`` first on the import path.

    Returns the ``REPRO_*`` variables that were removed, so the run record
    shows what the caller had set.  Raises :class:`MissingProgram` when
    ``root/src/repro`` does not exist.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("prepare_environment must run before numpy loads")
    cleared = {key: os.environ.pop(key) for key in sorted(os.environ)
               if key.startswith("REPRO_")}
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = pathlib.Path(root) / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no program source under {src}")
    sys.path.insert(0, str(src))
    return cleared


def check_imported_from(root: pathlib.Path) -> None:
    """Fail unless ``repro`` was imported from ``root/src``."""
    import repro

    src = (pathlib.Path(root) / "src").resolve()
    origin = pathlib.Path(repro.__file__).resolve()
    if src not in origin.parents:
        raise MissingProgram(f"repro imported from {origin}, not {src}")
