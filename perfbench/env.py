"""Locating the program under test and isolating it from the caller's
environment.  Imported before anything from ``repro``."""

from __future__ import annotations

import os
import sys

#: Knobs that would silently change what a run measures.
CLEARED_VARS = ("REPRO_ENGINE", "REPRO_OPT", "REPRO_BATCH_ENGINE",
                "REPRO_VEC", "REPRO_COMPILE_CACHE", "REPRO_CACHE_DISK",
                "REPRO_CACHE_DIR")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` to measure."""


def prepare() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and clear the
    environment knobs; raises :class:`MissingProgram` without ``src``."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no repro package under {SRC}")
    for name in CLEARED_VARS:
        os.environ.pop(name, None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise MissingProgram(f"imported repro from {repro.__file__}, "
                             f"not from {SRC}")
