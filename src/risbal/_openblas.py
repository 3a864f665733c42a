"""Exports of the OpenBLAS libraries loaded into this process, called through
ctypes: numpy's wheels load one, so no library is added."""

from __future__ import annotations

import contextlib
import ctypes
import functools


@functools.cache
def _libraries() -> tuple[ctypes.CDLL, ...]:
    """Each OpenBLAS mapped in /proc/self/maps, scanned on first use; empty
    where there is none (MKL, Accelerate) or no /proc (not Linux)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split(maxsplit=5)[-1].strip() for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return ()
    libraries = []
    for path in sorted(paths):
        with contextlib.suppress(OSError):
            libraries.append(ctypes.CDLL(path))
    return tuple(libraries)


def openblas_exports(name: str, argtypes: list, restype) -> tuple:
    """The function name of each loaded OpenBLAS that exports it, typed with
    argtypes and restype; empty if none does."""
    found = []
    for library in _libraries():
        with contextlib.suppress(AttributeError):
            found.append(getattr(library, name))
            found[-1].argtypes, found[-1].restype = argtypes, restype
    return tuple(found)
