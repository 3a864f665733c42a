"""Functions of numpy's OpenBLAS, called through ctypes: looked up on numpy's
linalg extension, whose handle also searches the libraries it links."""

from __future__ import annotations

import ctypes
import functools

import numpy.linalg._umath_linalg


@functools.cache
def _numpy_linalg() -> ctypes.CDLL | None:
    """numpy's linalg extension, opened on first use; None where it cannot be."""
    try:
        return ctypes.CDLL(numpy.linalg._umath_linalg.__file__)
    except OSError:
        return None


def openblas_function(name: str, argtypes: list, restype):
    """Function name of numpy's linalg extension or a library it links, typed
    with argtypes and restype; None where none exports it."""
    try:  # None, where the extension cannot be opened, has no such attribute either
        function = getattr(_numpy_linalg(), name)
    except AttributeError:
        return None
    function.argtypes, function.restype = argtypes, restype
    return function
