"""risbal's foreign calls, all through ctypes: numpy's OpenBLAS, whose thread
setter and LAPACKE's zheevr are looked up once, at import, on numpy's linalg
extension, whose handle also searches the libraries it links; and glibc's
mallopt, set on a process's first drop. Each has a fallback where the library
lacks it, so a drop's results never depend on whether it is found."""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading

import numpy as np
import numpy.linalg._umath_linalg

from .errors import NumericalError


def _function(name: str, argtypes: list, restype):
    """Function name of numpy's linalg extension or a library it links, typed
    with argtypes and restype; None where the extension cannot be opened or
    none exports the name."""
    try:
        function = getattr(ctypes.CDLL(numpy.linalg._umath_linalg.__file__), name)
    except (OSError, AttributeError):
        return None
    function.argtypes, function.restype = argtypes, restype
    return function


# None where numpy's libraries do not export them: the setter under MKL,
# Accelerate and OpenBLAS < 0.3.27, zheevr (LAPACKE's, with 64-bit integers)
# outside numpy >= 2 wheels
set_blas_threads = _function("openblas_set_num_threads_local", [ctypes.c_int], ctypes.c_int)
_i64, _f64, _ptr, _char = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
zheevr = _function(
    "scipy_LAPACKE_zheevr64_",
    # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
    [ctypes.c_int, _char, _char, _char, _i64, _ptr, _i64, _f64, _f64, _i64, _i64, _f64,
     _ptr, _ptr, _ptr, _i64, _ptr],
    _i64,
)

_LAPACK_ROW_MAJOR = 101

# glibc's mallopt parameters (malloc.h) and the values _keep_freed_blocks sets.
# By default glibc raises its mmap threshold to the largest mapped block freed
# and trims the heap's top once more than twice that is free there. A drop at
# M = 512 frees more than that at once (with a 2 MiB trim threshold it still
# faults hundreds of pages in per cell, with 8 MiB almost none), so every drop
# gave pages back and faulted them in again. These fix the end state of glibc's
# own rule from the start: the mmap threshold at its 64-bit ceiling of 32 MiB
# (DEFAULT_MMAP_THRESHOLD_MAX), the trim threshold at twice it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD, _TRIM_THRESHOLD = 32 << 20, 64 << 20


@functools.cache
def _keep_freed_blocks() -> bool:
    """Set glibc's mmap and trim thresholds once per process, on first use, so
    that the blocks one drop frees serve the next rather than being unmapped
    or trimmed and faulted in again; True if mallopt applied both. A no-op
    that returns False where libc has no mallopt (macOS, Windows) or a stub
    that applies nothing (musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return all([mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD),
                mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)])


_drop_lock = threading.Lock()


@contextlib.contextmanager
def drop_scope():
    """Run the block as a drop: under the heap policy of _keep_freed_blocks,
    set on a process's first drop, and on one thread of numpy's OpenBLAS,
    where it exports the setter, restoring the caller's count after. The
    setter changes the whole process's count, so the block holds a lock:
    drops entered from several threads run one at a time."""
    _keep_freed_blocks()
    setter = set_blas_threads
    with _drop_lock:
        saved = setter(1) if setter else None
        try:
            yield
        finally:
            if setter:
                setter(saved)


def top_eigenpair(K: np.ndarray) -> tuple[float, np.ndarray]:
    """The algebraically largest eigenvalue of the Hermitian K, read from its
    lower triangle, and a unit eigenvector for it: that pair alone, by
    LAPACK's zheevr (bisection and inverse iteration on K's tridiagonal form)
    where numpy's OpenBLAS exports it, otherwise the last of np.linalg.eigh's.
    K's entries must be finite. NumericalError is raised if the eigensolve
    fails."""
    if zheevr is None:
        try:
            vals, vecs = np.linalg.eigh(K)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"eigendecomposition failed: {exc}") from exc
        return vals[-1], vecs[:, -1]
    n = len(K)
    a = np.array(K, dtype=complex, order="C")  # zheevr overwrites its input
    # w takes every copy of a repeated top eigenvalue, so it has n entries
    w, z = np.empty(n), np.empty(n, dtype=complex)
    m, isuppz = np.empty(1, dtype=np.int64), np.empty(2, dtype=np.int64)
    info = zheevr(_LAPACK_ROW_MAJOR, b"V", b"I", b"L", n, a.ctypes.data, n, 0.0, 0.0, n, n,
                  0.0, m.ctypes.data, w.ctypes.data, z.ctypes.data, 1, isuppz.ctypes.data)
    if info != 0:
        raise NumericalError(f"eigendecomposition failed: zheevr returned info {info}")
    return w[0], z
