"""Reflection-coefficient design balancing the serving cell against the victim cell.

The surface shapes each user's reflected link linearly through a cascaded
matrix A = diag(h^H) G. Summing Gram matrices per cell gives the total
reflective gain (cell 1) and the total uncontrolled gain (cell 2); their
Frobenius-normalized difference, weighted by lambda, is the Hermitian
balance matrix R. The design maximizes phi^H R phi over unit-modulus phi
with the Riemannian trust-region solver; an eigenvector-rounding shortcut and
uniform random phases serve as baselines.

R is never formed: it is posed as B diag(d) B^H with real weights d, where
each Gram total is B_i B_i^H and B = [B_1 B_2] has at most 2 K (L + 1)
columns whatever the surface size M, so a weight changes only d and a
gradient costs O(M c). The warm start takes the top eigenpair alone of the
r x r core T diag(d) T^H, for the triangular factor T of B = Q T, lifts it
through B, without Q, and pins its global phase, which cell 2's rate sees.
A dense Hermitian R = V diag(w) V^H takes the same form: B = V, T = I, d = w.

design_balanced hands the solver the dominant part of the Hessian's
positive-semidefinite leakage term 2 lam/n_2 B_2 B_2^H: its top 8
directions, from one SVD of T's B_2 block per factor, which the solver's
Newton phase adds to its preconditioner.
"""

from __future__ import annotations

import ctypes
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import manifold
from ._openblas import openblas_exports
from .channel import ChannelSet
from .errors import NormalizationError, NumericalError
from .manifold import RcgTrace

__all__ = [
    "GramFactor",
    "effective_channels",
    "balance_matrix",
    "p1_problem",
    "design_balanced",
    "design_eigen",
    "design_random",
]


# The leakage term handed to the solver keeps the top _LEAKAGE_RANK
# directions of B_2.
_LEAKAGE_RANK = 8

_LAPACK_ROW_MAJOR = 101


def _check_balance(n1: float, n2: float, lam: float) -> None:
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"balancing weight {lam!r} must be nonnegative and finite")
    if not (0.0 < n1 < np.inf and 0.0 < n2 < np.inf):
        raise NormalizationError(
            f"gain-total norms {n1:.3e}, {n2:.3e} must be positive and finite"
        )


@dataclass(frozen=True)
class GramFactor:
    """R = B diag(d) B^H for real weights d over B's c columns, in factor form:
    B (M, c), Bh = B^H kept contiguous for the solver's matvecs, and T (r, c),
    r = min(M, c), upper triangular with B = Q T for some Q (M, r) with
    orthonormal columns. In a drop's [B_1 B_2] the first c1 columns are B_1's.
    """

    B: np.ndarray
    Bh: np.ndarray
    T: np.ndarray
    c1: int

    @cached_property
    def leakage_basis(self) -> np.ndarray:
        """B_2 Z, (M, k), for Z the top k = min(8, r, c - c1) right singular
        vectors of T_2 = T[:, c1:], which are B_2's as B_2 = Q T_2: the
        dominant part of the leakage total B_2 B_2^H. One SVD per factor,
        taken on first use and kept with it, as it does not depend on the
        weight. NumericalError is raised if the SVD fails."""
        c1 = self.c1
        try:
            Vh = np.linalg.svd(self.T[:, c1:], full_matrices=False)[2]
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"leakage-subspace SVD failed: {exc}") from exc
        return self.B[:, c1:] @ Vh[:_LEAKAGE_RANK].conj().T

    @cached_property
    def _norms(self) -> tuple[float, float]:
        """n_i = ||At_i||_F of the two Gram totals At_i = B_i B_i^H, taken as
        ||T_i^H T_i||_F on first use and kept, as they do not depend on the
        weight; inf or nan, without a warning, where they overflow."""
        c1 = self.c1
        with np.errstate(over="ignore", invalid="ignore"):
            return tuple(np.linalg.norm(Ti.conj().T @ Ti)
                         for Ti in (self.T[:, :c1], self.T[:, c1:]))

    def weights(self, lam: float) -> np.ndarray:
        """d of R = At_1/n_1 - lam At_2/n_2 = B diag(d) B^H for At_i = B_i B_i^H:
        1/n_1 on B_1's columns, -lam/n_2 on B_2's, n_i = ||At_i||_F taken as
        ||T_i^H T_i||_F; balance_matrix's checks and errors, without a warning."""
        n1, n2 = self._norms
        _check_balance(n1, n2, lam)
        return np.repeat([1.0 / n1, -lam / n2], [self.c1, self.T.shape[1] - self.c1])


def effective_channels(channels: ChannelSet) -> GramFactor:
    """Both Gram totals At_i = sum_k A_ik A_ik^H of one draw, in factor form:
    B_i B_i^H = At_i for B_i with a column h_k^H o f per user row h_k^H of
    cell i and column f of G_i's range factor, T from a QR of B in mode 'r'.
    Products that overflow give inf or nan entries, without a warning, and
    GramFactor.weights rejects their norms."""
    with np.errstate(over="ignore", invalid="ignore"):
        B1, B2 = ((h_r.T[:, :, None] * F[:, None, :]).reshape(len(F), -1)
                  for h_r, F in ((channels.h_r1, channels.G1_range),
                                 (channels.h_r2, channels.G2_range)))
        B = np.hstack([B1, B2])
        try:
            T = np.linalg.qr(B, mode="r")
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Gram-factor QR failed: {exc}") from exc
    return GramFactor(B, np.ascontiguousarray(B.conj().T), T, B1.shape[1])


def balance_matrix(At1: np.ndarray, At2: np.ndarray, lam: float) -> np.ndarray:
    """R = At1/||At1||_F - lam * At2/||At2||_F, Hermitian when both totals are:
    the dense form of GramFactor.weights, with the same checks."""
    # finite entries can have a norm that overflows; the check reports it
    with np.errstate(over="ignore"):
        n1 = np.linalg.norm(At1)
        n2 = np.linalg.norm(At2)
    _check_balance(n1, n2, lam)
    return At1 / n1 - lam * (At2 / n2)


def p1_problem(gram: GramFactor, d: np.ndarray) -> tuple[Callable, Callable]:
    """(objective, euclid_grad) of minimizing -phi^H R phi for R = B diag(d) B^H:
    with z = B^H phi, -sum_j d_j |z_j|^2 and -2 R phi = B (-2 d o z), two
    matvecs of O(M c) each. The gradient is linear in phi, so the solver's
    Hessian products, one gradient call each, are exact."""
    B, Bh = gram.B, gram.Bh
    scale = -2.0 * d

    def objective(phi: np.ndarray) -> float:
        z = Bh @ phi
        return -float(np.vdot(z, d * z).real)

    def euclid_grad(phi: np.ndarray) -> np.ndarray:
        return B @ (scale * (Bh @ phi))

    return objective, euclid_grad


@cache
def _zheevr():
    """LAPACKE's zheevr in numpy's OpenBLAS (numpy >= 2 wheels, 64-bit
    integers), looked up on first use; None where no loaded OpenBLAS exports it."""
    i64, f64, ptr, char = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p, ctypes.c_char
    found = openblas_exports(
        "scipy_LAPACKE_zheevr64_",
        # layout, jobz, range, uplo, n, a, lda, vl, vu, il, iu, abstol, m, w, z, ldz, isuppz
        [ctypes.c_int, char, char, char, i64, ptr, i64, f64, f64, i64, i64, f64,
         ptr, ptr, ptr, i64, ptr],
        i64,
    )
    return found[0] if found else None


def _top_eigenpair(K: np.ndarray) -> tuple[float, np.ndarray]:
    """The algebraically largest eigenvalue of the Hermitian K, read from its
    lower triangle, and a unit eigenvector for it: that pair alone, by
    LAPACK's zheevr (bisection and inverse iteration on K's tridiagonal form)
    where numpy's OpenBLAS exports it, otherwise the last of np.linalg.eigh's.
    K's entries must be finite. NumericalError is raised if the eigensolve
    fails."""
    zheevr = _zheevr()
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


def design_eigen(gram: GramFactor, d: np.ndarray) -> np.ndarray:
    """Relaxation baseline: normalize each entry of R's top eigenvector.

    The r x r core K = T diag(d) T^H has R's nonzero eigenvalues; its top
    eigenpair (mu, w), the only one computed, lifts to R's as
    B (d o (T^H w)) / mu = Q w when mu is positive, or negative with r = M,
    beyond rounding (r eps r max|K_ij|, where r max|K_ij| bounds K's
    eigenvalues without squaring its entries). Otherwise Q is formed: with
    r = M the vector is Q w; with r < M, R's top eigenspace (eigenvalue 0)
    contains null(Q^H), and the vector is its projector's column of largest
    norm, of squared norm at least 1 - r/M. The vector v is then turned to
    the global phase that makes sum(v) real and positive (left as it is
    where the sum is 0), so the warm start does not depend on the phase the
    eigensolver returns: the objective is blind to it, cell 2's rate is not.
    A zero entry has no phase and takes phase 0. NumericalError is raised if
    K has a non-finite entry or the eigensolve fails.
    """
    B, T = gram.B, gram.T
    r, M = T.shape[0], B.shape[0]
    K = (T * d) @ T.conj().T
    largest = np.abs(K).max()  # nan or inf if any entry is
    # numpy's floating-point policy does not reach LAPACK's own code
    if not np.isfinite(largest):
        raise NumericalError("Gram core has non-finite entries")
    tol = r * np.finfo(float).eps * r * largest
    mu, w = _top_eigenpair(K)
    if mu > tol or (mu < -tol and r == M):
        v = B @ (d * (T.conj().T @ w)) / mu
    else:
        Q = np.linalg.qr(B)[0]
        if r == M:
            v = Q @ w
        else:
            m = int(np.argmin(np.linalg.norm(Q, axis=1)))
            v = -(Q @ Q[m].conj())
            v[m] += 1.0
    total = v.sum()
    if total != 0.0:
        v = v * (abs(total) / total)
    v = np.where(np.abs(v) == 0.0, 1.0 + 0j, v)  # complex also for a real factor
    return v / np.abs(v)


def design_random(M: int, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform phases in [0, 2 pi)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))


def design_balanced(gram: GramFactor, d: np.ndarray,
                    phi0: np.ndarray | None = None) -> tuple[np.ndarray, RcgTrace]:
    """Maximize phi^H R phi over unit-modulus phi with the trust-region
    solver, for R = B diag(d) B^H (a drop's gram and d = gram.weights(lam)).

    Columns of weight 0 add nothing to R, so B's trailing ones (B_2's at
    lam = 0) are left out; B's leading columns have T's leading block as
    their factor. phi0 defaults to design_eigen of that problem, which the
    solver can only improve. When B_2's weight is negative, the solver gets
    psd_term = (gram.leakage_basis, -2 d[c1]), the dominant part of the
    Hessian's leakage term -2 d[c1] B_2 B_2^H, for its Newton phase;
    otherwise (lam = 0) none. NumericalError is raised if the warm start's
    eigensolve or the leakage SVD fails.
    """
    c = max(1, int(np.flatnonzero(d).max(initial=-1)) + 1)
    if c < len(d):
        r = min(len(gram.B), c)
        gram, d = GramFactor(gram.B[:, :c], gram.Bh[:c], gram.T[:r, :c], min(gram.c1, c)), d[:c]
    if phi0 is None:
        phi0 = design_eigen(gram, d)
    c1 = gram.c1
    psd_term = (gram.leakage_basis, -2.0 * d[c1]) if len(d) > c1 and d[c1] < 0.0 else None
    return manifold.rcg_minimize(*p1_problem(gram, d), phi0, psd_term)
