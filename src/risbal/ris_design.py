"""Reflection-coefficient design balancing the serving cell against the victim cell.

The surface shapes each user's reflected link linearly through a cascaded
matrix A = diag(h^H) G. Summing Gram matrices per cell gives the total
reflective gain (cell 1) and the total uncontrolled gain (cell 2); their
Frobenius-normalized difference, weighted by lambda, is the Hermitian
balance matrix R. The design maximizes phi^H R phi over unit-modulus phi
with the Riemannian trust-region solver; an eigenvector-rounding shortcut and
uniform random phases serve as baselines.

Every step takes and returns plain arrays. Each Gram total is B_i B_i^H,
whose factor B_i stacks the columns diag(h_k^H) g over a basis g of G_i's
range; G_i is a sum of a few rank-1 paths, so [B_1 B_2] has far fewer columns
than M. effective_channels takes, once per drop, the Householder QR
[B_1 B_2] = U T; U (M, r), r = min(M, c) for c columns, is orthonormal at any
rank and holds both totals in its range, K_i = T_i T_i^H = U^H At_i U with
At_i = U K_i U^H. This core is the only form in which the totals are built.
Since U^H U = I, ||K_i||_F = ||At_i||_F, so balance_matrix(K1, K2, lam) is the
core U^H R U of R = U (U^H R U) U^H. The designs take that r x r core with
its basis U and never form R: the warm start is an r x r eigensolve, and
p1_problem forms W = -2 U core once per design, so each solver gradient
-2 R phi = W (U^H phi) costs O(M r) instead of O(M^2). The identity basis
poses a dense problem, R being its own core.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from . import manifold
from .channel import ChannelSet
from .errors import HermitianViolationError, NormalizationError, NumericalError
from .manifold import RcgConfig, RcgTrace

__all__ = [
    "effective_channels",
    "balance_matrix",
    "p1_problem",
    "design_balanced",
    "design_eigen",
    "design_random",
]

_HERMITIAN_TOL = 1e-9


def _numerical_rank(s: np.ndarray, shape: tuple[int, ...]) -> int:
    """Singular values s (descending) above np.linalg.matrix_rank's tolerance;
    0 for an empty s. The tolerance is scaled last, so it cannot overflow."""
    return int(np.count_nonzero(s > np.finfo(s.dtype).eps * max(shape) * s.max(initial=0.0)))


def _gram_factor(h_r: np.ndarray, G: np.ndarray) -> np.ndarray:
    """B with B B^H = sum_k A_k A_k^H, from G's numerical range.

    With G = W S X^H truncated at its rank q, G G^H = (W S)(W S)^H, so the
    columns h_r[k] * (W S)[:, j] serve; q <= paths + 1 keeps B narrow.
    """
    W, s, _ = np.linalg.svd(G, full_matrices=False)
    q = _numerical_rank(s, G.shape)
    F = W[:, :q] * s[:q]
    return (h_r.T[:, :, None] * F[:, None, :]).reshape(G.shape[0], -1)


def effective_channels(channels: ChannelSet) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both Gram totals At_i = sum_k A_ik A_ik^H of one draw, in their core:
    an orthonormal basis U (M, r) whose range holds both totals and
    K_i = U^H At_i U (r, r), exactly Hermitian, with At_i = U K_i U^H.

    U is the Q of a reduced Householder QR [B_1 B_2] = Q T, so r = min(M, c)
    for the c columns of [B_1 B_2]; Q is orthonormal to rounding whatever the
    rank, and B_i B_i^H = Q T_i T_i^H Q^H for T_i the columns of T
    that belong to cell i, so K_i = T_i T_i^H. Gains the numbers cannot carry
    come out as norms balance_matrix rejects: an all-zero G_i adds no columns,
    so K_i = 0 (r = 0 when both are), and products that overflow give inf or
    nan entries, without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            B1 = _gram_factor(channels.h_r1, channels.G1)
            Q, T = np.linalg.qr(np.hstack([B1, _gram_factor(channels.h_r2, channels.G2)]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Gram-core factorization failed: {exc}") from exc
        T1, T2 = T[:, : B1.shape[1]], T[:, B1.shape[1]:]
        K1 = T1 @ T1.conj().T
        K2 = T2 @ T2.conj().T
        return Q, (K1 + K1.conj().T) / 2.0, (K2 + K2.conj().T) / 2.0


def balance_matrix(At1: np.ndarray, At2: np.ndarray, lam: float) -> np.ndarray:
    """R = At1/||At1||_F - lam * At2/||At2||_F, Hermitian when both totals are."""
    if not 0.0 <= lam < np.inf:
        raise ValueError(f"balancing weight {lam!r} must be nonnegative and finite")
    # finite entries can have a norm that overflows; the check below reports it
    with np.errstate(over="ignore"):
        n1 = np.linalg.norm(At1)
        n2 = np.linalg.norm(At2)
    if not (0.0 < n1 < np.inf and 0.0 < n2 < np.inf):
        raise NormalizationError(
            f"gain-total norms {n1:.3e}, {n2:.3e} must be positive and finite"
        )
    return At1 / n1 - lam * (At2 / n2)


def p1_problem(R: np.ndarray, basis: np.ndarray) -> tuple[Callable, Callable]:
    """(objective, euclid_grad) of minimizing -Re(phi^H U R U^H phi) for basis
    U (M, r) and r x r core R; the identity basis poses a dense problem.

    Uh = U^H and W = -2 U R are formed once: the objective is -Re(z^H R z) with
    z = Uh phi, and the gradient W (Uh phi) is two matvecs, O(M r). Re<grad, t>
    is the objective's directional derivative along t; the gradient is affine
    in phi, so the solver's difference-quotient Hessian products are exact.
    design_balanced checks that R is Hermitian.
    """
    Uh = np.ascontiguousarray(basis.conj().T, dtype=complex)  # cast a real eye once
    W = basis @ (-2.0 * R)  # the same bits as -2 (U R): a power of two scales exactly

    def objective(phi: np.ndarray) -> float:
        z = Uh @ phi
        return -float(np.vdot(z, R @ z).real)

    def euclid_grad(phi: np.ndarray) -> np.ndarray:
        return W @ (Uh @ phi)

    return objective, euclid_grad


def design_eigen(R: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Relaxation baseline: normalize each entry of the top eigenvector of
    basis @ R @ basis^H.

    basis (M, r) must have orthonormal columns, as effective_channels' U and
    the identity have; R is the r x r core. If r < M and the core has no
    positive eigenvalue, the top eigenspace (eigenvalue 0) contains
    null(basis^H), and the vector taken is its projector's column of largest
    norm, whose squared norm 1 - ||basis[m]||^2 is at least 1 - r/M. An
    exactly zero entry has no defined phase and is set to phase 0. eigh reads
    one triangle of R only, so R must be Hermitian (design_balanced checks
    it).
    """
    try:
        vals, vecs = np.linalg.eigh(R)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    if vals[-1] > 0.0 or basis.shape[1] == basis.shape[0]:
        v = basis @ vecs[:, -1]  # algebraically largest eigenvalue
    else:
        m = int(np.argmin(np.linalg.norm(basis, axis=1)))
        v = -(basis @ basis[m].conj())
        v[m] += 1.0
    v = np.where(np.abs(v) == 0.0, 1.0, v)
    return manifold.retract_point(v)


def design_random(M: int, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform phases in [0, 2 pi)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))


def design_balanced(R: np.ndarray, basis: np.ndarray, cfg: RcgConfig | None = None,
                    phi0: np.ndarray | None = None) -> tuple[np.ndarray, RcgTrace]:
    """Maximize phi^H U R U^H phi over unit-modulus phi with the trust-region
    solver, for basis U (M, r) and r x r core R; np.eye(M) poses a dense R.

    R must be Hermitian, ||S - S^H||_F <= _HERMITIAN_TOL * ||S||_F for R scaled
    to S by its largest real or imaginary part, so that no norm overflows, or
    HermitianViolationError is raised, also for a non-finite entry; for a core
    this is the dense check, as ||U X U^H||_F = ||X||_F for orthonormal U.
    phi0 defaults to design_eigen(R, basis), which the solver can only
    improve; NumericalError is raised if that eigensolve fails.
    """
    with np.errstate(invalid="ignore"):
        scale = max(np.abs(R.real).max(initial=0.0), np.abs(R.imag).max(initial=0.0))
        S = R / (scale or 1.0)
        if not np.linalg.norm(S - S.conj().T) <= _HERMITIAN_TOL * np.linalg.norm(S):
            raise HermitianViolationError("balance matrix R is not Hermitian")
    if phi0 is None:
        phi0 = design_eigen(R, basis)
    return manifold.rcg_minimize(*p1_problem(R, basis), phi0, cfg)
