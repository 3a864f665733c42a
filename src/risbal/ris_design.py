"""Reflection-coefficient design balancing the serving cell against the victim cell.

The surface shapes each user's reflected link linearly through a cascaded
matrix A = diag(h^H) G. Summing Gram matrices per cell gives the total
reflective gain (cell 1) and the total uncontrolled gain (cell 2); their
Frobenius-normalized difference, weighted by lambda, is the Hermitian
balance matrix R. The design maximizes phi^H R phi over unit-modulus phi
with the Riemannian CG solver; an eigenvector-rounding shortcut and uniform
random phases serve as baselines.

Every step takes and returns plain arrays: effective_channels gives both
Gram totals, balance_matrix forms R from them, and the designs take R, so a
drop builds its Gram totals once and shares them between weights.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import manifold
from .channel import ChannelSet
from .errors import (
    DimensionError,
    EmptyInputError,
    HermitianViolationError,
    NormalizationError,
    NumericalError,
)
from .manifold import RcgConfig, RcgTrace

__all__ = [
    "cascade",
    "total_gain_matrix",
    "effective_channels",
    "balance_matrix",
    "p1_objective",
    "p1_euclid_grad",
    "design_balanced",
    "design_eigen",
    "design_random",
]

_HERMITIAN_TOL = 1e-9


def cascade(h_r: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Cascaded matrix diag(h_r^H) G, i.e. A[m, n] = conj(h_r[m]) G[m, n]."""
    h_r = np.asarray(h_r, dtype=np.complex128)
    G = np.asarray(G, dtype=np.complex128)
    if h_r.ndim != 1 or G.ndim != 2 or G.shape[0] != h_r.size:
        raise DimensionError(f"cascade: h_r {h_r.shape} incompatible with G {G.shape}")
    return np.conj(h_r)[:, None] * G


def total_gain_matrix(As: Sequence[np.ndarray]) -> np.ndarray:
    """Hermitian PSD sum of Gram matrices sum_k A_k A_k^H."""
    if len(As) == 0:
        raise EmptyInputError("total_gain_matrix needs at least one cascaded matrix")
    M = As[0].shape[0]
    total = np.zeros((M, M), dtype=np.complex128)
    for A in As:
        if A.shape[0] != M:
            raise DimensionError("cascaded matrices disagree on the element count")
        total += A @ A.conj().T
    return (total + total.conj().T) / 2.0


def _gram_total(h_r: np.ndarray, G: np.ndarray) -> np.ndarray:
    """sum_k A_k A_k^H as the Schur product (G G^H) o (H^H H), rows of H = h_k,
    symmetrized to be exactly Hermitian (balance_matrix keeps it so)."""
    total = (G @ G.conj().T) * (h_r.conj().T @ h_r)
    return (total + total.conj().T) / 2.0


def effective_channels(channels: ChannelSet) -> tuple[np.ndarray, np.ndarray]:
    """Both Gram totals (Atilde1, Atilde2), Atilde_i = sum_k A_ik A_ik^H, from one draw."""
    return (
        _gram_total(channels.h_r1, channels.G1),
        _gram_total(channels.h_r2, channels.G2),
    )


def balance_matrix(At1: np.ndarray, At2: np.ndarray, lam: float) -> np.ndarray:
    """R = At1/||At1||_F - lam * At2/||At2||_F, Hermitian when both totals are."""
    if lam < 0:
        raise ValueError("balancing weight must be nonnegative")
    n1 = np.linalg.norm(At1)
    n2 = np.linalg.norm(At2)
    if not (0.0 < n1 < np.inf and 0.0 < n2 < np.inf):
        raise NormalizationError(
            f"gain-total norms {n1:.3e}, {n2:.3e} must be positive and finite"
        )
    return At1 / n1 - lam * (At2 / n2)


def p1_objective(phi: np.ndarray, R: np.ndarray) -> float:
    """-Re(phi^H R phi); R is assumed Hermitian, which design_balanced checks."""
    return -float(np.vdot(phi, R @ phi).real)


def p1_euclid_grad(phi: np.ndarray, R: np.ndarray) -> np.ndarray:
    """Ambient gradient -2 R phi of p1_objective.

    Re<grad, t> is the objective's directional derivative along t, the slope
    the solver's line search relies on.
    """
    return -2.0 * (R @ phi)


def design_eigen(R: np.ndarray) -> np.ndarray:
    """Relaxation baseline: normalize each entry of the top eigenvector of R.

    An exactly zero entry has no defined phase and is set to phase 0. eigh
    reads one triangle of R only, so R must be Hermitian (design_balanced
    checks it).
    """
    try:
        _, vecs = np.linalg.eigh(R)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    v = vecs[:, -1]  # algebraically largest eigenvalue
    v = np.where(np.abs(v) == 0.0, 1.0, v)
    return manifold.retract_point(v)


def design_random(M: int, rng: np.random.Generator) -> np.ndarray:
    """Independent uniform phases in [0, 2 pi)."""
    if M < 1:
        raise ValueError("M must be >= 1")
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))


def design_balanced(
    R: np.ndarray,
    cfg: RcgConfig | None = None,
    phi0: np.ndarray | None = None,
) -> tuple[np.ndarray, RcgTrace]:
    """Maximize phi^H R phi over unit-modulus phi with the manifold CG solver.

    R must be Hermitian: ||R - R^H||_F <= _HERMITIAN_TOL * ||R||_F, checked
    here once per design, or HermitianViolationError is raised. phi0 defaults
    to the eigenvector-rounded warm start, which the solver can only improve;
    random phases are the fallback if the eigensolve fails.
    """
    if np.linalg.norm(R - R.conj().T) > _HERMITIAN_TOL * np.linalg.norm(R):
        raise HermitianViolationError("balance matrix R is not Hermitian")
    if phi0 is None:
        try:
            phi0 = design_eigen(R)
        except NumericalError:
            phi0 = design_random(R.shape[0], np.random.default_rng(0))
    return manifold.rcg_minimize(
        lambda p: p1_objective(p, R),
        lambda p: p1_euclid_grad(p, R),
        phi0,
        cfg,
    )
