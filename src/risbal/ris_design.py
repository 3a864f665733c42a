"""Reflection-coefficient design balancing the serving cell against the victim cell.

The surface shapes each user's reflected link linearly through a cascaded
matrix A = diag(h^H) G. Summing Gram matrices per cell gives the total
reflective gain (cell 1) and the total uncontrolled gain (cell 2); their
Frobenius-normalized difference, weighted by lambda, is the Hermitian
balance matrix R. The design maximizes phi^H R phi over unit-modulus phi
with the Riemannian CG solver; an eigenvector-rounding shortcut and uniform
random phases serve as baselines.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "EffectiveChannels",
    "BalanceMatrix",
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

_QUADFORM_IMAG_TOL = 1e-9


@dataclass(frozen=True)
class EffectiveChannels:
    """Gram totals of the cascaded matrices, Atilde_i = sum_k A_ik A_ik^H."""

    Atilde1: np.ndarray
    Atilde2: np.ndarray


@dataclass(frozen=True)
class BalanceMatrix:
    """R = Atilde1/||Atilde1||_F - lambda * Atilde2/||Atilde2||_F, Hermitian."""

    R: np.ndarray
    lam: float


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
    """sum_k A_k A_k^H as the Schur product (G G^H) o (H^H H), rows of H = h_k."""
    total = (G @ G.conj().T) * (h_r.conj().T @ h_r)
    return (total + total.conj().T) / 2.0


def effective_channels(channels: ChannelSet) -> EffectiveChannels:
    """Both Gram totals from one channel draw."""
    return EffectiveChannels(
        Atilde1=_gram_total(channels.h_r1, channels.G1),
        Atilde2=_gram_total(channels.h_r2, channels.G2),
    )


def balance_matrix(At1: np.ndarray, At2: np.ndarray, lam: float) -> BalanceMatrix:
    """Frobenius-normalized difference of the two gain totals."""
    if lam < 0:
        raise ValueError("balancing weight must be nonnegative")
    n1 = np.linalg.norm(At1)
    n2 = np.linalg.norm(At2)
    if n1 == 0.0 or n2 == 0.0:
        raise NormalizationError("zero-norm gain matrix; degenerate channel draw")
    R = At1 / n1 - lam * (At2 / n2)
    return BalanceMatrix(R=(R + R.conj().T) / 2.0, lam=float(lam))


def p1_objective(phi: np.ndarray, R: BalanceMatrix) -> float:
    """-phi^H R phi; the quadratic form must be real up to roundoff."""
    z = np.vdot(phi, R.R @ phi)
    if abs(z.imag) >= _QUADFORM_IMAG_TOL:
        raise HermitianViolationError(
            f"quadratic form has imaginary part {z.imag:.3e}; R is not Hermitian"
        )
    return -float(z.real)


def p1_euclid_grad(phi: np.ndarray, R: BalanceMatrix) -> np.ndarray:
    """Ambient gradient -R phi (scale convention absorbed by the line search)."""
    return -(R.R @ phi)


def design_eigen(R: BalanceMatrix) -> np.ndarray:
    """Relaxation baseline: normalize each entry of the top eigenvector of R.

    An exactly zero entry has no defined phase and is set to phase 0.
    """
    try:
        _, vecs = np.linalg.eigh(R.R)
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
    channels: ChannelSet,
    lam: float,
    cfg: RcgConfig | None = None,
    phi0: np.ndarray | None = None,
) -> tuple[np.ndarray, RcgTrace]:
    """Full balancing design for one channel draw.

    Builds the balance matrix for the given weight and runs the manifold CG
    solver on it. phi0 defaults to the eigenvector-rounded warm start, which
    the solver can only improve; random phases are the fallback if the
    eigensolve fails.
    """
    eff = effective_channels(channels)
    bm = balance_matrix(eff.Atilde1, eff.Atilde2, lam)
    if phi0 is None:
        try:
            phi0 = design_eigen(bm)
        except NumericalError:
            phi0 = design_random(bm.R.shape[0], np.random.default_rng(0))
    return manifold.rcg_minimize(
        lambda p: p1_objective(p, bm),
        lambda p: p1_euclid_grad(p, bm),
        phi0,
        cfg,
    )
