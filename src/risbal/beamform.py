"""Composite downlink channels and leakage-based transmit beamforming.

Channel rows are stored as the per-user row vectors h^H each user actually
experiences: cell-1 rows pass through the surface, cell-2 rows are the
direct link plus the phase-offset reflected term. The precoder maximizes
each user's signal-to-leakage-and-noise ratio under equal per-user power;
BS 2 must be fed the direct rows only, since it knows nothing about the
surface.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSet
from .errors import DimensionError, NumericalError

__all__ = ["composite_cell1", "composite_cell2", "slnr_beamformer"]


def _reflected(phi: np.ndarray, h_r: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Rows phi^H diag(h^H) G == (conj(phi) * conj(h))^T G, one per user row of h_r."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (G.shape[0],):
        raise DimensionError(f"phi has {phi.size} entries, surface has {G.shape[0]}")
    return (np.conj(phi)[None, :] * np.conj(h_r)) @ G


def composite_cell1(phi: np.ndarray, channels: ChannelSet) -> np.ndarray:
    """Rows phi^H A_1k for every cell-1 user, shape (K1, N1)."""
    return _reflected(phi, channels.h_r1, channels.G1)


def composite_cell2(phi: np.ndarray, channels: ChannelSet) -> np.ndarray:
    """Rows h_d^H + e^{j theta} phi^H A_2k for every cell-2 user, shape (K2, N2)."""
    reflected = _reflected(phi, channels.h_r2, channels.G2)
    return np.conj(channels.h_d2) + np.exp(1j * channels.theta) * reflected


def slnr_beamformer(rows: np.ndarray, power_budget: float, noise_var: float) -> np.ndarray:
    """Leakage-based precoder F, shape (N, K), with trace(F^H F) = power_budget.

    For user k with channel row h_k^H:
        v_k = (sum_{j != k} h_j h_j^H + (K noise_var / P) I)^{-1} h_k
        f_k = sqrt(P / K) v_k / ||v_k||
    By Sherman-Morrison v_k is a positive multiple of
    (sum_j h_j h_j^H + (K noise_var / P) I)^{-1} h_k, so one solve against
    the full Gram matrix gives every direction.
    """
    rows = np.asarray(rows, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise DimensionError("rows must be a (K, N) matrix with K >= 1")
    if power_budget <= 0 or noise_var <= 0:
        raise ValueError("power budget and noise variance must be positive")
    K, N = rows.shape
    cols = np.conj(rows).T                     # h_k as column k, (N, K)
    gram = cols @ rows                         # sum_j h_j h_j^H, (N, N)
    reg = (K * noise_var / power_budget) * np.eye(N)
    try:
        V = np.linalg.solve(gram + reg, cols)
    except np.linalg.LinAlgError as exc:  # regularizer makes this unreachable
        raise NumericalError(f"leakage system solve failed: {exc}") from exc
    norms = np.linalg.norm(V, axis=0)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise NumericalError("degenerate beam direction")
    return np.sqrt(power_budget / K) * V / norms
