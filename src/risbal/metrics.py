"""SINR, per-user achievable rate, and cell sum-rate."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["RateReport", "evaluate"]


@dataclass(frozen=True)
class RateReport:
    per_user_sinr: np.ndarray   # linear
    per_user_rate: np.ndarray   # bits/s/Hz, log2(1 + sinr)
    sum_rate: float


def evaluate(rows: np.ndarray, F: np.ndarray, noise_var: float) -> RateReport:
    """Rates for channel rows (K, N) under precoder F (N, K).

    sinr_k = |h_k^H f_k|^2 / (sum_{j != k} |h_k^H f_j|^2 + noise_var)
    """
    rows = np.asarray(rows, dtype=np.complex128)
    F = np.asarray(F, dtype=np.complex128)
    if rows.ndim != 2 or F.ndim != 2 or rows.shape != (F.shape[1], F.shape[0]):
        raise DimensionError(f"rows {rows.shape} incompatible with F {F.shape}")
    if noise_var <= 0:
        raise ValueError("noise variance must be positive")
    coupling = rows @ F                         # (K, K), entry [k, j] = h_k^H f_j
    power = np.abs(coupling) ** 2
    signal = np.diag(power)
    interference = power.sum(axis=1) - signal
    sinr = signal / (interference + noise_var)
    rate = np.log2(1.0 + sinr)
    return RateReport(per_user_sinr=sinr, per_user_rate=rate, sum_rate=float(rate.sum()))
