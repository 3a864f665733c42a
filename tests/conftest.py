"""Shared helpers: random problem instances and brute-force oracles."""

import numpy as np

from risbal import ArrayGeometry, ScenarioConfig, effective_channels


def random_hermitian(M, rng, scale=1.0):
    X = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    return scale * (X + X.conj().T) / 2.0


def random_phi(M, rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))


def random_tangent(phi, rng):
    """Random tangent vector at phi, built by projecting an ambient draw."""
    z = rng.standard_normal(phi.size) + 1j * rng.standard_normal(phi.size)
    return z - np.real(z * np.conj(phi)) * phi


def quadform(phi, R):
    return float(np.real(np.vdot(phi, R @ phi)))


def cascade(h_r, G):
    """Cascaded matrix diag(h_r^H) G, i.e. A[m, n] = conj(h_r[m]) G[m, n]."""
    return np.conj(h_r)[:, None] * G


def total_gain_matrix(As):
    """Reference Gram total sum_k A_k A_k^H, summed term by term and
    symmetrized; effective_channels forms it only in its low-rank core."""
    total = sum(A @ A.conj().T for A in As)
    return (total + total.conj().T) / 2.0


def dense_totals(channels):
    """Both Gram totals at full size, U K_i U^H, from effective_channels' core."""
    U, K1, K2 = effective_channels(channels)
    return U @ K1 @ U.conj().T, U @ K2 @ U.conj().T


def grid_min_objective(R, levels=24):
    """Exhaustive phase-grid minimum of -phi^H R phi (independent oracle)."""
    M = R.shape[0]
    phases = 2.0 * np.pi * np.arange(levels) / levels
    grids = np.meshgrid(*([phases] * M), indexing="ij")
    P = np.exp(1j * np.stack([g.ravel() for g in grids], axis=1))  # (levels^M, M)
    vals = -np.real(np.einsum("km,mn,kn->k", np.conj(P), R, P))
    return float(vals.min())


def small_cfg(**overrides):
    """Tiny scenario for fast simulator tests."""
    defaults = dict(
        bs1_array=ArrayGeometry(2, 2),
        bs2_array=ArrayGeometry(2, 2),
        ris_array=ArrayGeometry(2, 4),
        users_per_cell=2,
        num_drops=4,
        seed=7,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)
