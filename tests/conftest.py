"""Shared helpers: random problem instances and brute-force oracles."""

import math

import numpy as np

from risbal import (
    ArrayGeometry,
    ChannelSet,
    GramFactor,
    ScenarioConfig,
    SteeringSpec,
    effective_channels,
    path_loss_linear,
    upa_steering,
)
from risbal.errors import DimensionError


def random_hermitian(M, rng, scale=1.0):
    X = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    return scale * (X + X.conj().T) / 2.0


def random_phi(M, rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=M))


def tangency_error(t, phi):
    """Largest |Re(t_m * conj(phi_m))|; zero for a true tangent vector."""
    return float(np.max(np.abs(np.real(t * np.conj(phi)))))


def project_to_tangent(g, phi):
    """Orthogonal projection of an ambient vector onto the tangent space at
    phi: t_m = g_m - Re(g_m * conj(phi_m)) * phi_m."""
    g = np.asarray(g, dtype=np.complex128)
    phi = np.asarray(phi, dtype=np.complex128)
    if g.shape != phi.shape or g.ndim != 1:
        raise DimensionError(f"shape mismatch: g {g.shape} vs phi {phi.shape}")
    return g - np.real(g * np.conj(phi)) * phi


def random_tangent(phi, rng):
    """Random tangent vector at phi, built by projecting an ambient draw."""
    z = rng.standard_normal(phi.size) + 1j * rng.standard_normal(phi.size)
    return z - np.real(z * np.conj(phi)) * phi


def quadform(phi, R):
    return float(np.real(np.vdot(phi, R @ phi)))


def cascade(row, G):
    """Cascaded matrix diag(h^H) G of a user's row h^H, i.e. A[m, n] = row[m] G[m, n]."""
    return row[:, None] * G


def rician_matrix_loop(tx_spec, rx_spec, params, pl_gain, rng):
    """Reference gen_rician_matrix: each scattered path drawn in turn (rx
    offsets, tx offsets, two normals) and its rank-1 term summed into H."""
    tx = upa_steering(tx_spec.azimuth, tx_spec.elevation, tx_spec.geom)
    if rx_spec is None:
        rx = np.ones(1, dtype=np.complex128)
    else:
        rx = upa_steering(rx_spec.azimuth, rx_spec.elevation, rx_spec.geom)

    los = np.outer(rx, np.conj(tx))
    L = params.nlos_path_count
    if L == 0:
        return np.sqrt(pl_gain) * los

    spread = np.deg2rad(params.angular_spread_deg)
    scattered = np.zeros(los.shape, dtype=np.complex128)
    for _ in range(L):
        if rx_spec is not None:
            daz, del_ = rng.uniform(-spread, spread, size=2)
            rx_l = upa_steering(rx_spec.azimuth + daz, rx_spec.elevation + del_, rx_spec.geom)
        else:
            rx_l = rx
        daz, del_ = rng.uniform(-spread, spread, size=2)
        tx_l = upa_steering(tx_spec.azimuth + daz, tx_spec.elevation + del_, tx_spec.geom)
        gain = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2.0)
        scattered += gain * np.outer(rx_l, np.conj(tx_l))

    kappa = 10.0 ** (params.rician_factor_db / 10.0)
    H = np.sqrt(kappa / (kappa + 1.0)) * los + np.sqrt(1.0 / (kappa + 1.0)) * scattered / np.sqrt(L)
    return np.sqrt(pl_gain) * H


def disc_positions_loop(center, radius, count, height, rng):
    """Reference user draw: every radius, then every angle, from rng; one
    (x, y, z) tuple per user."""
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [(center[0] + r * math.cos(a), center[1] + r * math.sin(a), height)
            for r, a in zip(radii, angles)]


def los_angles_loop(src, dst):
    """Reference azimuth atan2(dy, dx) and elevation atan2(dz, hypot(dx, dy))
    of the path from the point src to the point dst."""
    dx, dy, dz = (b - a for a, b in zip(src, dst))
    return math.atan2(dy, dx), math.atan2(dz, math.hypot(dx, dy))


def channel_set_loop(scenario, streams):
    """Reference gen_channel_set on its seven child streams (positions of
    cells 1 and 2, G1, G2, h_r1, h_r2, h_d2), link by link and user by user
    with rician_matrix_loop, from positions as tuples of floats."""
    s_pos1, s_pos2, s_g1, s_g2, s_hr1, s_hr2, s_hd2 = streams
    K = scenario.users_per_cell
    users1 = disc_positions_loop(
        scenario.cell1_center, scenario.cell1_radius, K, scenario.user_height, s_pos1
    )
    users2 = disc_positions_loop(
        scenario.cell2_center, scenario.cell2_radius, K, scenario.user_height, s_pos2
    )
    bs1, bs2, ris = ((p.x, p.y, p.z)
                     for p in (scenario.bs1_pos, scenario.bs2_pos, scenario.ris_pos))
    ris_geom = scenario.ris_array

    def pl(a, b, link):
        return path_loss_linear(math.dist(a, b), link.path_loss_exponent,
                                scenario.pathloss_ref_db, scenario.pathloss_ref_distance_m)

    def bs_to_ris(bs_pos, bs_geom, stream):
        link = scenario.bs_ris_link
        return rician_matrix_loop(SteeringSpec(bs_geom, *los_angles_loop(bs_pos, ris)),
                                  SteeringSpec(ris_geom, *los_angles_loop(ris, bs_pos)),
                                  link, pl(bs_pos, ris, link), stream)

    def to_users(src, geom, link, users, stream):
        return np.stack([
            rician_matrix_loop(SteeringSpec(geom, *los_angles_loop(src, user)), None,
                               link, pl(src, user, link), stream)[0]
            for user in users
        ])

    return hand_built_channels(
        G1=bs_to_ris(bs1, scenario.bs1_array, s_g1),
        G2=bs_to_ris(bs2, scenario.bs2_array, s_g2),
        h_r1=to_users(ris, ris_geom, scenario.ris_user_link, users1, s_hr1),
        h_r2=to_users(ris, ris_geom, scenario.ris_user_link, users2, s_hr2),
        h_d2=to_users(bs2, scenario.bs2_array, scenario.direct_link, users2, s_hd2),
        noise_var=scenario.noise_var_w,
        theta=scenario.theta_rad,
    )


def hand_built_channels(G1, G2, h_r1, h_r2, h_d2, noise_var=1.0, theta=0.0):
    """A ChannelSet of given arrays; each G_i is its own range factor, as
    G_i G_i^H = G_i G_i^H (N_i columns where a draw's factor has L + 1 or fewer)."""
    return ChannelSet(G1=G1, G2=G2, G1_range=G1, G2_range=G2, h_r1=h_r1, h_r2=h_r2,
                      h_d2=h_d2, noise_var=noise_var, theta=theta)


def total_gain_matrix(As):
    """Reference Gram total sum_k A_k A_k^H, summed term by term and
    symmetrized; the program forms it only in factor form."""
    total = sum(A @ A.conj().T for A in As)
    return (total + total.conj().T) / 2.0


def dense_totals(channels):
    """Both Gram totals at full size, B_i B_i^H, from effective_channels' factor."""
    gram = effective_channels(channels)
    totals = [B @ B.conj().T for B in (gram.B[:, :gram.c1], gram.B[:, gram.c1:])]
    return tuple((At + At.conj().T) / 2.0 for At in totals)


def dense_factor(R):
    """A dense Hermitian R posed in factor form through its eigh
    R = V diag(w) V^H: (GramFactor with B = V and T = I, d = w)."""
    w, V = np.linalg.eigh(R)
    V = V.astype(complex)
    return GramFactor(V, np.ascontiguousarray(V.conj().T), np.eye(len(w)), len(w)), w


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
