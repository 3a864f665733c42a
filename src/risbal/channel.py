"""Geometry and seeded Rician channel generation for all link families.

Every link uses a Rician model: one deterministic direct path whose angles
come from the actual node positions, plus ``nlos_path_count`` scattered paths
with CN(0,1) gains and angles perturbed uniformly around the direct-path
angles. The scattered sum is scaled by 1/sqrt(L) so the direct path carries
the fraction kappa/(kappa+1) of the expected power.

Generation is pure given an explicit numpy Generator; each link family draws
from its own child stream, so e.g. the direct-link draws do not depend on
the reflecting-surface size. Within a stream the scalars are drawn path by
path (rx offsets, tx offsets, two gain normals), user by user; the arrays are
then built in bulk: upa_steering takes angle arrays, so one call gives every
path's response on one side of a link (of every user of a family), and a
link is one product Rx diag(c) Tx^H of its path responses and weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ArrayGeometry, Position3D, RicianLinkParams, ScenarioConfig
from .errors import GeometryError, NumericalError

__all__ = [
    "SteeringSpec",
    "ChannelSet",
    "los_angles",
    "upa_steering",
    "path_loss_linear",
    "gen_rician_matrix",
    "gen_channel_set",
]


@dataclass(frozen=True)
class SteeringSpec:
    """Array geometry plus direct-path angles at one end of a link."""

    geom: ArrayGeometry
    azimuth: float
    elevation: float


@dataclass(frozen=True)
class ChannelSet:
    """One realization of every link in the two-cell system.

    G1 : (M, N1) BS1 -> RIS
    G2 : (M, N2) BS2 -> RIS
    h_r1 : (K1, M) RIS -> cell-1 users, one channel vector per row
    h_r2 : (K2, M) RIS -> cell-2 users
    h_d2 : (K2, N2) BS2 -> cell-2 users direct
    noise_var : receiver noise power, the same in both cells
    theta : constant phase offset the surface applies in cell 2's band
    """

    G1: np.ndarray
    G2: np.ndarray
    h_r1: np.ndarray
    h_r2: np.ndarray
    h_d2: np.ndarray
    noise_var: float
    theta: float


def los_angles(src: Position3D, dst: Position3D) -> tuple[float, float]:
    """Azimuth and elevation of the straight path from src to dst, radians.

    azimuth = atan2(dy, dx); elevation = atan2(dz, horizontal distance).
    A purely vertical path has azimuth 0 by convention.
    """
    dx, dy, dz = dst.x - src.x, dst.y - src.y, dst.z - src.z
    if dx == 0.0 and dy == 0.0 and dz == 0.0:
        raise GeometryError("coincident points have no direction")
    az = float(np.arctan2(dy, dx))
    el = float(np.arctan2(dz, np.hypot(dx, dy)))
    return az, el


def upa_steering(az: float | np.ndarray, el: float | np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Planar-array response, row-major over (vertical p, horizontal q).

    entry(p, q) = exp(j 2 pi spacing (p sin(el) + q cos(el) sin(az))), formed
    as the outer product of the per-axis factors. az and el broadcast to a
    shape S (scalars: S = ()); the result has shape S + (size,).
    """
    az, el = np.broadcast_arrays(np.asarray(az, dtype=float), np.asarray(el, dtype=float))
    k = 2.0 * np.pi * geom.element_spacing
    p = k * np.arange(geom.vertical_count)
    q = k * np.arange(geom.horizontal_count)
    vertical = np.exp(1j * (np.sin(el)[..., None] * p))
    horizontal = np.exp(1j * ((np.cos(el) * np.sin(az))[..., None] * q))
    return (vertical[..., :, None] * horizontal[..., None, :]).reshape(az.shape + (geom.size,))


def path_loss_linear(
    distance_m: float, exponent: float, c0_db: float = -30.0, d0_m: float = 1.0
) -> float:
    """Linear power gain 10^(c0/10) * (d/d0)^(-exponent).

    Distances below the reference d0 are clamped to d0 with a RuntimeWarning.
    Raises NumericalError if the gain is not in (0, inf).
    """
    if d0_m <= 0:
        raise ValueError("reference distance must be positive")
    if distance_m < d0_m:
        warnings.warn(
            f"distance {distance_m:.3g} m below reference {d0_m:.3g} m; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        distance_m = d0_m
    try:
        gain = 10.0 ** (c0_db / 10.0) * (distance_m / d0_m) ** (-exponent)
    except OverflowError:
        gain = math.inf
    if not 0.0 < gain < math.inf:
        raise NumericalError(
            f"path-loss gain {gain:.3g} at {distance_m:.3g} m is not in (0, inf)"
        )
    return gain


def _draw_paths(
    rng: np.random.Generator, params: RicianLinkParams, sides: int, links: int
) -> tuple[np.ndarray, np.ndarray]:
    """Scattered-path draws of `links` links, link by link and path by path:
    angle offsets (links, L, 2 sides) as (az, el) pairs, the rx pair first,
    then the complex gain (links, L) from two standard normals."""
    spread = np.deg2rad(params.angular_spread_deg)
    draws = np.empty((links, params.nlos_path_count, 2 * sides + 2))
    for path in draws.reshape(-1, 2 * sides + 2):
        path[:-2] = rng.uniform(-spread, spread, size=2 * sides)
        path[-2:] = rng.standard_normal(2)
    return draws[..., :-2], (draws[..., -2] + 1j * draws[..., -1]) / np.sqrt(2.0)


def _path_weights(params: RicianLinkParams, pl_gain, gains: np.ndarray) -> np.ndarray:
    """Weights (..., L + 1) of the direct path and the scattered paths of
    gains (..., L), scaled by sqrt(pl_gain) (a scalar or of shape ...)."""
    L = params.nlos_path_count
    kappa = 10.0 ** (params.rician_factor_db / 10.0)
    c = np.empty(gains.shape[:-1] + (L + 1,), dtype=np.complex128)
    c[..., 0] = np.sqrt(kappa / (kappa + 1.0)) if L else 1.0
    c[..., 1:] = np.sqrt(1.0 / (kappa + 1.0)) * gains / np.sqrt(L)  # empty if L = 0
    return np.sqrt(np.asarray(pl_gain, dtype=float))[..., None] * c


def _path_responses(az, el, offsets: np.ndarray, geom: ArrayGeometry) -> np.ndarray:
    """Responses (..., L + 1, size) of the direct path at (az, el), of shape
    ..., and of the scattered paths at offsets (..., L, 2) from it."""
    az = np.asarray(az, dtype=float)[..., None]
    el = np.asarray(el, dtype=float)[..., None]
    return upa_steering(
        np.concatenate([az, az + offsets[..., 0]], axis=-1),
        np.concatenate([el, el + offsets[..., 1]], axis=-1),
        geom,
    )


def gen_rician_matrix(
    tx_spec: SteeringSpec,
    rx_spec: SteeringSpec | None,
    params: RicianLinkParams,
    pl_gain: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw one (rx size, tx size) Rician channel matrix.

    H = sqrt(pl) * ( sqrt(k/(k+1)) rx tx^H
                     + sqrt(1/(k+1)) (1/sqrt(L)) sum_l g_l rx_l tx_l^H )

    rx and tx are the array responses at the specs' direct-path angles;
    rx_spec=None is a single-antenna receiver with response 1. Scattered-path
    steering vectors are recomputed from angles perturbed uniformly within
    +-angular_spread_deg of the direct-path angles; a single-antenna side
    reuses its response. With L = 0 only the direct term is drawn, at unit
    total power. Per path the stream gives the rx offsets, the tx offsets,
    then g_l's real and imaginary parts; H is formed as Rx diag(c) Tx^H.
    """
    if pl_gain <= 0:
        raise ValueError("path-loss gain must be positive")
    offsets, gains = _draw_paths(rng, params, 1 if rx_spec is None else 2, 1)
    offsets, gains = offsets[0], gains[0]
    c = _path_weights(params, pl_gain, gains)
    tx = _path_responses(tx_spec.azimuth, tx_spec.elevation, offsets[:, -2:], tx_spec.geom)
    if rx_spec is None:
        return (c @ tx.conj())[None, :]
    rx = _path_responses(rx_spec.azimuth, rx_spec.elevation, offsets[:, :2], rx_spec.geom)
    return (rx.T * c) @ tx.conj()


def _draw_disc_positions(
    center: tuple[float, float], radius: float, count: int, height: float,
    rng: np.random.Generator,
) -> list[Position3D]:
    """Uniform positions inside a disc at the given height."""
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return [
        Position3D(center[0] + r * np.cos(a), center[1] + r * np.sin(a), height)
        for r, a in zip(radii, angles)
    ]


def _distance(a: Position3D, b: Position3D) -> float:
    return float(np.linalg.norm(a.as_array() - b.as_array()))


def gen_channel_set(scenario: ScenarioConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw user positions and every channel matrix for one Monte Carlo drop."""
    # independent child streams per family keeps e.g. the direct links
    # untouched when only surface-side parameters change
    s_pos1, s_pos2, s_g1, s_g2, s_hr1, s_hr2, s_hd2 = rng.spawn(7)

    K = scenario.users_per_cell
    users1 = _draw_disc_positions(
        scenario.cell1_center, scenario.cell1_radius, K, scenario.user_height, s_pos1
    )
    users2 = _draw_disc_positions(
        scenario.cell2_center, scenario.cell2_radius, K, scenario.user_height, s_pos2
    )

    c0 = scenario.pathloss_ref_db
    d0 = scenario.pathloss_ref_distance_m
    ris = scenario.ris_pos
    ris_geom = scenario.ris_array

    def bs_to_ris(bs_pos: Position3D, bs_geom: ArrayGeometry, stream) -> np.ndarray:
        az_r, el_r = los_angles(ris, bs_pos)   # arrival side at the surface
        az_b, el_b = los_angles(bs_pos, ris)   # departure side at the BS
        pl = path_loss_linear(_distance(bs_pos, ris), scenario.bs_ris_link.path_loss_exponent, c0, d0)
        return gen_rician_matrix(
            SteeringSpec(bs_geom, az_b, el_b),
            SteeringSpec(ris_geom, az_r, el_r),
            scenario.bs_ris_link,
            pl,
            stream,
        )

    def to_users(
        src: Position3D, geom: ArrayGeometry, link: RicianLinkParams,
        users: list[Position3D], stream,
    ) -> np.ndarray:
        """Channel vectors h from src to each single-antenna user, one per row:
        the users' draws in turn, then one steering call for the family."""
        angles, pl = [], []
        for user in users:
            angles.append(los_angles(src, user))
            pl.append(path_loss_linear(_distance(src, user), link.path_loss_exponent, c0, d0))
        offsets, gains = _draw_paths(stream, link, 1, len(users))
        c = _path_weights(link, pl, gains)
        az, el = np.array(angles).T
        tx = _path_responses(az, el, offsets, geom)
        # physical row is h^H = c Tx^H (1, size); store the column vector h
        return (c.conj()[:, None, :] @ tx)[:, 0, :]

    return ChannelSet(
        G1=bs_to_ris(scenario.bs1_pos, scenario.bs1_array, s_g1),
        G2=bs_to_ris(scenario.bs2_pos, scenario.bs2_array, s_g2),
        h_r1=to_users(ris, ris_geom, scenario.ris_user_link, users1, s_hr1),
        h_r2=to_users(ris, ris_geom, scenario.ris_user_link, users2, s_hr2),
        h_d2=to_users(scenario.bs2_pos, scenario.bs2_array, scenario.direct_link, users2, s_hd2),
        noise_var=scenario.noise_var_w,
        theta=scenario.theta_rad,
    )
