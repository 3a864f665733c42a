"""Geometry and seeded Rician channel generation for all link families.

Every link uses a Rician model: one deterministic direct path whose angles
come from the actual node positions, plus ``nlos_path_count`` scattered paths
with CN(0,1) gains and angles perturbed uniformly around the direct-path
angles. The scattered sum is scaled by 1/sqrt(L) so the direct path carries
the fraction kappa/(kappa+1) of the expected power.

Generation is pure given an explicit numpy Generator; each link family draws
from its own child stream, so e.g. the direct-link draws do not depend on
the reflecting-surface size. One builder, gen_rician_matrix, draws every
family as a batch of links: G1 and G2 as batches of one, the users of a
family as single-antenna links. It reads its stream link by link and path by
path (rx offsets, tx offsets, two gain normals), then forms each side's path
responses in one upa_steering call and every link as Rx diag(c) Tx^H.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .config import ArrayGeometry, RicianLinkParams, ScenarioConfig
from .errors import GeometryError, NumericalError

__all__ = [
    "SteeringSpec",
    "ChannelSet",
    "upa_steering",
    "path_loss_linear",
    "gen_rician_matrix",
    "gen_channel_set",
]


@dataclass(frozen=True)
class SteeringSpec:
    """Array geometry plus direct-path angles at one end of a link, or of a
    batch of links (angle arrays of the link shape)."""

    geom: ArrayGeometry
    azimuth: float | np.ndarray
    elevation: float | np.ndarray


@dataclass(frozen=True)
class ChannelSet:
    """One realization of every link in the two-cell system.

    G1 : (M, N1) BS1 -> RIS
    G2 : (M, N2) BS2 -> RIS
    h_r1 : (K1, M) RIS -> cell-1 users; row k is user k's channel h_k^H, as drawn
    h_r2 : (K2, M) RIS -> cell-2 users, rows likewise
    h_d2 : (K2, N2) BS2 -> cell-2 users direct, rows likewise
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
        # no distance in the text: the default filter then prints it once per call site
        warnings.warn(
            f"distance below reference {d0_m:.3g} m; clamping to it",
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


def gen_rician_matrix(
    tx_spec: SteeringSpec,
    rx_spec: SteeringSpec | None,
    params: RicianLinkParams,
    pl_gain: float | np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw a batch of Rician channel matrices, shape S + (rx size, tx size).

    H = sqrt(pl) * ( sqrt(k/(k+1)) rx tx^H
                     + sqrt(1/(k+1)) (1/sqrt(L)) sum_l g_l rx_l tx_l^H )

    The link shape S is the shape of pl_gain (a scalar: one link, S = ()),
    and the specs' angles have shape S. rx and tx are the array responses at
    the specs' direct-path angles; rx_spec=None is a single-antenna receiver
    with response 1. Scattered-path steering vectors are recomputed from
    angles perturbed uniformly within +-angular_spread_deg of the direct-path
    angles; a single-antenna side reuses its response. With L = 0 only the
    direct term is drawn, at unit total power. The stream is read link by
    link and, per path, gives the rx offsets, the tx offsets, then g_l's real
    and imaginary parts; each side's responses come from one steering call
    and H is formed as Rx diag(c) Tx^H.
    """
    pl_gain = np.asarray(pl_gain, dtype=float)
    if not (pl_gain > 0).all():
        raise ValueError("path-loss gain must be positive")
    L = params.nlos_path_count
    width = 4 if rx_spec is None else 6  # per path: (rx az, el,) tx az, el, two normals
    draws = np.empty(pl_gain.shape + (L, width))
    for path in draws.reshape(-1, width):
        rng.random(out=path[:-2])
        rng.standard_normal(out=path[-2:])
    # the offsets rng.uniform(-spread, spread) would give: low + (high - low) u
    spread = np.deg2rad(params.angular_spread_deg)
    offsets = -spread + (2.0 * spread) * draws[..., :-2]

    kappa = 10.0 ** (params.rician_factor_db / 10.0)
    gains = (draws[..., -2] + 1j * draws[..., -1]) / np.sqrt(2.0)
    c = np.empty(pl_gain.shape + (L + 1,), dtype=np.complex128)
    c[..., 0] = np.sqrt(kappa / (kappa + 1.0)) if L else 1.0
    c[..., 1:] = np.sqrt(1.0 / (kappa + 1.0)) * gains / np.sqrt(L)  # empty if L = 0
    c *= np.sqrt(pl_gain)[..., None]

    def responses(spec: SteeringSpec, offsets: np.ndarray) -> np.ndarray:
        # S + (L + 1, size): the direct path, then the paths at (az, el) offsets S + (L, 2)
        az = np.asarray(spec.azimuth, dtype=float)[..., None]
        el = np.asarray(spec.elevation, dtype=float)[..., None]
        return upa_steering(np.concatenate([az, az + offsets[..., 0]], axis=-1),
                            np.concatenate([el, el + offsets[..., 1]], axis=-1), spec.geom)

    left = c[..., None, :]  # Rx diag(c), with Rx = 1 for a single-antenna receiver
    if rx_spec is not None:
        left = np.swapaxes(responses(rx_spec, offsets[..., :2]), -1, -2) * left
    return left @ responses(tx_spec, offsets[..., -2:]).conj()


def _draw_disc_positions(
    center: tuple[float, float], radius: float, count: int, height: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Uniform positions inside a disc at the given height, one (x, y, z) row each."""
    radii = radius * np.sqrt(rng.uniform(0.0, 1.0, size=count))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=count)
    return np.column_stack((center[0] + radii * np.cos(angles),
                            center[1] + radii * np.sin(angles), np.full(count, height)))


def _los_angles(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Azimuth atan2(dy, dx) and elevation atan2(dz, hypot(dx, dy)), radians, of
    each offset row (dx, dy, dz); a purely vertical path has azimuth 0 by convention."""
    dx, dy, dz = offsets.T
    return np.arctan2(dy, dx), np.arctan2(dz, np.hypot(dx, dy))


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

    c0, d0 = scenario.pathloss_ref_db, scenario.pathloss_ref_distance_m
    bs1, bs2, ris = (np.array((p.x, p.y, p.z), dtype=float)
                     for p in (scenario.bs1_pos, scenario.bs2_pos, scenario.ris_pos))
    ris_geom, bs_ris = scenario.ris_array, scenario.bs_ris_link

    def links(
        src: np.ndarray, src_geom: ArrayGeometry, dsts: np.ndarray,
        dst_geom: ArrayGeometry | None, link: RicianLinkParams, stream,
    ) -> np.ndarray:
        """Channels (n, rx size, tx size) from the point src (3,) to each row
        of dsts (n, 3), as drawn; dst_geom=None is a single-antenna receiver."""
        with np.errstate(over="ignore"):  # path_loss_linear reports an inf distance
            # src - dst, not -(dst - src): equal coordinates give +0.0 (azimuth 0), not -0.0 (pi)
            forward, backward = dsts - src, src - dsts
            if not forward.any(axis=1).all():
                raise GeometryError("coincident points have no direction")
            # np.linalg.norm's distance to the bit; the row-wise forms round differently
            distances = [math.sqrt(d @ d) for d in backward]
        pl = [path_loss_linear(d, link.path_loss_exponent, c0, d0) for d in distances]
        tx_spec = SteeringSpec(src_geom, *_los_angles(forward))
        rx_spec = None if dst_geom is None else SteeringSpec(dst_geom, *_los_angles(backward))
        return gen_rician_matrix(tx_spec, rx_spec, link, pl, stream)

    return ChannelSet(
        G1=links(bs1, scenario.bs1_array, ris[None], ris_geom, bs_ris, s_g1)[0],
        G2=links(bs2, scenario.bs2_array, ris[None], ris_geom, bs_ris, s_g2)[0],
        h_r1=links(ris, ris_geom, users1, None, scenario.ris_user_link, s_hr1)[:, 0],
        h_r2=links(ris, ris_geom, users2, None, scenario.ris_user_link, s_hr2)[:, 0],
        h_d2=links(bs2, scenario.bs2_array, users2, None, scenario.direct_link, s_hd2)[:, 0],
        noise_var=scenario.noise_var_w,
        theta=scenario.theta_rad,
    )
