from unittest import mock

import numpy as np
import pytest
from conftest import channel_set_loop, rician_matrix_loop
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import risbal.channel
from risbal import (
    ArrayGeometry,
    Position3D,
    RicianLinkParams,
    ScenarioConfig,
    SteeringSpec,
    gen_channel_set,
    gen_rician_matrix,
    path_loss_linear,
    upa_steering,
)
from risbal.channel import _los_angles
from risbal.errors import NumericalError


# -------------------------------------------------------------------- angles

def _angles(src, dst):
    """_los_angles of the one path from the point src to the point dst, as floats."""
    az, el = _los_angles(np.array([dst], dtype=float) - np.array(src, dtype=float))
    return float(az[0]), float(el[0])


def test_los_angles_on_axis():
    az, el = _angles((0, 0, 0), (1, 0, 0))
    assert az == 0.0 and el == 0.0


def test_los_angles_vertical_convention():
    az, el = _angles((0, 0, 0), (0, 0, 1))
    assert az == 0.0
    assert el == pytest.approx(np.pi / 2)


def test_los_angles_hand_trigonometry():
    az, el = _angles((0, 0, 15), (30, 40, 1))
    assert az == pytest.approx(np.arctan2(40, 30))      # ~0.9273
    assert el == pytest.approx(np.arctan2(-14, 50))     # ~-0.2730


def test_vertical_link_has_azimuth_zero_at_both_ends(monkeypatch):
    # the surface straight above BS1: the offsets at the surface end must be
    # formed as src - dst, since -(dst - src) is -0.0 there and atan2 gives -pi
    specs = []

    def recording(tx_spec, rx_spec, *args):
        specs.append((tx_spec, rx_spec))
        return gen_rician_matrix(tx_spec, rx_spec, *args)

    monkeypatch.setattr(risbal.channel, "gen_rician_matrix", recording)
    cfg = ScenarioConfig(bs1_pos=Position3D(40.0, 25.0, 15.0), ris_pos=Position3D(40.0, 25.0, 10.0))
    gen_channel_set(cfg, np.random.default_rng(0))
    tx_spec, rx_spec = specs[0]  # G1
    assert tx_spec.azimuth[0] == 0.0 and rx_spec.azimuth[0] == 0.0
    assert tx_spec.elevation[0] == -np.pi / 2 and rx_spec.elevation[0] == np.pi / 2


_coord = st.one_of(st.integers(-10_000, 10_000), st.floats(-1e4, 1e4))
_height = st.one_of(st.integers(0, 100), st.floats(0.0, 100.0))


@settings(max_examples=200, deadline=None)
@given(_coord, _coord, _height, _coord, _coord, _height)
def test_distance_equals_norm_to_the_bit(ax, ay, az, bx, by, bz):
    # path-loss gains depend on positions only through the distance that
    # gen_channel_set hands path_loss_linear; BS1 at a, the surface at b
    a, b = Position3D(ax, ay, az), Position3D(bx, by, bz)
    assume(a != b)
    distances = []

    def recording(distance_m, *args):
        distances.append(distance_m)
        return 1e-3

    cfg = ScenarioConfig(bs1_pos=a, ris_pos=b, bs1_array=ArrayGeometry(1, 1),
                         bs2_array=ArrayGeometry(1, 1), ris_array=ArrayGeometry(1, 2))
    with mock.patch.object(risbal.channel, "path_loss_linear", recording):
        gen_channel_set(cfg, np.random.default_rng(0))
    d = np.array([a.x, a.y, a.z], dtype=float) - np.array([b.x, b.y, b.z], dtype=float)
    assert distances[0] == float(np.linalg.norm(d))  # G1


# ------------------------------------------------------------------ steering

def test_upa_broadside_all_ones():
    geom = ArrayGeometry(3, 4)
    np.testing.assert_allclose(upa_steering(0.0, 0.0, geom), np.ones(12), atol=1e-15)


def test_upa_single_element():
    geom = ArrayGeometry(1, 1)
    np.testing.assert_allclose(upa_steering(1.1, -0.7, geom), np.ones(1), atol=1e-15)


def test_upa_matches_scalar_formula():
    geom = ArrayGeometry(2, 2, 0.5)
    az, el = np.pi / 2, 0.0
    got = upa_steering(az, el, geom)
    expected = np.empty(4, dtype=complex)
    for p in range(2):
        for q in range(2):
            phase = 2 * np.pi * 0.5 * (p * np.sin(el) + q * np.cos(el) * np.sin(az))
            expected[p * 2 + q] = np.exp(1j * phase)
    np.testing.assert_allclose(got, expected, atol=1e-15)
    # az = pi/2, el = 0 gives phase pi per horizontal index
    np.testing.assert_allclose(got, [1, -1, 1, -1], atol=1e-12)


def test_upa_unit_modulus():
    rng = np.random.default_rng(0)
    geom = ArrayGeometry(4, 5, 0.5)
    for _ in range(20):
        v = upa_steering(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi / 2, np.pi / 2), geom)
        assert np.max(np.abs(np.abs(v) - 1.0)) < 1e-12


def test_upa_broadcasts_over_angle_arrays():
    rng = np.random.default_rng(7)
    geom = ArrayGeometry(3, 5, 0.5)
    az = rng.uniform(-np.pi, np.pi, size=(2, 3))
    el = rng.uniform(-np.pi / 2, np.pi / 2, size=(2, 3))
    got = upa_steering(az, el, geom)
    assert got.shape == (2, 3, geom.size)
    for i in range(2):
        for j in range(3):
            np.testing.assert_allclose(got[i, j], upa_steering(az[i, j], el[i, j], geom),
                                       rtol=0, atol=1e-14)


# ----------------------------------------------------------------- path loss

def test_path_loss_reference_distance():
    assert path_loss_linear(1.0, 2.4, c0_db=-30.0, d0_m=1.0) == pytest.approx(1e-3)


def test_path_loss_inverse_square():
    assert path_loss_linear(10.0, 2.0, c0_db=0.0, d0_m=1.0) == pytest.approx(0.01)


def test_path_loss_formula_value():
    got = path_loss_linear(50.0, 2.4, c0_db=-30.0, d0_m=1.0)
    assert got == pytest.approx(10 ** (-30 / 10) * 50.0 ** (-2.4), rel=1e-12)


def test_path_loss_strictly_decreasing():
    d = np.linspace(1.0, 200.0, 50)
    gains = [path_loss_linear(x, 2.4) for x in d]
    assert np.all(np.diff(gains) < 0)


def test_path_loss_outside_open_range_raises():
    with pytest.raises(NumericalError):
        path_loss_linear(50.0, 1000.0)             # underflows to 0
    with pytest.raises(NumericalError):
        path_loss_linear(50.0, 2.4, c0_db=5000.0)  # overflows


def test_path_loss_clamps_below_reference_with_warning():
    with pytest.warns(RuntimeWarning):
        got = path_loss_linear(0.5, 2.4, c0_db=-30.0, d0_m=1.0)
    assert got == pytest.approx(1e-3)


# -------------------------------------------------------------------- rician

def test_rician_los_limit_high_kappa():
    rng = np.random.default_rng(1)
    tx_spec = SteeringSpec(ArrayGeometry(1, 3), 0.3, 0.1)
    rx_spec = SteeringSpec(ArrayGeometry(2, 2), -0.2, 0.4)
    tx = upa_steering(0.3, 0.1, tx_spec.geom)
    rx = upa_steering(-0.2, 0.4, rx_spec.geom)
    params = RicianLinkParams(2.4, 80.0, 4)
    H, _ = gen_rician_matrix(tx_spec, rx_spec, params, 1.0, rng)
    assert H.shape == (4, 3)
    assert np.linalg.norm(H - np.outer(rx, np.conj(tx))) < 1e-3


def test_rician_scalar_los_only():
    rng = np.random.default_rng(2)
    params = RicianLinkParams(2.0, 3.0, 0)
    pl = 0.37
    H, _ = gen_rician_matrix(SteeringSpec(ArrayGeometry(1, 1), 0.7, -0.2), None, params, pl, rng)
    assert H.shape == (1, 1)
    assert abs(H[0, 0]) ** 2 == pytest.approx(pl, rel=1e-12)


def test_rician_frobenius_normalization_monte_carlo():
    rng = np.random.default_rng(3)
    tx_spec = SteeringSpec(ArrayGeometry(1, 3), 0.5, -0.1)
    rx_spec = SteeringSpec(ArrayGeometry(2, 1), 0.2, 0.3)
    params = RicianLinkParams(2.4, 5.0, 4)
    pl = 2.0
    total = 0.0
    n = 10_000
    for _ in range(n):
        H, _ = gen_rician_matrix(tx_spec, rx_spec, params, pl, rng)
        total += np.linalg.norm(H) ** 2
    assert total / n == pytest.approx(pl * 2 * 3, rel=0.03)


def test_rician_power_split_fraction():
    # deterministic direct-path part carries kappa/(kappa+1) of the expected power
    rng = np.random.default_rng(4)
    tx_spec = SteeringSpec(ArrayGeometry(2, 2), 0.1, 0.0)
    tx = upa_steering(0.1, 0.0, tx_spec.geom)
    kdb = 5.0
    kappa = 10 ** (kdb / 10)
    params = RicianLinkParams(2.4, kdb, 4)
    los = np.sqrt(kappa / (kappa + 1)) * np.conj(tx)[None, :]
    total = 0.0
    n = 10_000
    for _ in range(n):
        H, _ = gen_rician_matrix(tx_spec, None, params, 1.0, rng)
        total += np.linalg.norm(H - los) ** 2
    nlos_fraction = total / n / 4.0
    assert nlos_fraction == pytest.approx(1.0 / (kappa + 1.0), rel=0.03)


def test_rician_determinism():
    tx_spec = SteeringSpec(ArrayGeometry(2, 2), 0.1, 0.2)
    rx_spec = SteeringSpec(ArrayGeometry(1, 2), -0.3, 0.1)
    params = RicianLinkParams(2.5, 5.0, 8)
    draws = []
    for _ in range(2):
        rng = np.random.default_rng(99)
        draws.append(gen_rician_matrix(tx_spec, rx_spec, params, 1.0, rng)[0])
    np.testing.assert_array_equal(draws[0], draws[1])


def _assert_close(got, ref, rel=1e-13):
    assert got.shape == ref.shape
    assert np.linalg.norm(got - ref) <= rel * np.linalg.norm(ref)


_SMALL_BS = dict(bs1_array=ArrayGeometry(2, 2), bs2_array=ArrayGeometry(2, 2))


@pytest.mark.parametrize("overrides", [
    {},
    _SMALL_BS,                                                   # N = 4 < L + 1 = 9
    dict(bs_ris_link=RicianLinkParams(2.2, 10.0, 0)),            # direct path only
    dict(bs_ris_link=RicianLinkParams(2.2, 10.0, 8, 0.0)),       # coincident paths
    dict(_SMALL_BS, bs_ris_link=RicianLinkParams(2.2, 10.0, 8, 0.0)),
], ids=["default", "2x2-BSs", "nlos-0", "spread-0", "2x2-BSs-spread-0"])
def test_range_factor_spans_the_bs_links(overrides):
    # F_i F_i^H = G_i G_i^H with min(N_i, L + 1) columns, with no rank test:
    # also when paths outnumber the BS antennas or coincide
    cfg = ScenarioConfig(**overrides)
    for seed in (1, 2):
        cs = gen_channel_set(cfg, np.random.default_rng(seed))
        for G, F in ((cs.G1, cs.G1_range), (cs.G2, cs.G2_range)):
            assert F.shape == (G.shape[0], min(G.shape[1], cfg.bs_ris_link.nlos_path_count + 1))
            _assert_close(F @ F.conj().T, G @ G.conj().T)


def test_range_factor_of_a_batch():
    # a batch of multi-antenna links gets one factor per link; a
    # single-antenna receiver gets none
    tx = SteeringSpec(ArrayGeometry(2, 3), np.array([0.4, -0.8]), np.array([-0.3, 0.1]))
    rx = SteeringSpec(ArrayGeometry(4, 4), np.array([-1.1, 0.6]), np.array([0.2, -0.4]))
    params = RicianLinkParams(2.5, 5.0, 8, 25.0)
    H, F = gen_rician_matrix(tx, rx, params, np.array([3e-7, 1e-9]), np.random.default_rng(4))
    assert F.shape == (2, 16, 6)
    for H_k, F_k in zip(H, F):
        _assert_close(F_k @ F_k.conj().T, H_k @ H_k.conj().T)
    assert gen_rician_matrix(tx, None, params, np.array([1.0, 2.0]),
                             np.random.default_rng(4))[1] is None


@pytest.mark.parametrize(
    "rx_geom, params, batched",
    [
        (None, RicianLinkParams(2.4, 5.0, 0), False),
        (ArrayGeometry(2, 3), RicianLinkParams(2.4, 5.0, 0), False),
        (None, RicianLinkParams(4.2, 3.0, 8), False),
        (ArrayGeometry(4, 8), RicianLinkParams(2.5, 5.0, 8, 25.0), False),
        (None, RicianLinkParams(4.2, 3.0, 8), True),
        (ArrayGeometry(4, 8), RicianLinkParams(2.5, 5.0, 8, 25.0), True),
    ],
    ids=["L0-single", "L0-planar", "single", "planar", "batch-single", "batch-planar"],
)
def test_rician_matches_path_by_path_loop(rx_geom, params, batched):
    # the same draws in the same order as summing one path at a time, link
    # after link: equal matrices to rounding and the stream left in the same
    # state. A batch is three links with their own angles and path losses.
    tx_az, tx_el = np.array([0.4, -0.8, 1.3]), np.array([-0.3, 0.1, 0.5])
    rx_az, rx_el = np.array([-1.1, 0.6, 2.0]), np.array([0.2, -0.4, 0.0])
    pl = np.array([3e-7, 1e-9, 4e-6])

    def specs(k):
        rx = None if rx_geom is None else SteeringSpec(rx_geom, rx_az[k], rx_el[k])
        return SteeringSpec(ArrayGeometry(4, 4), tx_az[k], tx_el[k]), rx

    batch = slice(None) if batched else 0
    for seed in (11, 12):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        H, _ = gen_rician_matrix(*specs(batch), params, pl[batch], rng)
        got = H if batched else H[None]
        ref = [rician_matrix_loop(*specs(k), params, pl[k], ref_rng) for k in range(len(got))]
        assert len(got) == (3 if batched else 1)
        for got_k, ref_k in zip(got, ref):
            _assert_close(got_k, ref_k)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class _SpawnRecorder:
    """Stands in for the drop's Generator, keeping the child streams that
    gen_channel_set spawns from it."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def spawn(self, n):
        self.children = self.rng.spawn(n)
        return self.children


@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)],
                         ids=["M128", "M512"])
def test_channel_set_matches_user_by_user_loop(ris_array):
    cfg = ScenarioConfig(ris_array=ris_array)
    for seed in (21, 22):
        recorder = _SpawnRecorder(seed)
        got = gen_channel_set(cfg, recorder)
        ref_streams = np.random.default_rng(seed).spawn(7)
        ref = channel_set_loop(cfg, ref_streams)
        for name in ("G1", "G2", "h_r1", "h_r2", "h_d2"):
            _assert_close(getattr(got, name), getattr(ref, name))
        assert [s.bit_generator.state for s in recorder.children] == \
            [s.bit_generator.state for s in ref_streams]


def test_channel_set_steering_calls_do_not_grow_with_users_or_paths(monkeypatch):
    # a family of users, like a link's paths, takes one broadcast steering call
    import risbal.channel

    calls = []
    original = risbal.channel.upa_steering

    def counted(az, el, geom):
        calls.append(1)
        return original(az, el, geom)

    monkeypatch.setattr(risbal.channel, "upa_steering", counted)
    counts = set()
    for users, paths in ((1, 0), (2, 4), (8, 16)):
        link = RicianLinkParams(2.4, 5.0, paths)
        cfg = ScenarioConfig(users_per_cell=users, direct_link=link, ris_user_link=link,
                             bs_ris_link=link)
        calls.clear()
        gen_channel_set(cfg, np.random.default_rng(3))
        counts.add(len(calls))
    assert len(counts) == 1, counts


# --------------------------------------------------------------- channel set

def test_channel_set_deterministic():
    import pickle

    cfg = ScenarioConfig()
    a = gen_channel_set(cfg, np.random.default_rng(5))
    b = gen_channel_set(cfg, np.random.default_rng(5))
    for name in ("G1", "G2", "h_r1", "h_r2", "h_d2"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert a.noise_var == b.noise_var and a.theta == b.theta
    assert pickle.dumps(a) == pickle.dumps(b)  # byte-identical after serialization


def test_channel_set_dimensions_and_noise():
    cfg = ScenarioConfig()  # N = 4x4, M = 8x16, K = 4
    cs = gen_channel_set(cfg, np.random.default_rng(6))
    assert cs.G1.shape == (128, 16)
    assert cs.G2.shape == (128, 16)
    assert cs.h_r1.shape == (4, 128)
    assert cs.h_r2.shape == (4, 128)
    assert cs.h_d2.shape == (4, 16)
    assert cs.noise_var == pytest.approx(10 ** ((-104 - 30) / 10))
    assert cs.noise_var == pytest.approx(3.98e-14, rel=1e-2)
    assert cs.theta == pytest.approx(np.pi / 6)
    assert all(np.all(np.isfinite(getattr(cs, n))) for n in ("G1", "G2", "h_r1", "h_r2", "h_d2"))
