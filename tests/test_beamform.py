import numpy as np
import pytest
from conftest import random_phi

from risbal import (
    ScenarioConfig,
    composite_cell1,
    composite_cell2,
    gen_channel_set,
    slnr_beamformer,
)
from risbal.errors import DimensionError


def _channels(seed=0):
    return gen_channel_set(ScenarioConfig(), np.random.default_rng(seed))


def _rand(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------------------ composite rows

def test_composite_cell1_matches_dense_reflection_matrix():
    cs = _channels(1)
    rng = np.random.default_rng(2)
    phi = random_phi(cs.G1.shape[0], rng)
    rows = composite_cell1(phi, cs)
    Phi = np.diag(np.conj(phi))  # dense reflection-coefficient matrix
    for k in range(cs.h_r1.shape[0]):
        dense = cs.h_r1[k] @ Phi @ cs.G1
        np.testing.assert_allclose(rows[k], dense, atol=1e-10)


def test_composite_cell1_identity_reflection():
    cs = _channels(3)
    rows = composite_cell1(np.ones(cs.G1.shape[0], dtype=complex), cs)
    for k in range(cs.h_r1.shape[0]):
        np.testing.assert_allclose(rows[k], cs.h_r1[k] @ cs.G1, atol=1e-10)


def test_composite_cell1_scalar_surface():
    from conftest import small_cfg
    from risbal import ArrayGeometry

    cfg = small_cfg(ris_array=ArrayGeometry(1, 1))
    cs = gen_channel_set(cfg, np.random.default_rng(4))
    phi = np.array([np.exp(0.4j)])
    rows = composite_cell1(phi, cs)
    for k in range(cfg.users_per_cell):
        expected = np.conj(phi[0]) * cs.h_r1[k, 0] * cs.G1[0]
        np.testing.assert_allclose(rows[k], expected, atol=1e-12)


def test_composite_cell2_dense_check_with_offset():
    cs = _channels(5)
    assert cs.theta == pytest.approx(np.pi / 6)
    rng = np.random.default_rng(6)
    phi = random_phi(cs.G2.shape[0], rng)
    rows = composite_cell2(phi, cs)
    Phi = np.diag(np.conj(phi))
    for k in range(cs.h_r2.shape[0]):
        dense = cs.h_d2[k] + np.exp(1j * cs.theta) * (cs.h_r2[k] @ Phi @ cs.G2)
        np.testing.assert_allclose(rows[k], dense, atol=1e-10)


def test_composite_cell2_nulled_surface_leaves_direct_link():
    from dataclasses import replace

    cs = _channels(7)
    cs_nulled = replace(cs, h_r2=np.zeros_like(cs.h_r2))
    rng = np.random.default_rng(8)
    phi = random_phi(cs.G2.shape[0], rng)
    rows = composite_cell2(phi, cs_nulled)
    np.testing.assert_allclose(rows, cs.h_d2, atol=1e-12)


def test_composite_cell2_reduces_to_cell1_formula():
    from dataclasses import replace

    cs = _channels(9)
    cs_mod = replace(cs, theta=0.0, h_d2=np.zeros_like(cs.h_d2),
                     h_r1=cs.h_r2, G1=cs.G2)
    rng = np.random.default_rng(10)
    phi = random_phi(cs.G2.shape[0], rng)
    np.testing.assert_allclose(
        composite_cell2(phi, cs_mod), composite_cell1(phi, cs_mod), atol=1e-12
    )


def test_composite_dimension_mismatch():
    cs = _channels(11)
    with pytest.raises(DimensionError):
        composite_cell1(np.ones(3, dtype=complex), cs)


# ----------------------------------------------------------------- precoding

def test_slnr_single_user_matched_filter():
    rng = np.random.default_rng(12)
    row = _rand((1, 8), rng)
    P = 2.0
    bf = slnr_beamformer(row, P, 1e-3)
    h = np.conj(row[0])
    expected = np.sqrt(P) * h / np.linalg.norm(h)
    np.testing.assert_allclose(bf[:, 0], expected, atol=1e-10)


@pytest.mark.parametrize("K,N,s2", [(1, 8, 1e-3), (4, 16, 1e-2), (4, 4, 1e-4), (6, 4, 1e-1)])
def test_slnr_matches_per_user_leakage_solve(K, N, s2):
    rng = np.random.default_rng(K * 100 + N)
    rows = _rand((K, N), rng)
    P = 2.0
    bf = slnr_beamformer(rows, P, s2)
    for k in range(K):
        h = np.conj(rows[k])
        others = np.delete(rows, k, axis=0)
        leak = others.conj().T @ others + (K * s2 / P) * np.eye(N)
        v = np.linalg.solve(leak, h)
        expected = np.sqrt(P / K) * v / np.linalg.norm(v)
        np.testing.assert_allclose(bf[:, k], expected, rtol=0, atol=1e-9 * np.sqrt(P / K))


def test_slnr_orthogonal_rows_align_with_users():
    # leakage matrix acts as a scaled identity on each user's direction
    rows = np.zeros((3, 6), dtype=complex)
    rows[0, 0] = 1.0
    rows[1, 2] = 1.0 + 1j
    rows[2, 5] = -2j
    bf = slnr_beamformer(rows, 3.0, 0.5)
    for k in range(3):
        h = np.conj(rows[k])
        cos = abs(np.vdot(h, bf[:, k])) / (np.linalg.norm(h) * np.linalg.norm(bf[:, k]))
        assert cos == pytest.approx(1.0, abs=1e-12)


def test_slnr_power_constraint_tight():
    rng = np.random.default_rng(13)
    rows = _rand((4, 16), rng)
    P = 1.7
    bf = slnr_beamformer(rows, P, 1e-6)
    assert np.trace(bf.conj().T @ bf).real == pytest.approx(P, abs=1e-9)
    col_norms = np.linalg.norm(bf, axis=0) ** 2
    np.testing.assert_allclose(col_norms, P / 4, atol=1e-12)


def test_slnr_beats_random_probes():
    # no random equal-power direction achieves a better leakage ratio
    rng = np.random.default_rng(14)
    K, N = 4, 16
    rows = _rand((K, N), rng)
    P, s2 = 1.0, 1e-2
    bf = slnr_beamformer(rows, P, s2)
    mu = K * s2 / P

    def ratio(k, f):
        sig = abs(rows[k] @ f) ** 2
        leak = sum(abs(rows[j] @ f) ** 2 for j in range(K) if j != k)
        return sig / (leak + mu * np.linalg.norm(f) ** 2)

    for k in range(K):
        best = ratio(k, bf[:, k])
        for _ in range(1000):
            u = _rand(N, rng)
            u *= np.sqrt(P / K) / np.linalg.norm(u)
            assert ratio(k, u) <= best * (1 + 1e-9)


def test_slnr_scale_invariance_of_directions():
    rng = np.random.default_rng(15)
    rows = _rand((3, 8), rng)
    c = 7.3
    a = slnr_beamformer(rows, 1.0, 1e-4)
    b = slnr_beamformer(c * rows, 1.0, c * c * 1e-4)
    for k in range(3):
        da = a[:, k] / np.linalg.norm(a[:, k])
        db = b[:, k] / np.linalg.norm(b[:, k])
        np.testing.assert_allclose(da, db, atol=1e-9)


def test_slnr_rejects_bad_inputs():
    rows = np.ones((2, 4), dtype=complex)
    with pytest.raises(ValueError):
        slnr_beamformer(rows, 0.0, 1.0)
    with pytest.raises(ValueError):
        slnr_beamformer(rows, 1.0, 0.0)
    with pytest.raises(DimensionError):
        slnr_beamformer(np.ones(4, dtype=complex), 1.0, 1.0)
