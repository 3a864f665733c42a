import numpy as np
import pytest

from risbal import evaluate
from risbal.errors import DimensionError


def _rand(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_single_user_no_interference():
    rng = np.random.default_rng(0)
    row = _rand((1, 4), rng)
    f = _rand((4, 1), rng)
    s2 = 0.3
    rep = evaluate(row, f, s2)
    expected = abs(row[0] @ f[:, 0]) ** 2 / s2
    assert rep.per_user_sinr[0] == pytest.approx(expected, rel=1e-12)
    assert rep.sum_rate == pytest.approx(np.log2(1 + expected), rel=1e-12)


def test_nulled_signal_gives_zero_rate():
    rows = np.array([[1.0 + 0j, 0.0], [0.0, 1.0 + 0j]])
    F = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)  # f_k orthogonal to h_k
    rep = evaluate(rows, F, 1e-2)
    np.testing.assert_allclose(rep.per_user_sinr, 0.0, atol=1e-15)
    assert rep.sum_rate == 0.0


def test_matches_term_by_term_accumulation():
    rng = np.random.default_rng(1)
    K, N = 3, 5
    rows = _rand((K, N), rng)
    F = _rand((N, K), rng)
    s2 = 0.05
    rep = evaluate(rows, F, s2)
    for k in range(K):
        sig = abs(np.dot(rows[k], F[:, k])) ** 2
        interf = sum(abs(np.dot(rows[k], F[:, j])) ** 2 for j in range(K) if j != k)
        assert rep.per_user_sinr[k] == pytest.approx(sig / (interf + s2), rel=1e-12)
        assert rep.per_user_rate[k] == pytest.approx(np.log2(1 + rep.per_user_sinr[k]))
    assert rep.sum_rate == pytest.approx(rep.per_user_rate.sum())


def test_unitary_invariance():
    rng = np.random.default_rng(2)
    K, N = 4, 6
    rows = _rand((K, N), rng)
    F = _rand((N, K), rng)
    Q, _ = np.linalg.qr(_rand((N, N), rng))
    rep = evaluate(rows, F, 0.1)
    rep_rot = evaluate(rows @ Q, Q.conj().T @ F, 0.1)
    np.testing.assert_allclose(rep_rot.per_user_sinr, rep.per_user_sinr, rtol=1e-9)


def test_noise_monotonicity():
    rng = np.random.default_rng(3)
    rows = _rand((3, 4), rng)
    F = _rand((4, 3), rng)
    lo = evaluate(rows, F, 0.1)
    hi = evaluate(rows, F, 0.2)
    assert np.all(hi.per_user_sinr < lo.per_user_sinr)


def test_rates_nonnegative():
    rng = np.random.default_rng(4)
    rows = _rand((5, 8), rng)
    F = _rand((8, 5), rng)
    rep = evaluate(rows, F, 1e-3)
    assert np.all(rep.per_user_rate >= 0)
    assert rep.sum_rate >= 0


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        evaluate(np.ones((2, 3), dtype=complex), np.ones((4, 2), dtype=complex), 0.1)
