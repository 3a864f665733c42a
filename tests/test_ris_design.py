from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    cascade,
    dense_totals,
    grid_min_objective,
    project_to_tangent,
    quadform,
    random_hermitian,
    random_phi,
    total_gain_matrix,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from risbal import (
    ArrayGeometry,
    ChannelSet,
    ConvergedBy,
    RcgConfig,
    ScenarioConfig,
    balance_matrix,
    design_balanced,
    design_eigen,
    design_random,
    effective_channels,
    gen_channel_set,
    p1_problem,
)
from risbal.errors import HermitianViolationError, NormalizationError, NumericalError
from risbal.manifold import unit_modulus_error


def _random_complex(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ------------------------------------------------------------------- cascade

def test_cascade_all_ones_is_identity_diagonal():
    rng = np.random.default_rng(0)
    G = _random_complex((3, 2), rng)
    np.testing.assert_array_equal(cascade(np.ones(3, dtype=complex), G), G)


def test_cascade_scalar_row_scale():
    rng = np.random.default_rng(1)
    G = _random_complex((1, 4), rng)
    h = np.array([0.3 - 0.8j])
    np.testing.assert_allclose(cascade(h, G), h[0] * G, atol=1e-15)


def test_cascade_matches_dense_diag_product():
    rng = np.random.default_rng(2)
    h = _random_complex(3, rng)
    G = _random_complex((3, 2), rng)
    dense = np.diag(h) @ G
    np.testing.assert_allclose(cascade(h, G), dense, atol=1e-14)


# ---------------------------------------------------------------- gain total

def test_total_gain_identity():
    A = np.eye(3, dtype=complex)
    np.testing.assert_allclose(total_gain_matrix([A]), np.eye(3), atol=1e-14)


def test_total_gain_single_gram_psd():
    rng = np.random.default_rng(3)
    A = _random_complex((4, 2), rng)
    At = total_gain_matrix([A])
    np.testing.assert_allclose(At, A @ A.conj().T, atol=1e-12)
    w = np.linalg.eigvalsh(At)
    assert w.min() >= -1e-10 * np.linalg.norm(At)
    assert np.linalg.matrix_rank(At) <= 2


def test_total_gain_decomposition_identity():
    # phi^H Atilde phi == sum_k ||phi^H A_k||^2
    rng = np.random.default_rng(4)
    As = [_random_complex((5, 3), rng) for _ in range(4)]
    At = total_gain_matrix(As)
    for _ in range(20):
        phi = random_phi(5, rng)
        direct = sum(np.linalg.norm(np.conj(phi) @ A) ** 2 for A in As)
        assert quadform(phi, At) == pytest.approx(direct, rel=1e-9)


# ------------------------------------------------------------ balance matrix

def test_balance_matrix_zero_weight():
    rng = np.random.default_rng(5)
    At1 = total_gain_matrix([_random_complex((3, 2), rng)])
    At2 = total_gain_matrix([_random_complex((3, 2), rng)])
    R = balance_matrix(At1, At2, 0.0)
    np.testing.assert_allclose(R, At1 / np.linalg.norm(At1), atol=1e-12)


def test_balance_matrix_exact_cancellation():
    rng = np.random.default_rng(6)
    At = total_gain_matrix([_random_complex((3, 2), rng)])
    R = balance_matrix(At, At, 1.0)
    np.testing.assert_allclose(R, 0.0, atol=1e-14)


def test_balance_matrix_definition_at_20db():
    rng = np.random.default_rng(7)
    At1 = total_gain_matrix([_random_complex((4, 3), rng)])
    At2 = total_gain_matrix([_random_complex((4, 3), rng)])
    R = balance_matrix(At1, At2, 100.0)
    expected = At1 / np.linalg.norm(At1) - 100.0 * At2 / np.linalg.norm(At2)
    assert np.linalg.norm(R - expected) < 1e-12
    np.testing.assert_allclose(R, R.conj().T, atol=1e-10)
    # the core's totals from a channel draw are exactly Hermitian, and so
    # is R in the core
    _, K1, K2 = effective_channels(_channels(seed=7))
    R = balance_matrix(K1, K2, 100.0)
    assert np.array_equal(R, R.conj().T)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_balance_matrix_rejects_bad_weight(lam):
    # NaN would give an all-NaN R and inf an invalid-value warning
    with pytest.raises(ValueError):
        balance_matrix(np.eye(2), np.eye(2), lam)


def test_balance_matrix_zero_norm_raises():
    with pytest.raises(NormalizationError):
        balance_matrix(np.zeros((2, 2)), np.eye(2), 1.0)
    # finite entries whose Frobenius norm overflows to inf, without a warning
    with pytest.raises(NormalizationError):
        balance_matrix(np.eye(2), np.full((2, 2), 1e200), 1.0)


# ----------------------------------------------------------- objective, grad

def _dense_objective(phi, R):
    return p1_problem(R, np.eye(len(R)))[0](phi)


def test_objective_scalar_case():
    R = np.array([[2.5 + 0j]])
    for ang in [0.0, 1.0, 2.0]:
        assert _dense_objective(np.array([np.exp(1j * ang)]), R) == pytest.approx(-2.5)


def test_objective_identity_matrix():
    rng = np.random.default_rng(8)
    M = 7
    assert _dense_objective(random_phi(M, rng), np.eye(M, dtype=complex)) == pytest.approx(-M)


def test_objective_matches_double_sum():
    rng = np.random.default_rng(9)
    R = random_hermitian(4, rng)
    phi = random_phi(4, rng)
    double_sum = sum(
        np.conj(phi[m]) * R[m, n] * phi[n] for m in range(4) for n in range(4)
    )
    assert _dense_objective(phi, R) == pytest.approx(-double_sum.real, rel=1e-12)
    assert abs(double_sum.imag) < 1e-9


def test_design_balanced_rejects_non_hermitian():
    rng = np.random.default_rng(10)
    X = _random_complex((3, 3), rng)  # generic, far from Hermitian
    with pytest.raises(HermitianViolationError):
        design_balanced(X, np.eye(3))
    # a Gram product without explicit symmetrization is Hermitian to roundoff
    A = _random_complex((3, 2), rng)
    phi, _ = design_balanced(A @ A.conj().T, np.eye(3))
    assert unit_modulus_error(phi) < 1e-12
    # with a basis the check runs on the core it is given, and equals the
    # dense check on U X U^H: the Frobenius norms are the same
    U, _ = np.linalg.qr(_random_complex((8, 3), rng))
    assert np.linalg.norm(U @ (X - X.conj().T) @ U.conj().T) == pytest.approx(
        np.linalg.norm(X - X.conj().T), rel=1e-12)
    with pytest.raises(HermitianViolationError):
        design_balanced(X, U)
    # an inf on the diagonal makes R - R^H nan, and a nan above it is missed
    # by eigh, which reads the lower triangle only: both are a violation,
    # raised without a RuntimeWarning (the suite turns one into an error)
    for entry, value in (((0, 0), np.inf), ((0, 1), np.nan)):
        R = np.eye(3, dtype=complex)
        R[entry] = value
        with pytest.raises(HermitianViolationError):
            design_balanced(R, np.eye(3))
    # the check is scale-free: a Frobenius norm that overflows to inf must
    # not make the bound vacuous
    with pytest.raises(HermitianViolationError):
        design_balanced(np.array([[1e200, 1e200], [0, 1e200]], dtype=complex), np.eye(2))


def test_gradient_zero_and_identity():
    rng = np.random.default_rng(11)
    phi = random_phi(5, rng)
    np.testing.assert_array_equal(
        p1_problem(np.zeros((5, 5)), np.eye(5))[1](phi), np.zeros(5)
    )
    np.testing.assert_allclose(
        p1_problem(np.eye(5, dtype=complex), np.eye(5))[1](phi), -2.0 * phi,
        atol=1e-15,
    )


@settings(max_examples=100, deadline=None)
@given(M=st.integers(1, 24), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gradient_finite_difference_scale_convention(M, data, seed):
    # for a basis U (the identity or an orthonormal QR factor) and a Hermitian
    # r x r core, the problem is that of R = U core U^H: its gradient is
    # -2 R phi, its objective -phi^H R phi, and the projected gradient is the
    # Riemannian gradient, whose inner product with a unit tangent t equals
    # the directional derivative
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="identity basis"):
        U = np.eye(M)
    else:
        U, _ = np.linalg.qr(_random_complex((M, data.draw(st.integers(1, M), label="r")), rng))
    core = random_hermitian(U.shape[1], rng)
    R = U @ core @ U.conj().T
    objective, euclid_grad = p1_problem(core, U)
    phi = random_phi(M, rng)
    g = euclid_grad(phi)
    ref = -2.0 * (R @ phi)
    assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
    # |phi^H R phi| <= M ||core||_F bounds the rounding of both values below
    scale = M * np.linalg.norm(core)
    assert abs(objective(phi) + quadform(phi, R)) <= 1e-12 * scale
    g_proj = project_to_tangent(g, phi)
    h = 1e-5
    for _ in range(10):
        t = project_to_tangent(_random_complex(M, rng), phi)
        t /= np.linalg.norm(t)
        fd = (objective(phi + h * t) - objective(phi - h * t)) / (2 * h)
        exact = float(np.real(np.vdot(g_proj, t)))
        assert abs(fd - exact) <= 1e-8 * scale


# ------------------------------------------------------------------- designs

def _channels(seed=0, **overrides):
    cfg = ScenarioConfig(**overrides) if overrides else ScenarioConfig()
    return gen_channel_set(cfg, np.random.default_rng(seed))


def _balance(cs, lam):
    return balance_matrix(*dense_totals(cs), lam)


def test_design_balanced_zero_weight_reproducible():
    R = _balance(_channels(seed=1), 0.0)
    phi_a, _ = design_balanced(R, np.eye(len(R)))
    phi_b, _ = design_balanced(R, np.eye(len(R)))
    np.testing.assert_array_equal(phi_a, phi_b)


def test_design_balanced_improves_on_warm_start():
    R = _balance(_channels(seed=2), 100.0)
    phi0 = design_eigen(R, np.eye(len(R)))
    phi, trace = design_balanced(R, np.eye(len(R)))
    assert trace.objective_values[-1] <= -quadform(phi0, R)
    assert unit_modulus_error(phi) < 1e-12


def test_design_balanced_slow_drop_stops_on_gradient_norm():
    # at 20 dB this reference drop creeps along for many steps before its
    # gradient is small; the solve must run until it is, not stop early
    R = _balance(_channels(seed=2084), 100.0)
    _, trace = design_balanced(R, np.eye(len(R)), RcgConfig(max_iters=2000))
    assert trace.converged_by is ConvergedBy.GRAD_NORM
    assert trace.final_grad_norm < 1e-6 * 128


def test_design_balanced_strong_weight_stops_before_cap():
    # at 30 dB R is strongly indefinite; the solve must still converge
    # within the default iteration budget on every reference drop
    for seed in range(90000, 90020):
        R = _balance(_channels(seed=seed), 1000.0)
        _, trace = design_balanced(R, np.eye(len(R)))
        assert trace.converged_by is not ConvergedBy.MAX_ITERS, seed


def test_design_balanced_eigensolve_failure_raises(monkeypatch):
    # a failed warm start is a numerical failure, not a silent random start
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError):
        design_balanced(np.eye(3, dtype=complex), np.eye(3))


@pytest.mark.parametrize("seed", range(3))
def test_design_balanced_near_grid_optimum_m2(seed):
    # M = 2 surface so the 24^2 grid oracle is exhaustive
    from conftest import small_cfg

    cfg = small_cfg(ris_array=__import__("risbal").ArrayGeometry(1, 2))
    cs = gen_channel_set(cfg, np.random.default_rng(40 + seed))
    R = _balance(cs, 1.0)
    _, trace = design_balanced(R, np.eye(2))
    f_grid = grid_min_objective(R, levels=24)
    assert trace.objective_values[-1] <= f_grid + 0.02 * abs(f_grid)


def test_design_eigen_axis_aligned():
    phi = design_eigen(np.diag([2.0, 1.0]).astype(complex), np.eye(2))
    # top eigenvector is e1; its zero entry takes phase 0
    np.testing.assert_allclose(phi, np.array([1.0, 1.0]), atol=1e-12)


def test_design_eigen_identity_degenerate():
    R = np.eye(4, dtype=complex)
    phi = design_eigen(R, np.eye(4))
    assert unit_modulus_error(phi) < 1e-12
    assert _dense_objective(phi, R) == pytest.approx(-4.0)


@pytest.mark.parametrize("seed", range(5))
def test_design_eigen_baseline_quality(seed):
    # rounded top eigenvector: bounded above by M * lambda_max, and measured
    # to land within 35% of the 24-level grid optimum on random instances
    rng = np.random.default_rng(300 + seed)
    R = random_hermitian(4, rng)
    phi = design_eigen(R, np.eye(4))
    val = quadform(phi, R)
    lam_max = np.linalg.eigvalsh(R)[-1]
    assert val <= 4 * lam_max + 1e-9
    grid_max = -grid_min_objective(R, levels=24)
    assert val >= grid_max - 0.35 * abs(grid_max)


def test_design_eigen_lifts_core_through_basis():
    # with a basis, the warm start is that of basis @ R @ basis^H, up to the
    # eigenvector's arbitrary global phase
    rng = np.random.default_rng(17)
    U, _ = np.linalg.qr(_random_complex((8, 3), rng))
    K = random_hermitian(3, rng) + 4.0 * np.eye(3)  # top eigenvalue positive
    phi = design_eigen(K, U)
    ref = design_eigen(U @ K @ U.conj().T, np.eye(8))
    assert unit_modulus_error(phi) < 1e-12
    assert abs(np.vdot(ref, phi)) == pytest.approx(8.0, rel=1e-10)


def test_design_eigen_core_without_positive_eigenvalue_uses_null_space():
    # U K U^H = -u u^H with u = (1, 1)/sqrt(2): the top eigenspace is
    # null(U^H) = span((1, -1)), not the lifted core vector u
    U = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    phi = design_eigen(np.array([[-1.0 + 0j]]), U)
    np.testing.assert_allclose(phi, np.array([1.0, -1.0]), atol=1e-15)


# ----------------------------------------------------------------- Gram core

@pytest.mark.parametrize(
    "ris_array, seeds", [(ArrayGeometry(8, 16), (1, 2)), (ArrayGeometry(16, 32), (3,))]
)
def test_gram_core_reproduces_the_totals_and_their_top_eigenvector(ris_array, seeds):
    # effective_channels' core against the cascade reference, term by term
    for seed in seeds:
        cs = _channels(seed=seed, ris_array=ris_array)
        U, K1, K2 = effective_channels(cs)
        refs = [
            total_gain_matrix([cascade(h, G) for h in h_r])
            for h_r, G in ((cs.h_r1, cs.G1), (cs.h_r2, cs.G2))
        ]
        M, r = U.shape
        assert M == ris_array.size
        assert r <= min(M, (cs.G1.shape[1] + cs.G2.shape[1]) * cs.h_r1.shape[0])
        assert np.linalg.norm(U.conj().T @ U - np.eye(r)) < 1e-12
        for K, ref in zip((K1, K2), refs):
            n = np.linalg.norm(ref)
            assert np.array_equal(K, K.conj().T)
            assert np.linalg.eigvalsh(K).min() >= -1e-10 * n
            assert np.linalg.norm(U @ K @ U.conj().T - ref) <= 1e-12 * n
            assert np.linalg.norm(K) == pytest.approx(n, rel=1e-12)
        for lam in (0.0, 10.0, 100.0, 1000.0):
            R = balance_matrix(*refs, lam)
            vals, vecs = np.linalg.eigh(R)
            core_vals, core_vecs = np.linalg.eigh(balance_matrix(K1, K2, lam))
            assert core_vals[-1] == pytest.approx(vals[-1], rel=1e-10), (seed, lam)
            if vals[-1] - vals[-2] > 1e-6 * np.abs(vals).max():
                lifted = U @ core_vecs[:, -1]
                assert abs(np.vdot(lifted, vecs[:, -1])) == pytest.approx(1.0, abs=1e-8)
                assert abs(np.vdot(design_eigen(R, np.eye(M)),
                                   design_eigen(balance_matrix(K1, K2, lam), U))) \
                    == pytest.approx(M, rel=1e-6), (seed, lam)


@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)])
def test_factor_form_matches_dense_on_drops(ris_array):
    # objective and gradient on (core, U) against -phi^H R phi and -2 R phi
    # for R = U core U^H, at arbitrary phases and at the warm start, for both
    # weights a drop solves
    rng = np.random.default_rng(19)
    for seed in (1, 2):
        U, K1, K2 = effective_channels(_channels(seed=seed, ris_array=ris_array))
        for lam in (0.0, 100.0):
            core = balance_matrix(K1, K2, lam)
            R = U @ core @ U.conj().T
            objective, euclid_grad = p1_problem(core, U)
            for phi in (random_phi(U.shape[0], rng), design_eigen(core, U)):
                assert objective(phi) == pytest.approx(-quadform(phi, R), rel=1e-12)
                g = -2.0 * (R @ phi)
                assert np.linalg.norm(euclid_grad(phi) - g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)])
def test_design_balanced_factor_form_matches_dense_solve(ris_array):
    # the same solve on (core, U) and on U core U^H, from the same warm start
    for seed in (3, 4):
        U, K1, K2 = effective_channels(_channels(seed=seed, ris_array=ris_array))
        for lam in (0.0, 100.0, 1000.0):
            core = balance_matrix(K1, K2, lam)
            phi0 = design_eigen(core, U)
            _, dense = design_balanced(U @ core @ U.conj().T, np.eye(len(U)), phi0=phi0)
            _, factor = design_balanced(core, U, phi0=phi0)
            f = dense.objective_values[-1]
            assert factor.objective_values[-1] == pytest.approx(f, rel=1e-9), (seed, lam)
            assert factor.converged_by is ConvergedBy.GRAD_NORM


@pytest.mark.parametrize("ris_array, same_cells", [(ArrayGeometry(4, 4), False),
                                                   (ArrayGeometry(8, 16), True)],
                         ids=["surface-narrower-than-B", "rank-deficient-B"])
def test_gram_core_basis_has_the_numerical_rank(ris_array, same_cells):
    # M = 16 < 72 columns of [B1 B2], and identical cells (rank half the
    # columns): U is the Householder Q, min(M, c) orthonormal columns for the
    # c columns of [B1 B2] whatever their rank, and still reproduces the
    # cascade totals
    from risbal.ris_design import _gram_factor

    cs = _channels(seed=6, ris_array=ris_array)
    if same_cells:
        cs = replace(cs, G2=cs.G1, h_r2=cs.h_r1)
    B = np.hstack([_gram_factor(cs.h_r1, cs.G1), _gram_factor(cs.h_r2, cs.G2)])
    U, K1, K2 = effective_channels(cs)
    M, r = U.shape
    assert M == ris_array.size
    assert r == min(M, B.shape[1])
    assert np.linalg.norm(U.conj().T @ U - np.eye(r)) < 1e-12
    for K, (h_r, G) in zip((K1, K2), ((cs.h_r1, cs.G1), (cs.h_r2, cs.G2))):
        ref = total_gain_matrix([cascade(h, G) for h in h_r])
        assert K.shape == (r, r)
        assert np.array_equal(K, K.conj().T)
        assert np.linalg.norm(U @ K @ U.conj().T - ref) <= 1e-12 * np.linalg.norm(ref)


def test_gram_core_takes_no_svd_of_its_factor(monkeypatch):
    # the two SVDs are _gram_factor's, one per G_i; the core itself is one QR
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    effective_channels(_channels(seed=1))
    assert len(calls) == 2


@st.composite
def _rank_deficient_channels(draw):
    # small synthetic draws that lose rank: duplicated users, identical cells,
    # or more columns in [B1 B2] than surface elements
    K = draw(st.integers(1, 3))
    N1, N2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    loss = draw(st.sampled_from(["duplicated-users", "identical-cells", "narrow-surface"]))
    # with M <= N1, N2 each G_i has rank M, so [B1 B2] has 2 K M > M columns
    M = draw(st.integers(1, min(N1, N2) if loss == "narrow-surface" else 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G1, G2 = _random_complex((M, N1), rng), _random_complex((M, N2), rng)
    h_r1, h_r2 = _random_complex((K, M), rng), _random_complex((K, M), rng)
    if loss == "duplicated-users":
        h_r1, h_r2 = np.vstack([h_r1, h_r1[:1]]), np.vstack([h_r2[:1], h_r2])
    elif loss == "identical-cells":
        G2, h_r2 = G1, h_r1
    return ChannelSet(G1=G1, G2=G2, h_r1=h_r1, h_r2=h_r2,
                      h_d2=_random_complex((len(h_r2), G2.shape[1]), rng),
                      noise_var=1.0, theta=0.0)


@settings(max_examples=150, deadline=None)
@given(_rank_deficient_channels(), st.sampled_from([0.0, 1.0, 10.0, 1000.0]))
def test_gram_core_exact_under_rank_loss(cs, lam):
    U, K1, K2 = effective_channels(cs)
    M, r = U.shape
    assert np.linalg.norm(U.conj().T @ U - np.eye(r)) < 1e-12
    refs = [total_gain_matrix([cascade(h, G) for h in h_r])
            for h_r, G in ((cs.h_r1, cs.G1), (cs.h_r2, cs.G2))]
    for K, ref in zip((K1, K2), refs):
        assert np.array_equal(K, K.conj().T)
        assert np.linalg.norm(U @ K @ U.conj().T - ref) <= 1e-12 * np.linalg.norm(ref)
    # R = U core U^H has the core's eigenvalues plus M - r zeros
    top = np.linalg.eigvalsh(balance_matrix(K1, K2, lam))[-1]
    if r < M:
        top = max(top, 0.0)
    dense_top = np.linalg.eigvalsh(balance_matrix(*refs, lam))[-1]
    assert top == pytest.approx(dense_top, abs=1e-13 * (1.0 + lam))


def test_numerical_rank_near_overflow_and_empty():
    # singular values near the float maximum keep their rank (a tolerance
    # scaled by the largest value first would overflow to inf and drop them
    # all, hiding overflowing gains as an empty core); no values, rank 0
    from risbal.ris_design import _numerical_rank

    assert _numerical_rank(np.array([2.7e306, 1.5e306, 0.0]), (128, 72)) == 2
    assert _numerical_rank(np.array([]), (128, 0)) == 0


def test_gram_core_degenerate_when_cells_see_the_same_gains():
    # identical cell channels: At1 = At2, so R = (1 - lam) At1 / ||At1|| <= 0
    # for lam > 1 and R has no positive eigenvalue beyond rounding
    cs = _channels(seed=5)
    cs = replace(cs, G2=cs.G1, h_r2=cs.h_r1)
    U, K1, K2 = effective_channels(cs)
    assert U.shape[1] < U.shape[0]
    lam = 10.0
    R = balance_matrix(*dense_totals(cs), lam)
    assert np.linalg.eigvalsh(R)[-1] <= 1e-12 * np.linalg.norm(R)
    phi0 = design_eigen(balance_matrix(K1, K2, lam), U)
    assert np.all(np.isfinite(phi0))
    assert unit_modulus_error(phi0) < 1e-12
    phi, trace = design_balanced(R, np.eye(len(R)), phi0=phi0)
    assert np.all(np.isfinite(phi))
    assert trace.objective_values[-1] <= trace.objective_values[0]


def test_design_random_deterministic_and_feasible():
    a = design_random(16, np.random.default_rng(13))
    b = design_random(16, np.random.default_rng(13))
    np.testing.assert_array_equal(a, b)
    assert unit_modulus_error(a) < 1e-12


def test_design_random_phase_statistics():
    rng = np.random.default_rng(14)
    draws = design_random(100_000, rng)
    assert abs(draws.real.mean()) < 0.02
    assert abs(draws.imag.mean()) < 0.02


# ---------------------------------------------------------------- invariants

def test_uncontrolled_gain_ignores_phase_offset():
    # scaling every cascaded matrix by e^{j theta} leaves the Gram total as is
    rng = np.random.default_rng(15)
    As = [_random_complex((6, 3), rng) for _ in range(3)]
    base = total_gain_matrix(As)
    phi = random_phi(6, rng)
    g0 = quadform(phi, base)
    for theta in [0.0, np.pi / 6, np.pi / 2, np.pi]:
        rotated = total_gain_matrix([np.exp(1j * theta) * A for A in As])
        assert quadform(phi, rotated) == pytest.approx(g0, rel=1e-10)


def test_objective_global_phase_invariance():
    R = _balance(_channels(seed=4), 10.0)
    rng = np.random.default_rng(16)
    phi = random_phi(R.shape[0], rng)
    f = _dense_objective(phi, R)
    for alpha in rng.uniform(0, 2 * np.pi, size=5):
        assert _dense_objective(np.exp(1j * alpha) * phi, R) == pytest.approx(f, rel=1e-10)


def test_tradeoff_monotone_in_weight():
    # normalized uncontrolled gain of the solved design is non-increasing
    # across weights 0, 1, 10, 100 on at least 95% of draws
    cfg = ScenarioConfig()
    ok = 0
    n = 40
    for s in range(n):
        cs = gen_channel_set(cfg, np.random.default_rng(5000 + s))
        At1, At2 = dense_totals(cs)
        At2n = At2 / np.linalg.norm(At2)
        gains = []
        for lam in (0.0, 1.0, 10.0, 100.0):
            phi, _ = design_balanced(balance_matrix(At1, At2, lam), np.eye(len(At1)))
            gains.append(quadform(phi, At2n))
        if all(gains[i + 1] <= gains[i] * (1 + 1e-9) for i in range(3)):
            ok += 1
    assert ok >= 0.95 * n
