from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    cascade,
    dense_factor,
    dense_totals,
    hand_built_channels,
    grid_min_objective,
    project_to_tangent,
    quadform,
    random_hermitian,
    random_phi,
    total_gain_matrix,
)
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import risbal.ris_design
from risbal import (
    ArrayGeometry,
    ConvergedBy,
    GramFactor,
    RicianLinkParams,
    ScenarioConfig,
    balance_matrix,
    design_balanced,
    design_eigen,
    design_random,
    effective_channels,
    gen_channel_set,
    p1_problem,
)
from risbal.errors import NormalizationError, NumericalError
from risbal.manifold import unit_modulus_error
from risbal.manifold import _newton_preconditioner


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
    # a drop's weights pose the same R in factor form, B diag(d) B^H
    cs = _channels(seed=7)
    gram = effective_channels(cs)
    R = balance_matrix(*dense_totals(cs), 100.0)
    factored = (gram.B * gram.weights(100.0)) @ gram.Bh
    assert np.linalg.norm(factored - R) <= 1e-12 * np.linalg.norm(R)


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_balance_matrix_rejects_bad_weight(lam):
    # NaN would give an all-NaN R and inf an invalid-value warning; the
    # factor form's weights take the same check
    with pytest.raises(ValueError):
        balance_matrix(np.eye(2), np.eye(2), lam)
    with pytest.raises(ValueError):
        effective_channels(_channels(seed=1)).weights(lam)


def test_weights_equal_the_uncached_formula():
    # the two gain-total norms are kept with the factor; the weights are the
    # ones computed from scratch on every call, bit for bit
    for seed in (1, 2):
        gram = effective_channels(_channels(seed=seed))
        T, c1 = gram.T, gram.c1
        n1, n2 = (np.linalg.norm(Ti.conj().T @ Ti) for Ti in (T[:, :c1], T[:, c1:]))
        for lam in (0.0, 1.0, 1000.0, 1.0):
            expected = np.repeat([1.0 / n1, -lam / n2], [c1, T.shape[1] - c1])
            assert np.array_equal(gram.weights(lam), expected)


def test_balance_matrix_zero_norm_raises():
    with pytest.raises(NormalizationError):
        balance_matrix(np.zeros((2, 2)), np.eye(2), 1.0)
    # finite entries whose Frobenius norm overflows to inf, without a warning
    with pytest.raises(NormalizationError):
        balance_matrix(np.eye(2), np.full((2, 2), 1e200), 1.0)
    # in factor form: a cell with zero gains, and gains whose total overflows
    cs = _channels(seed=1)
    for G2_range in (np.zeros_like(cs.G2_range), np.full_like(cs.G2_range, 1e200)):
        with pytest.raises(NormalizationError):
            effective_channels(replace(cs, G2_range=G2_range)).weights(1.0)


# ----------------------------------------------------------- objective, grad

def _dense_objective(phi, R):
    return p1_problem(*dense_factor(R))[0](phi)


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


def test_gradient_zero_and_identity():
    rng = np.random.default_rng(11)
    phi = random_phi(5, rng)
    np.testing.assert_array_equal(
        p1_problem(*dense_factor(np.zeros((5, 5))))[1](phi), np.zeros(5)
    )
    np.testing.assert_allclose(
        p1_problem(*dense_factor(np.eye(5, dtype=complex)))[1](phi), -2.0 * phi,
        atol=1e-15,
    )


@settings(max_examples=100, deadline=None)
@given(M=st.integers(1, 24), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gradient_finite_difference_scale_convention(M, data, seed):
    # for a factor B (a dense R's eigenvectors, or any M x c matrix, c up to
    # 2 M) and real weights d, the problem is that of R = B diag(d) B^H: its
    # gradient is -2 R phi, its objective -phi^H R phi, and the projected
    # gradient is the Riemannian gradient, whose inner product with a unit
    # tangent t equals the directional derivative
    rng = np.random.default_rng(seed)
    if data.draw(st.booleans(), label="dense R"):
        gram, d = dense_factor(random_hermitian(M, rng))
    else:
        B = _random_complex((M, data.draw(st.integers(1, 2 * M), label="c")), rng)
        gram = GramFactor(B, np.ascontiguousarray(B.conj().T), np.linalg.qr(B, mode="r"), 0)
        d = rng.standard_normal(B.shape[1])
    R = (gram.B * d) @ gram.Bh
    objective, euclid_grad = p1_problem(gram, d)
    phi = random_phi(M, rng)
    g = euclid_grad(phi)
    ref = -2.0 * (R @ phi)
    assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
    # |phi^H R phi| <= M sum_j |d_j| ||b_j||^2 bounds the rounding of both values below
    scale = M * np.abs(d) @ np.linalg.norm(gram.B, axis=0) ** 2
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


def _design(cs, lam):
    """The program's design of a drop at weight lam, on its Gram factor."""
    gram = effective_channels(cs)
    return design_balanced(gram, gram.weights(lam))


def test_design_balanced_zero_weight_reproducible():
    cs = _channels(seed=1)
    phi_a, _ = _design(cs, 0.0)
    phi_b, _ = _design(cs, 0.0)
    np.testing.assert_array_equal(phi_a, phi_b)


def test_design_balanced_improves_on_warm_start():
    cs = _channels(seed=2)
    gram = effective_channels(cs)
    phi0 = design_eigen(gram, gram.weights(100.0))
    phi, trace = _design(cs, 100.0)
    assert trace.objective_values[-1] <= -quadform(phi0, _balance(cs, 100.0))
    assert unit_modulus_error(phi) < 1e-12


def test_design_balanced_slow_drop_stops_on_gradient_norm():
    # at 20 dB this reference drop creeps along for many steps before its
    # gradient is small; the solve must run until it is, not stop early
    _, trace = _design(_channels(seed=2084), 100.0)
    assert trace.converged_by is ConvergedBy.GRAD_NORM
    assert trace.final_grad_norm < 1e-6 * 128


def test_design_balanced_strong_weight_stops_before_cap():
    # at 30 dB R is strongly indefinite; the solve must still converge
    # within the default iteration budget on every reference drop
    for seed in range(90000, 90020):
        _, trace = _design(_channels(seed=seed), 1000.0)
        assert trace.converged_by is not ConvergedBy.MAX_ITERS, seed


def test_design_balanced_newton_phase_cuts_gradient_calls(monkeypatch):
    # the preconditioned Newton phase needs at most 0.8x the gradient calls of
    # an unpreconditioned one from the same warm start, and ends no worse
    # than it beyond 1e-9 relative; at 100 dB the gradient never gets small
    # enough to enter the phase, so the design is the plain solve's, bit for
    # bit
    import risbal.manifold
    import risbal.ris_design

    calls = [0]
    original = risbal.ris_design.p1_problem

    def counted(gram, d):
        objective, euclid_grad = original(gram, d)

        def grad(phi):
            calls[0] += 1
            return euclid_grad(phi)

        return objective, grad

    monkeypatch.setattr(risbal.ris_design, "p1_problem", counted)

    def solve(gram, d, preconditioned):
        calls[0] = 0
        with monkeypatch.context() as patch:
            if not preconditioned:
                patch.setattr(risbal.manifold, "_newton_preconditioner", lambda *args: None)
            phi, trace = design_balanced(gram, d)
        return phi, trace, calls[0]

    for seed in range(4):
        gram = effective_channels(_channels(seed=seed))
        for lam_db in (20, 30, 100):
            d = gram.weights(10.0 ** (lam_db / 10))
            phi, trace, n = solve(gram, d, True)
            ref_phi, ref, n_ref = solve(gram, d, False)
            if lam_db == 100:
                np.testing.assert_array_equal(phi, ref_phi)
                continue
            assert n <= 0.8 * n_ref, (seed, lam_db, n, n_ref)
            f, f_ref = trace.objective_values[-1], ref.objective_values[-1]
            assert f - f_ref <= 1e-9 * abs(f_ref), (seed, lam_db)


@settings(max_examples=100, deadline=None)
@given(ris_array=st.sampled_from([ArrayGeometry(1, 1), ArrayGeometry(1, 3), ArrayGeometry(2, 4),
                                  ArrayGeometry(4, 4)]),
       users=st.integers(1, 3), paths=st.integers(0, 3),
       lam=st.sampled_from([0.0, 1.0, 10.0, 100.0, 1000.0]), seed=st.integers(0, 2**32 - 1))
def test_leakage_preconditioner_matches_dense_solve(ris_array, users, paths, lam, seed):
    # P = diag(max(-c, 1e-2 mean|c|)) + 2 lam/n_2 Re(W W^H), W = diag(conj phi) B_2 Z,
    # at the curvature c = Re(conj phi o euclid_grad(phi)) of random phases:
    # P is symmetric positive definite, and its Woodbury inverse is the dense
    # solve's, also where B_2 has fewer than 8 columns (one user, no
    # scattered path) or the surface fewer than 8 elements
    from conftest import small_cfg

    rng = np.random.default_rng(seed)
    cfg = small_cfg(ris_array=ris_array, users_per_cell=users,
                    bs_ris_link=RicianLinkParams(2.5, 5.0, paths))
    gram = effective_channels(gen_channel_set(cfg, rng))
    d = gram.weights(lam)
    M = ris_array.size
    phi = random_phi(M, rng)
    curvature = (phi.conj() * p1_problem(gram, d)[1](phi)).real
    # a curvature at rounding level is an R that cancels to 0 (M = 1 at
    # lam = 1), where the Woodbury capacitance inverse loses all accuracy;
    # the solver never builds P there, as the objective is constant and the
    # solve stops on its gradient at once
    assume(np.abs(curvature).max() > 1e-9 * (1.0 + lam))
    psd_term = (gram.leakage_basis, -2.0 * d[gram.c1]) if lam > 0.0 else None
    pinv = _newton_preconditioner(phi, curvature, psd_term)
    P = np.diag(np.maximum(-curvature, 1e-2 * np.mean(np.abs(curvature))))
    if lam > 0.0:
        # the basis is B_2 Z for B_2's top right singular vectors Z, of the
        # clamped rank k: its Gram matrix is diag(sigma_1..k^2)
        B2 = gram.B[:, gram.c1:]
        basis = gram.leakage_basis
        k = min(8, *gram.T[:, gram.c1:].shape)
        sigma = np.linalg.svd(B2, compute_uv=False)
        assert basis.shape == (M, k)
        np.testing.assert_allclose(basis.conj().T @ basis, np.diag(sigma[:k] ** 2),
                                   rtol=0.0, atol=1e-12 * sigma[0] ** 2)
        W = phi.conj()[:, None] * basis
        P += 2.0 * lam / np.linalg.norm(B2 @ B2.conj().T) * (W @ W.conj().T).real
    assert np.linalg.eigvalsh(P).min() > 0.0
    P_inv = np.column_stack([pinv(e) for e in np.eye(M)])
    assert np.linalg.norm(P_inv - P_inv.T) <= 1e-10 * np.linalg.norm(P_inv)
    for r in (rng.standard_normal(M), curvature):
        x = np.linalg.solve(P, r)
        assert np.linalg.norm(pinv(r) - x) <= 1e-10 * np.linalg.norm(x)


def test_design_balanced_leaves_out_zero_weight_columns(monkeypatch):
    # at weight 0 B_2's columns weigh 0: the warm start and the solve run on
    # B_1 and T's leading block, which is B_1's triangular factor
    import risbal.ris_design

    cs = _channels(seed=3, ris_array=ArrayGeometry(16, 32))
    gram = effective_channels(cs)
    seen = []
    original = risbal.ris_design.design_eigen

    def recorded(g, d):
        seen.append((g.B.shape, g.T.shape, d.shape))
        return original(g, d)

    monkeypatch.setattr(risbal.ris_design, "design_eigen", recorded)
    for lam in (0.0, 100.0):
        design_balanced(gram, gram.weights(lam))
    c1, c = gram.c1, gram.B.shape[1]
    assert seen == [((512, c1), (c1, c1), (c1,)), ((512, c), (c, c), (c,))]
    B1 = gram.B[:, :c1]
    assert np.linalg.norm(B1.conj().T @ B1 - gram.T[:c1, :c1].conj().T @ gram.T[:c1, :c1]) \
        <= 1e-12 * np.linalg.norm(B1) ** 2


def test_design_balanced_eigensolve_failure_raises(monkeypatch):
    # a failed warm start is a numerical failure, not a silent random start,
    # on either path: zheevr's nonzero info, and eigh's LinAlgError
    def fail(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    gram = effective_channels(_channels(seed=1))
    monkeypatch.setattr(risbal.ris_design, "_zheevr", lambda: lambda *args: 3)
    with pytest.raises(NumericalError, match="info 3"):
        design_balanced(gram, gram.weights(1.0))
    monkeypatch.setattr(risbal.ris_design, "_zheevr", lambda: None)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    with pytest.raises(NumericalError, match="did not converge"):
        design_balanced(gram, gram.weights(1.0))


def test_design_eigen_rejects_non_finite_core():
    # LAPACK's code runs outside numpy's floating-point policy, so a NaN or
    # inf in the core is caught before the eigensolve
    gram = effective_channels(_channels(seed=1))
    d = gram.weights(1.0)
    for bad in (np.nan, np.inf):
        d_bad = d.copy()
        d_bad[-1] = bad
        # for a caller who silenced numpy's warnings
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError, match="non-finite"):
            design_eigen(gram, d_bad)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 3.0, -2.5])
def test_design_eigen_ignores_eigenvector_phase(monkeypatch, theta):
    # the eigenvector's global phase is arbitrary; the warm start pins its
    # own, so it is the same whichever phase the eigensolver returns, in the
    # lift and in the r = M branch that forms Q
    original = risbal.ris_design._top_eigenpair

    def turned(K):
        mu, w = original(K)
        return mu, w * np.exp(1j * theta)

    gram = effective_channels(_channels(seed=2))
    U = np.linalg.qr(_random_complex((3, 3), np.random.default_rng(5)))[0]
    top_zero = dense_factor((U * [0.0, -1.0, -2.0]) @ U.conj().T)
    problems = [(gram, gram.weights(lam)) for lam in (0.0, 1.0, 1000.0)] + [top_zero]
    before = [design_eigen(*problem) for problem in problems]
    monkeypatch.setattr(risbal.ris_design, "_top_eigenpair", turned)
    for problem, phi in zip(problems, before):
        np.testing.assert_allclose(design_eigen(*problem), phi, rtol=0, atol=1e-12)


needs_zheevr = pytest.mark.skipif(
    not risbal.ris_design._zheevr(),
    reason="numpy's libraries do not export scipy_LAPACKE_zheevr64_",
)


@needs_zheevr
@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)],
                         ids=["M128", "M512"])
def test_zheevr_and_eigh_paths_agree(monkeypatch, ris_array):
    # the subset eigensolver and numpy's full eigh give the same warm start,
    # and the designs solved from them end at the same objective
    binding = risbal.ris_design._zheevr
    for seed in (0, 1):
        gram = effective_channels(_channels(seed=seed, ris_array=ris_array))
        for lam in (0.0, 1.0, 10.0, 100.0, 1000.0):
            d = gram.weights(lam)
            runs = []
            for zheevr in (binding, lambda: None):
                monkeypatch.setattr(risbal.ris_design, "_zheevr", zheevr)
                runs.append((design_eigen(gram, d), design_balanced(gram, d)[1]))
            (phi_a, trace_a), (phi_b, trace_b) = runs
            assert np.abs(phi_a - phi_b).max() <= 1e-10
            f_a, f_b = trace_a.objective_values[-1], trace_b.objective_values[-1]
            assert abs(f_a - f_b) <= 1e-9 * abs(f_b)


@pytest.mark.parametrize("seed", range(3))
def test_design_balanced_near_grid_optimum_m2(seed):
    # M = 2 surface so the 24^2 grid oracle is exhaustive
    from conftest import small_cfg

    cfg = small_cfg(ris_array=ArrayGeometry(1, 2))
    cs = gen_channel_set(cfg, np.random.default_rng(40 + seed))
    _, trace = _design(cs, 1.0)
    f_grid = grid_min_objective(_balance(cs, 1.0), levels=24)
    assert trace.objective_values[-1] <= f_grid + 0.02 * abs(f_grid)


def test_design_eigen_axis_aligned():
    phi = design_eigen(*dense_factor(np.diag([2.0, 1.0]).astype(complex)))
    # top eigenvector is e1; its zero entry takes phase 0
    np.testing.assert_allclose(phi, np.array([1.0, 1.0]), atol=1e-12)


def test_design_eigen_identity_degenerate():
    R = np.eye(4, dtype=complex)
    phi = design_eigen(*dense_factor(R))
    assert unit_modulus_error(phi) < 1e-12
    assert _dense_objective(phi, R) == pytest.approx(-4.0)


@pytest.mark.parametrize("seed", range(5))
def test_design_eigen_baseline_quality(seed):
    # rounded top eigenvector: bounded above by M * lambda_max, and measured
    # to land within 35% of the 24-level grid optimum on random instances
    rng = np.random.default_rng(300 + seed)
    R = random_hermitian(4, rng)
    phi = design_eigen(*dense_factor(R))
    val = quadform(phi, R)
    lam_max = np.linalg.eigvalsh(R)[-1]
    assert val <= 4 * lam_max + 1e-9
    grid_max = -grid_min_objective(R, levels=24)
    assert val >= grid_max - 0.35 * abs(grid_max)


def test_design_eigen_lifts_core_through_basis():
    # the core's top eigenvector lifts through B = Q T without Q, up to the
    # eigenvector's arbitrary global phase, for a narrow and a wide factor
    rng = np.random.default_rng(17)
    for c in (3, 12):
        B = _random_complex((8, c), rng)
        gram = GramFactor(B, np.ascontiguousarray(B.conj().T), np.linalg.qr(B, mode="r"), 0)
        d = rng.standard_normal(c) + 1.0  # top eigenvalue positive
        phi = design_eigen(gram, d)
        ref = design_eigen(*dense_factor((B * d) @ B.conj().T))
        assert unit_modulus_error(phi) < 1e-12
        assert abs(np.vdot(ref, phi)) == pytest.approx(8.0, rel=1e-10)


def test_design_eigen_core_without_positive_eigenvalue_uses_null_space():
    # B diag(d) B^H = -u u^H with u = (1, 1)/sqrt(2): the top eigenspace is
    # null(B^H) = span((1, -1)), not the lifted core vector u
    B = np.array([[1.0], [1.0]], dtype=complex) / np.sqrt(2.0)
    gram = GramFactor(B, B.conj().T.copy(), np.linalg.qr(B, mode="r"), 1)
    phi = design_eigen(gram, np.array([-1.0]))
    np.testing.assert_allclose(phi, np.array([1.0, -1.0]), atol=1e-15)


# --------------------------------------------------------------- Gram factor

def _reference_totals(cs):
    return [total_gain_matrix([cascade(h, G) for h in h_r])
            for h_r, G in ((cs.h_r1, cs.G1), (cs.h_r2, cs.G2))]


def _check_factor(cs):
    """effective_channels' factor against the cascade totals, term by term:
    B_i B_i^H = At_i and B = Q T for an orthonormal Q with T upper triangular;
    B as the per-cell blocks side by side, bit for bit, and Bh its own array."""
    gram = effective_channels(cs)
    M, c = gram.B.shape
    B1, B2 = ((h_r.T[:, :, None] * F[:, None, :]).reshape(M, -1)
              for h_r, F in ((cs.h_r1, cs.G1_range), (cs.h_r2, cs.G2_range)))
    assert gram.c1 == B1.shape[1] and np.array_equal(gram.B, np.hstack([B1, B2]))
    assert not np.shares_memory(gram.Bh, gram.B)
    assert gram.T.shape == (min(M, c), c)
    assert np.array_equal(gram.Bh, gram.B.conj().T) and gram.Bh.flags.c_contiguous
    assert np.array_equal(gram.T, np.triu(gram.T))
    Q, T = np.linalg.qr(gram.B)
    assert np.array_equal(T, gram.T)  # the QR that mode 'r' returns the factor of
    for B, ref in zip((gram.B[:, :gram.c1], gram.B[:, gram.c1:]), _reference_totals(cs)):
        assert np.linalg.norm(B @ B.conj().T - ref) <= 1e-12 * np.linalg.norm(ref)
    return gram


@pytest.mark.parametrize(
    "ris_array, seeds", [(ArrayGeometry(8, 16), (1, 2)), (ArrayGeometry(16, 32), (3,))]
)
def test_gram_core_reproduces_the_totals_and_their_top_eigenvector(ris_array, seeds):
    # the factor against the cascade reference, and the lifted warm start
    # against the rounded top eigenvector of the dense R
    for seed in seeds:
        cs = _channels(seed=seed, ris_array=ris_array)
        gram = _check_factor(cs)
        M = ris_array.size
        assert gram.B.shape[1] == 2 * cs.h_r1.shape[0] * 9  # K (L + 1) columns a cell
        for lam in (0.0, 10.0, 100.0, 1000.0):
            R = balance_matrix(*_reference_totals(cs), lam)
            vals = np.linalg.eigvalsh(R)
            d = gram.weights(lam)
            core_vals = np.linalg.eigvalsh((gram.T * d) @ gram.T.conj().T)
            assert core_vals[-1] == pytest.approx(vals[-1], rel=1e-10), (seed, lam)
            if vals[-1] - vals[-2] > 1e-6 * np.abs(vals).max():
                assert abs(np.vdot(design_eigen(*dense_factor(R)), design_eigen(gram, d))) \
                    == pytest.approx(M, rel=1e-6), (seed, lam)


@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)])
def test_factor_form_matches_dense_on_drops(ris_array):
    # objective and gradient on the drop's factor against -phi^H R phi and
    # -2 R phi for the dense R, at arbitrary phases and at the warm start,
    # for both weights a drop solves
    rng = np.random.default_rng(19)
    for seed in (1, 2):
        cs = _channels(seed=seed, ris_array=ris_array)
        gram = effective_channels(cs)
        for lam in (0.0, 100.0):
            d = gram.weights(lam)
            R = _balance(cs, lam)
            objective, euclid_grad = p1_problem(gram, d)
            for phi in (random_phi(ris_array.size, rng), design_eigen(gram, d)):
                assert objective(phi) == pytest.approx(-quadform(phi, R), rel=1e-12)
                g = -2.0 * (R @ phi)
                assert np.linalg.norm(euclid_grad(phi) - g) <= 1e-12 * np.linalg.norm(g)


@pytest.mark.parametrize("ris_array", [ArrayGeometry(8, 16), ArrayGeometry(16, 32)])
def test_design_balanced_factor_form_matches_dense_solve(ris_array):
    # the same solve on the drop's factor and on the dense R, from the same
    # warm start
    for seed in (3, 4):
        cs = _channels(seed=seed, ris_array=ris_array)
        gram = effective_channels(cs)
        for lam in (0.0, 100.0, 1000.0):
            d = gram.weights(lam)
            phi0 = design_eigen(gram, d)
            _, dense = design_balanced(*dense_factor(_balance(cs, lam)), phi0=phi0)
            _, factor = design_balanced(gram, d, phi0=phi0)
            f = dense.objective_values[-1]
            assert factor.objective_values[-1] == pytest.approx(f, rel=1e-9), (seed, lam)
            assert factor.converged_by is ConvergedBy.GRAD_NORM


@pytest.mark.parametrize("ris_array, same_cells", [(ArrayGeometry(4, 4), False),
                                                   (ArrayGeometry(8, 16), True)],
                         ids=["surface-narrower-than-B", "rank-deficient-B"])
def test_gram_core_basis_has_the_numerical_rank(ris_array, same_cells):
    # M = 16 < 72 columns of [B1 B2], and identical cells (rank half the
    # columns): T is the Householder factor, min(M, c) rows for the c columns
    # of [B1 B2] whatever their rank, and B still reproduces the cascade totals
    cs = _channels(seed=6, ris_array=ris_array)
    if same_cells:
        cs = replace(cs, G2=cs.G1, G2_range=cs.G1_range, h_r2=cs.h_r1)
    gram = _check_factor(cs)
    assert gram.B.shape == (ris_array.size, 72)


def test_gram_core_takes_no_svd_of_its_factor(monkeypatch):
    # each G_i comes with its range factor, and the factor's QR is the only
    # decomposition: no SVD, no rank test
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    cs = _channels(seed=1)
    monkeypatch.setattr(np.linalg, "svd", counted)
    effective_channels(cs)
    assert calls == []


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
    return hand_built_channels(G1=G1, G2=G2, h_r1=h_r1, h_r2=h_r2,
                               h_d2=_random_complex((len(h_r2), G2.shape[1]), rng))


@st.composite
def _drops(draw):
    # real drops on the default, the 512-element and the 2x4 surface (the
    # last with 2x2 BSs and 2 users a cell, so [B1 B2] is 8 x 16)
    small = dict(ris_array=ArrayGeometry(2, 4), users_per_cell=2,
                 bs1_array=ArrayGeometry(2, 2), bs2_array=ArrayGeometry(2, 2))
    overrides = draw(st.sampled_from([{}, dict(ris_array=ArrayGeometry(16, 32)), small]))
    return _channels(seed=draw(st.integers(0, 2**32 - 1)), **overrides)


@settings(max_examples=150, deadline=None)
@given(_rank_deficient_channels(), st.sampled_from([0.0, 1.0, 10.0, 1000.0]))
def test_gram_core_exact_under_rank_loss(cs, lam):
    gram = _check_factor(cs)
    M = gram.B.shape[0]
    # R = B diag(d) B^H has the core's eigenvalues plus M - r zeros
    top = np.linalg.eigvalsh((gram.T * gram.weights(lam)) @ gram.T.conj().T)[-1]
    if gram.T.shape[0] < M:
        top = max(top, 0.0)
    dense_top = np.linalg.eigvalsh(balance_matrix(*_reference_totals(cs), lam))[-1]
    assert top == pytest.approx(dense_top, abs=1e-13 * (1.0 + lam))


@settings(max_examples=120, deadline=None)
@given(st.one_of(_rank_deficient_channels(), _drops()),
       st.sampled_from([0.0, 1.0, 10.0, 100.0, 1000.0]), st.integers(0, 2**32 - 1))
def test_factor_form_matches_dense(cs, lam, seed):
    # objective and gradient on the drop's factor against -phi^H R phi and
    # -2 R phi of the dense R = At1/n1 - lam At2/n2 of dense_totals, at
    # arbitrary phases and at the warm start, within 1e-12 of the scale
    # 1 + lam of R's two normalized terms (R itself cancels to rounding for
    # identical cells at lam = 1). The warm start is the rounded top
    # eigenvector of the dense R, up to a global phase, wherever that
    # eigenvalue is simple and nonzero: its gap to the next and its modulus
    # above 1e-6 (1 + lam), and no entry of the eigenvector below 1e-3 / sqrt(M)
    # in modulus, where rounding the phase would amplify its error.
    gram = effective_channels(cs)
    M = gram.B.shape[0]
    d = gram.weights(lam)
    R = balance_matrix(*dense_totals(cs), lam)
    objective, euclid_grad = p1_problem(gram, d)
    scale = 1.0 + lam
    phi0 = design_eigen(gram, d)
    for phi in (random_phi(M, np.random.default_rng(seed)), phi0):
        assert abs(objective(phi) + quadform(phi, R)) <= 1e-12 * M * scale
        g = -2.0 * (R @ phi)
        assert np.linalg.norm(euclid_grad(phi) - g) <= 1e-12 * 2.0 * np.sqrt(M) * scale
    vals, vecs = np.linalg.eigh(R)
    v = vecs[:, -1]
    top_gap = vals[-1] - vals[-2] if M > 1 else np.inf
    if min(top_gap, abs(vals[-1])) > 1e-6 * scale and np.abs(v).min() > 1e-3 / np.sqrt(M):
        ref = v / np.abs(v)
        aligned = ref * np.exp(1j * np.angle(np.vdot(ref, phi0)))
        assert np.abs(phi0 - aligned).max() <= 1e-10


def test_gram_core_degenerate_when_cells_see_the_same_gains(monkeypatch):
    # identical cell channels: At1 = At2, so R = (1 - lam) At1 / ||At1|| <= 0
    # for lam > 1 and R has no positive eigenvalue beyond rounding; the warm
    # start is taken from null(B^H), the one branch that forms Q
    cs = _channels(seed=5)
    cs = replace(cs, G2=cs.G1, G2_range=cs.G1_range, h_r2=cs.h_r1)
    gram = effective_channels(cs)
    assert gram.T.shape[0] < gram.B.shape[0]
    lam = 10.0
    R = _balance(cs, lam)
    assert np.linalg.eigvalsh(R)[-1] <= 1e-12 * np.linalg.norm(R)
    qr_modes = []
    qr = np.linalg.qr

    def recorded(a, mode="reduced"):
        qr_modes.append(mode)
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    phi0 = design_eigen(gram, gram.weights(lam))
    assert qr_modes == ["reduced"]
    assert np.all(np.isfinite(phi0))
    assert unit_modulus_error(phi0) < 1e-12
    phi, trace = design_balanced(*dense_factor(R), phi0=phi0)
    assert np.all(np.isfinite(phi))
    assert trace.objective_values[-1] <= trace.objective_values[0]
    gram = effective_channels(_channels(seed=5))
    qr_modes.clear()
    for lam in (0.0, 1000.0):  # a drop's designs form no Q
        design_eigen(gram, gram.weights(lam))
    assert qr_modes == []


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
    cs = _channels(seed=4)
    gram = effective_channels(cs)
    objective = p1_problem(gram, gram.weights(10.0))[0]
    rng = np.random.default_rng(16)
    phi = random_phi(gram.B.shape[0], rng)
    f = objective(phi)
    for alpha in rng.uniform(0, 2 * np.pi, size=5):
        assert objective(np.exp(1j * alpha) * phi) == pytest.approx(f, rel=1e-10)


def test_tradeoff_monotone_in_weight():
    # normalized uncontrolled gain of the solved design is non-increasing
    # across weights 0, 1, 10, 100 on at least 95% of draws
    cfg = ScenarioConfig()
    ok = 0
    n = 40
    for s in range(n):
        cs = gen_channel_set(cfg, np.random.default_rng(5000 + s))
        _, At2 = dense_totals(cs)
        At2n = At2 / np.linalg.norm(At2)
        gains = []
        for lam in (0.0, 1.0, 10.0, 100.0):
            phi, _ = _design(cs, lam)
            gains.append(quadform(phi, At2n))
        if all(gains[i + 1] <= gains[i] * (1 + 1e-9) for i in range(3)):
            ok += 1
    assert ok >= 0.95 * n
