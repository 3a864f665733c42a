import numpy as np
import pytest
from conftest import (
    dense_factor,
    grid_min_objective,
    project_to_tangent,
    quadform,
    random_hermitian,
    random_phi,
    random_tangent,
    tangency_error,
)

from risbal import ConvergedBy, p1_problem, rcg_minimize
from risbal.errors import DimensionError, NumericalError
import risbal.manifold
from risbal.manifold import _truncated_cg, unit_modulus_error


# ---------------------------------------------------------------- projection

def test_project_hand_example():
    # entry 1: (1+i) - Re(1+i)*1 = i ; entry 2: 2 - Re(2*conj(i))*i = 2
    phi = np.array([1.0, 1j])
    g = np.array([1.0 + 1j, 2.0])
    out = project_to_tangent(g, phi)
    np.testing.assert_allclose(out, np.array([1j, 2.0]), atol=1e-15)


def test_project_of_base_point_is_zero():
    rng = np.random.default_rng(0)
    phi = random_phi(5, rng)
    np.testing.assert_allclose(project_to_tangent(phi, phi), 0.0, atol=1e-14)


@pytest.mark.parametrize("M", [1, 2, 7, 32])
def test_project_idempotent_and_tangent(M):
    rng = np.random.default_rng(M)
    phi = random_phi(M, rng)
    g = rng.standard_normal(M) + 1j * rng.standard_normal(M)
    t = project_to_tangent(g, phi)
    assert tangency_error(t, phi) < 1e-10
    np.testing.assert_allclose(project_to_tangent(t, phi), t, atol=1e-10)


def test_project_dimension_mismatch():
    with pytest.raises(DimensionError):
        project_to_tangent(np.ones(3, dtype=complex), np.ones(2, dtype=complex))


# ------------------------------------------------------------- inner solve

@pytest.mark.parametrize("definite", [False, True])
@pytest.mark.parametrize("radius", [1e-3, 0.5, 100.0])
def test_truncated_cg_step_within_radius_lowers_model(definite, radius):
    # an indefinite Hessian sends every solve to the boundary; a
    # positive-definite one lets a large radius hold the CG solution inside.
    # The solver calls it in real tangent coordinates; a complex tangent
    # space with a projected Hessian must give the same guarantees. The
    # iterates are updated in place, and g must come out unchanged. With a
    # preconditioner pinv = P^-1, P = diag + low rank and P >= I, the ball
    # is in the P-norm sqrt(<eta, P eta>)
    rng = np.random.default_rng(6)
    M = 8
    phi = random_phi(M, rng)
    H_real = rng.standard_normal((M, M))
    H_real = (H_real + H_real.T) / 2.0
    H = random_hermitian(M, rng)
    cases = [
        (lambda u: H_real @ u, rng.standard_normal(M), H_real, lambda eta: 0.0, None),
        (lambda u: project_to_tangent(H @ u, phi), random_tangent(phi, rng), H,
         lambda eta: tangency_error(eta, phi), None),
    ]
    for rank in (1, 3):
        U = rng.standard_normal((M, rank))
        P = np.diag(1.0 + rng.uniform(size=M)) + U @ U.T
        H_pre = rng.standard_normal((M, M))
        H_pre = (H_pre + H_pre.T) / 2.0
        cases.append((lambda u, H_pre=H_pre: H_pre @ u, rng.standard_normal(M), H_pre,
                      lambda eta: 0.0, P))
    for hess, g, H_case, off_tangent, P in cases:
        if definite:
            H_case[...] = H_case @ H_case + np.eye(M)
        g_before = g.copy()
        if P is None:
            eta, h_eta, at_boundary = _truncated_cg(hess, g, radius, M)
            norm = np.linalg.norm(eta)
        else:
            P_inv = np.linalg.inv(P)
            eta, h_eta, at_boundary = _truncated_cg(hess, g, radius, M, lambda r: P_inv @ r)
            norm = np.sqrt(eta @ P @ eta)
        np.testing.assert_array_equal(g, g_before)
        assert norm <= radius * (1 + 1e-12)
        assert at_boundary == (norm >= radius * (1 - 1e-12))
        assert at_boundary == (not definite or radius < 100.0)
        assert off_tangent(eta) < 1e-12
        np.testing.assert_allclose(h_eta, hess(eta), atol=1e-10)
        model = float(np.real(np.vdot(g, eta) + 0.5 * np.vdot(eta, h_eta)))
        assert model < 0.0


def test_truncated_cg_preconditioned_step_solves_newton_system():
    # inside the ball, preconditioned CG ends at the Newton step -H^-1 g of a
    # positive-definite H to the stop test's accuracy, whatever P
    rng = np.random.default_rng(7)
    M = 12
    H = rng.standard_normal((M, M))
    H = H @ H.T + np.eye(M)
    U = rng.standard_normal((M, 2))
    P_inv = np.linalg.inv(np.diag(1.0 + rng.uniform(size=M)) + U @ U.T)
    g = 1e-3 * rng.standard_normal(M)
    eta, _, at_boundary = _truncated_cg(lambda u: H @ u, g, 100.0, M, lambda r: P_inv @ r)
    assert not at_boundary
    newton = -np.linalg.solve(H, g)
    assert np.linalg.norm(eta - newton) <= 1e-3 * np.linalg.norm(newton)


# -------------------------------------------------------------------- solver

def test_rcg_preconditioner_only_in_newton_phase(monkeypatch):
    # the preconditioner is built only at accepted points whose gradient
    # norm is below 0.1, with Re(conj phi o euclid_grad(phi)) there and the
    # caller's psd_term; without one (the diagonal alone) the solve still
    # converges, monotonically
    rng = np.random.default_rng(20)
    M = 32
    R = random_hermitian(M, rng)
    phi0 = random_phi(M, rng)
    objective, grad = (lambda p: -quadform(p, R)), (lambda p: -2.0 * (R @ p))
    seen = []
    original = risbal.manifold._newton_preconditioner

    def recorded(phi, curvature, psd_term):
        seen.append((phi.copy(), curvature.copy(), psd_term))
        return original(phi, curvature, psd_term)

    monkeypatch.setattr(risbal.manifold, "_newton_preconditioner", recorded)
    _, trace = rcg_minimize(objective, grad, phi0)
    assert trace.converged_by is ConvergedBy.GRAD_NORM
    assert np.all(np.diff(trace.objective_values) <= 0)
    assert seen
    for point, curvature, psd_term in seen:
        p = point.conj() * grad(point)
        assert np.linalg.norm(p.imag) < 0.1
        np.testing.assert_array_equal(curvature, p.real)
        assert psd_term is None


def test_rcg_rejects_bad_psd_term():
    # V must have one row per surface element; s must be finite and positive
    rng = np.random.default_rng(21)
    M = 6
    R = random_hermitian(M, rng)
    args = (lambda p: -quadform(p, R)), (lambda p: -2.0 * (R @ p)), random_phi(M, rng)
    for V in (np.ones((M - 1, 2)), np.ones(M), np.ones((M, 2, 1))):
        with pytest.raises(DimensionError):
            rcg_minimize(*args, (V, 1.0))
    for s in (0.0, -1.0, np.inf, np.nan, True, "1", 1j):
        with pytest.raises(ValueError):
            rcg_minimize(*args, (np.ones((M, 2)), s))


def test_rcg_calls_gradient_only_on_points_and_tangent_vectors():
    # every euclid_grad call is phi0, an accepted point or a tangent vector
    # i phi * x at the current iterate phi; no off-manifold probe
    # phi + i phi * x / ||x|| is left, and no call at 0, as the gradient is
    # linear
    rng = np.random.default_rng(19)
    M = 24
    R = random_hermitian(M, rng)
    phi0 = random_phi(M, rng)
    candidates, args = [], []

    def objective(p):
        candidates.append(p.copy())
        return -quadform(p, R)

    def grad(p):
        args.append(p.copy())
        return -2.0 * (R @ p)

    phi, trace = rcg_minimize(objective, grad, phi0)
    assert trace.converged_by is ConvergedBy.GRAD_NORM
    zeros, points, tangents = 0, [], 0
    current = phi0
    for v in args:
        if not v.any():
            zeros += 1
        elif unit_modulus_error(v) < 1e-12:
            # phi0 is the first point the objective sees
            assert any(np.array_equal(v, p) for p in candidates)
            current = v
            points.append(v)
        else:
            assert np.max(np.abs((current.conj() * v).real)) <= 1e-12 * np.max(np.abs(v))
            tangents += 1
    assert zeros == 0
    np.testing.assert_array_equal(points[0], phi0)
    np.testing.assert_array_equal(current, phi)
    assert len(points) > 1 and tangents >= trace.iterations


def test_rcg_scaled_identity_stays_at_start():
    # gradient of -phi^H (cI) phi lies in the normal space, so the projected
    # gradient is zero and the solver stops immediately at phi0
    rng = np.random.default_rng(7)
    M = 6
    c = 2.5
    phi0 = random_phi(M, rng)
    phi, trace = rcg_minimize(
        lambda p: -c * quadform(p, np.eye(M)),
        lambda p: -c * p,
        phi0,
    )
    np.testing.assert_array_equal(phi, phi0)
    assert trace.iterations == 0
    assert trace.converged_by is ConvergedBy.GRAD_NORM
    assert len(trace.objective_values) == 1


@pytest.mark.parametrize("seed", range(5))
def test_rcg_matches_phase_grid_oracle_m3(seed):
    rng = np.random.default_rng(100 + seed)
    R = random_hermitian(3, rng)
    f_grid = grid_min_objective(R, levels=24)
    # eigen-rounded warm start
    _, vecs = np.linalg.eigh(R)
    v = vecs[:, -1]
    v = np.where(np.abs(v) == 0, 1.0, v)
    phi0 = v / np.abs(v)
    phi, trace = rcg_minimize(
        lambda p: -quadform(p, R), lambda p: -2.0 * (R @ p), phi0
    )
    gap = (trace.objective_values[-1] - f_grid) / abs(f_grid)
    assert gap < 0.02


def test_rcg_monotone_trace_and_gradient_convergence():
    rng = np.random.default_rng(8)
    M = 32
    R = random_hermitian(M, rng)
    phi0 = random_phi(M, rng)
    phi0_before = phi0.copy()
    phi, trace = rcg_minimize(lambda p: -quadform(p, R), lambda p: -2.0 * (R @ p), phi0)
    np.testing.assert_array_equal(phi0, phi0_before)  # the solver never mutates its inputs
    assert np.all(np.diff(trace.objective_values) <= 0)
    assert unit_modulus_error(phi) < 1e-12
    assert trace.converged_by is ConvergedBy.GRAD_NORM
    assert trace.final_grad_norm < 1e-6 * M
    assert len(trace.objective_values) == trace.iterations + 1


def test_rcg_global_phase_invariance_of_quadratic():
    rng = np.random.default_rng(9)
    M = 10
    R = random_hermitian(M, rng)
    phi = random_phi(M, rng)
    f = -quadform(phi, R)
    for alpha in rng.uniform(0, 2 * np.pi, size=8):
        f_rot = -quadform(np.exp(1j * alpha) * phi, R)
        assert abs(f_rot - f) <= 1e-10 * max(abs(f), 1.0)


def test_rcg_directional_derivative_matches_gradient():
    # central differences on the ambient objective, true gradient -2 R phi
    rng = np.random.default_rng(10)
    M = 12
    R = random_hermitian(M, rng)
    phi = random_phi(M, rng)
    grad = project_to_tangent(-2.0 * (R @ phi), phi)
    h = 1e-5
    for _ in range(10):
        t = random_tangent(phi, rng)
        t /= np.linalg.norm(t)
        fd = (-quadform(phi + h * t, R) + quadform(phi - h * t, R)) / (2 * h)
        exact = float(np.real(np.vdot(grad, t)))
        assert abs(fd - exact) < 1e-6 * max(abs(exact), 1e-12)


def test_rcg_rejects_bad_start():
    with pytest.raises(ValueError):
        rcg_minimize(lambda p: 0.0, lambda p: p, np.array([0.5, 1.0 + 0j]))
    # NaN compares False against any tolerance; it must not pass as unit modulus
    with pytest.raises(ValueError):
        rcg_minimize(*p1_problem(*dense_factor(np.eye(3))), [1, np.nan, 1j])


def test_rcg_nonfinite_objective_raises():
    rng = np.random.default_rng(11)
    phi0 = random_phi(4, rng)
    with pytest.raises(NumericalError):
        rcg_minimize(lambda p: np.nan, lambda p: -p, phi0)


def test_rcg_nonfinite_gradient_raises():
    rng = np.random.default_rng(12)
    phi0 = random_phi(4, rng)
    R = random_hermitian(4, rng)
    with pytest.raises(NumericalError):
        rcg_minimize(
            lambda p: -quadform(p, R),
            lambda p: np.full(4, np.nan, dtype=complex),
            phi0,
        )


def test_rcg_nonfinite_hessian_product_raises():
    # the gradient is finite at every unit-modulus point, so each accepted
    # point passes its check, but nan off the manifold, at the tangent
    # vectors where the Hessian products call it. The first inner step ends
    # on its curvature test and the non-finite predicted decrease raises
    rng = np.random.default_rng(15)
    M = 16
    R = random_hermitian(M, rng)
    calls = []

    def grad(p):
        calls.append(p)
        if unit_modulus_error(p) > 1e-9:
            return np.full(M, np.nan, dtype=complex)
        return -2.0 * (R @ p)

    with pytest.raises(NumericalError):
        rcg_minimize(lambda p: -quadform(p, R), grad, random_phi(M, rng))
    assert 1 < len(calls) < M


def test_rcg_constant_objective_stops_on_trust_region():
    # constant objective with a nonzero tangent pseudo-gradient: every step
    # falls short of its predicted decrease, so each is rejected and the
    # radius shrinks until no double-precision step is left
    rng = np.random.default_rng(13)
    phi0 = random_phi(4, rng)
    phi, trace = rcg_minimize(lambda p: 0.0, lambda p: 1j * p, phi0)
    assert trace.converged_by is ConvergedBy.TRUST_REGION
    assert 0 < trace.iterations < 500
    np.testing.assert_array_equal(trace.objective_values, 0.0)
    assert len(trace.objective_values) == trace.iterations + 1
    np.testing.assert_array_equal(phi, phi0)


def test_rcg_wrong_gradient_sign_reports_trust_region():
    # f = Re(sum phi) has ambient gradient 1; passing -1 makes every model
    # step turn each entry toward +1, so f rises and every step is rejected
    rng = np.random.default_rng(14)
    phi0 = random_phi(6, rng)
    phi, trace = rcg_minimize(
        lambda p: float(np.sum(p).real), lambda p: -np.ones_like(p), phi0
    )
    assert trace.converged_by is ConvergedBy.TRUST_REGION
    assert trace.final_grad_norm > 0.0
    np.testing.assert_array_equal(trace.objective_values, trace.objective_values[0])
    np.testing.assert_array_equal(phi, phi0)
