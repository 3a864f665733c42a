import numpy as np
import pytest
from conftest import grid_min_objective, quadform, random_hermitian, random_phi, random_tangent

from risbal import ConvergedBy, RcgConfig, project_to_tangent, rcg_minimize, retract_point
from risbal.errors import DimensionError, NumericalError, RetractionSingularError
from risbal.manifold import _ARMIJO_SLOPE, _armijo_search, tangency_error, unit_modulus_error


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


# ---------------------------------------------------------------- retraction

def test_retract_identity_on_manifold():
    rng = np.random.default_rng(1)
    phi = random_phi(6, rng)
    np.testing.assert_allclose(retract_point(phi), phi, atol=1e-15)


def test_retract_normalizes():
    np.testing.assert_allclose(retract_point(np.array([2.0, 2j])), np.array([1.0, 1j]), atol=1e-15)


def test_retract_properties_random():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(50) * 10 ** rng.uniform(-3, 3, size=50) + 1j * rng.standard_normal(50)
    out = retract_point(x)
    assert unit_modulus_error(out) < 1e-12
    back = out * np.conj(x)
    # each product is |x_m|: a positive real
    assert np.all(np.abs(back.imag) < 1e-9 * np.abs(back.real))
    assert np.all(back.real > 0)


def test_retract_zero_entry_raises():
    with pytest.raises(RetractionSingularError):
        retract_point(np.array([1.0, 0.0, 1j]))


# -------------------------------------------------------------------- config

def test_rcg_config_rejects_bad_values():
    for kwargs in [
        dict(max_iters=0),
        dict(grad_tol=-1.0),
    ]:
        with pytest.raises(ValueError):
            RcgConfig(**kwargs)


# --------------------------------------------------------------- line search

def test_armijo_accepted_step_satisfies_sufficient_decrease():
    rng = np.random.default_rng(6)
    M = 8
    R = random_hermitian(M, rng)
    phi = random_phi(M, rng)

    def objective(p):
        return -quadform(p, R)

    g = project_to_tangent(-2.0 * (R @ phi), phi)
    d = -g
    gg = float(np.real(np.vdot(g, g)))
    f0 = objective(phi)
    res = _armijo_search(objective, phi, f0, g, d, gg)
    assert res is not None
    cand, fc, alpha = res
    assert fc <= f0 - _ARMIJO_SLOPE * alpha * gg
    assert unit_modulus_error(cand) < 1e-12


# -------------------------------------------------------------------- solver

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
    phi0 = retract_point(np.where(np.abs(v) == 0, 1.0, v))
    phi, trace = rcg_minimize(
        lambda p: -quadform(p, R), lambda p: -(R @ p), phi0
    )
    gap = (trace.objective_values[-1] - f_grid) / abs(f_grid)
    assert gap < 0.02


def test_rcg_monotone_trace_and_gradient_convergence():
    rng = np.random.default_rng(8)
    M = 32
    R = random_hermitian(M, rng)
    phi0 = random_phi(M, rng)
    phi, trace = rcg_minimize(lambda p: -quadform(p, R), lambda p: -(R @ p), phi0)
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


def test_rcg_line_search_exhaustion_stops_cleanly():
    # constant objective with a nonzero tangent pseudo-gradient: sufficient
    # decrease is impossible, so the search fails, restarts once, and stops
    rng = np.random.default_rng(13)
    phi0 = random_phi(4, rng)
    phi, trace = rcg_minimize(lambda p: 0.0, lambda p: 1j * p, phi0)
    assert trace.converged_by is ConvergedBy.LINE_SEARCH
    assert trace.iterations == 0
    np.testing.assert_array_equal(phi, phi0)


def test_rcg_wrong_gradient_sign_reports_line_search():
    # f = Re(sum phi) has ambient gradient 1; passing -1 makes every search
    # direction turn each entry toward +1, so f never decreases for steps
    # up to 1 and the Armijo test cannot pass
    rng = np.random.default_rng(14)
    phi0 = random_phi(6, rng)
    phi, trace = rcg_minimize(
        lambda p: float(np.sum(p).real), lambda p: -np.ones_like(p), phi0
    )
    assert trace.converged_by is ConvergedBy.LINE_SEARCH
    assert trace.iterations == 0
    assert trace.final_grad_norm > 0.0
    np.testing.assert_array_equal(phi, phi0)
