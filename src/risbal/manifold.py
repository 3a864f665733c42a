"""Complex circle manifold primitives and a Riemannian trust-region minimizer.

Points are length-M complex vectors with unit-modulus entries, stored as plain
numpy arrays. Tangent vectors at phi satisfy Re(t_m * conj(phi_m)) = 0 per
entry. The metric is the real part of the Euclidean Hermitian inner product.
Inside the solver a tangent vector is t = i phi * x with x real of length M;
as |phi_m| = 1 this map is an isometry, Re<t1, t2> = x1 . x2, so the inner
solve runs on real vectors and a step maps back to the manifold once. Near a
minimizer the solve enters a Newton phase, where it preconditions the inner
solve with the Hessian's diagonal term, floored, plus the caller's
positive-semidefinite Hessian term if one is given. The solver stops on a
small Riemannian gradient norm, at its iteration cap, or when its trust
radius has shrunk below what double precision resolves.

All functions are pure and never mutate their inputs; the solver is
single-threaded per call and safe to run concurrently from many threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericalError

# Trust-region settings, Manopt's defaults: accept a step whose decrease is
# over _RHO_ACCEPT of the model's; shrink the radius 4x below _RHO_SHRINK and
# double it above _RHO_GROW on a boundary step. Truncated CG stops at
# ||r|| <= ||r0|| * min(||r0||, _TCG_KAPPA), superlinear near a minimizer.
_RHO_ACCEPT = 0.1
_RHO_SHRINK = 0.25
_RHO_GROW = 0.75
_TCG_KAPPA = 0.1

# Stop rules: at most _MAX_ITERS outer iterations, and a Riemannian gradient
# norm below _GRAD_TOL * M, scale-aware in the surface size M.
_MAX_ITERS = 500
_GRAD_TOL = 1e-6

# The Newton phase's preconditioner floors the Hessian's diagonal term at
# _CURVATURE_FLOOR times the mean curvature magnitude, so P stays positive
# definite.
_CURVATURE_FLOOR = 1e-2


def unit_modulus_error(phi: np.ndarray) -> float:
    """Largest deviation of |phi_m| from 1."""
    return float(np.max(np.abs(np.abs(phi) - 1.0)))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


class ConvergedBy(Enum):
    GRAD_NORM = "GradNorm"
    MAX_ITERS = "MaxIters"
    TRUST_REGION = "TrustRegion"


@dataclass
class RcgTrace:
    """Per-solve record: objective after each outer iteration, first entry at
    phi0; a rejected step repeats the previous value."""

    objective_values: np.ndarray
    iterations: int
    converged_by: ConvergedBy
    final_grad_norm: float


def _truncated_cg(hess: Callable[[np.ndarray], np.ndarray], g: np.ndarray, radius: float,
                  max_inner: int, pinv: Callable[[np.ndarray], np.ndarray] | None = None,
                  ) -> tuple[np.ndarray, np.ndarray, bool]:
    """Steihaug-Toint truncated CG on the model <g, eta> + <eta, Hess[eta]>/2.

    Starts at eta = 0 and runs CG until the residual is small or max_inner
    iterations have passed. On curvature that is not positive (nan included),
    or when the next iterate would leave the ball ||eta||_P <= radius, it
    steps along the current direction to the boundary instead. Each iterate
    lowers the model. With pinv, the inverse of a symmetric positive-definite
    P, the solve is preconditioned CG and the ball is in the norm
    ||eta||_P = sqrt(<eta, P eta>); with pinv None, P = I. <eta, eta>_P,
    <eta, delta>_P and <delta, delta>_P follow Conn, Gould & Toint's
    recurrences (2000, sec. 7.5), so P itself is never applied, and
    Hess[eta] is the residual r = g + Hess[eta] less g. The stop test is on
    the Euclidean ||r|| in either case. Returns (eta, Hess[eta], whether eta
    lies on the boundary).
    """
    eta = np.zeros_like(g)
    r = g.copy()
    r_r = _inner(r, r)
    if r_r == 0.0:
        return eta, eta, False
    target = math.sqrt(r_r) * min(math.sqrt(r_r), _TCG_KAPPA)
    # z = P^-1 r; without a preconditioner z is r itself, updated with it
    z = r if pinv is None else pinv(r)
    r_z = r_r if pinv is None else _inner(r, z)
    delta = -z
    e_e, e_d, d_d = 0.0, 0.0, r_z
    for _ in range(max_inner):
        h_delta = hess(delta)
        d_hd = _inner(delta, h_delta)
        # tau solves ||eta + tau delta||_P = radius; comparing alpha = r_z/d_hd
        # with it by product avoids dividing by a vanishing curvature
        room = max(0.0, radius * radius - e_e)
        tau = (math.sqrt(e_d * e_d + d_d * room) - e_d) / d_d
        if not d_hd > 0.0 or r_z >= tau * d_hd:
            return eta + tau * delta, (r - g) + tau * h_delta, True
        alpha = r_z / d_hd
        eta += alpha * delta
        r += alpha * h_delta
        r_r = _inner(r, r)
        if math.sqrt(r_r) <= target:
            break
        if pinv is None:
            r_z_next = r_r
        else:
            z = pinv(r)
            r_z_next = _inner(r, z)
        beta = r_z_next / r_z
        e_e = e_e + alpha * (2.0 * e_d + alpha * d_d)
        e_d = beta * (e_d + alpha * d_d)
        d_d = r_z_next + beta * beta * d_d
        delta *= beta
        delta -= z
        r_z = r_z_next
    return eta, r - g, False


def _newton_preconditioner(phi: np.ndarray, curvature: np.ndarray,
                           psd_term: tuple[np.ndarray, float] | None,
                           ) -> Callable[[np.ndarray], np.ndarray]:
    """P^-1 of the Newton phase at phi, for curvature = Re(conj(phi) o
    euclid_grad(phi)) there:
        P = diag(max(-curvature, 1e-2 mean|curvature|)) + s Re(W W^H),
    W = diag(conj phi) V for psd_term = (V, s), and the diagonal alone for
    psd_term None. The Hessian in real tangent coordinates is
    Im(conj(phi) o euclid_grad(i phi o x)) - curvature o x, to whose first
    term a Euclidean Hessian term s V V^H contributes s Re(W W^H); P keeps
    the diagonal term, floored, and that positive-semidefinite part. As
    Re(W W^H) = U U^T for the real U = [Re W, Im W] of 2 k columns, P^-1
    applies by Woodbury through one 2 k x 2 k real system built here.
    """
    inv_diag = 1.0 / np.maximum(-curvature, _CURVATURE_FLOOR * np.mean(np.abs(curvature)))
    if psd_term is None:
        return lambda r: inv_diag * r
    V, s = psd_term
    W = phi.conj()[:, None] * V
    U = np.hstack([W.real, W.imag])
    DU = inv_diag[:, None] * U
    # P^-1 = D^-1 - D^-1 U (I + s U^T D^-1 U)^-1 s U^T D^-1
    K = s * DU @ np.linalg.inv(np.eye(U.shape[1]) + s * (U.T @ DU))
    DUt = np.ascontiguousarray(DU.T)
    return lambda r: inv_diag * r - K @ (DUt @ r)


def rcg_minimize(
    objective: Callable[[np.ndarray], float],
    euclid_grad: Callable[[np.ndarray], np.ndarray],
    phi0: Sequence[complex] | np.ndarray,
    psd_term: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, RcgTrace]:
    """Minimize an objective with a linear gradient over the circle manifold.

    Riemannian trust-region method (Absil, Baker & Gallivan 2007) with a
    truncated-CG inner solve in real tangent coordinates (see the module
    docstring) and entry-wise normalization as the retraction. The trust
    radius starts at pi * sqrt(M) / 8 and is capped at pi * sqrt(M). With
    p = conj(phi) * euclid_grad(phi), the gradient's coordinates are Im(p), and
        Hess f(phi)[x] = Im(conj(phi) * euclid_grad(i phi * x)) - Re(p) * x,
    one gradient call per product, is exact as euclid_grad must be linear
    (as -2 R phi is).

    The inner solve is plain truncated CG in the ball ||eta|| <= radius until
    the Newton phase. That phase starts when a step is accepted that ended
    inside the trust region and the new gradient norm is below _TCG_KAPPA
    (0.1), where the inner solve's stop rule is already superlinear, and
    ends at the next step that reaches the trust boundary or is rejected.
    On entering it the solver builds P = diag(max(-Re p, 1e-2 mean|Re p|)),
    plus s Re(W W^H) with W = diag(conj phi) V when psd_term = (V, s) gives
    a positive-semidefinite part s V V^H (V with M rows, s > 0) of the
    Euclidean Hessian; the phase's inner solves are preconditioned CG with
    the trust region in the norm sqrt(<eta, P eta>). DimensionError is raised
    for a phi0 that is not a nonempty vector or a V without M rows, and
    ValueError for a phi0 entry off the unit circle or an s that is not
    finite and positive. NumericalError is raised for a non-finite objective
    at phi0 or a candidate, a non-finite gradient at phi0 or an accepted
    point, and a non-finite predicted decrease; a Hessian product that is
    not finite ends the inner solve through its curvature test. The stop
    reasons, reported in RcgTrace.converged_by:

      GRAD_NORM    the Riemannian gradient norm fell below 1e-6 * M
      MAX_ITERS    500 outer iterations were taken
      TRUST_REGION the trust radius fell below eps * pi * sqrt(M) after
                   rejected steps, so no double-precision step lowers the
                   objective
    """
    phi = np.asarray(phi0, dtype=np.complex128).copy()
    if phi.ndim != 1 or phi.size == 0:
        raise DimensionError("phi0 must be a nonempty 1-D complex vector")
    if not unit_modulus_error(phi) <= 1e-9:  # also rejects NaN entries
        raise ValueError("phi0 must have unit-modulus entries")
    M = phi.size
    if psd_term is not None:
        V, s = psd_term
        V = np.asarray(V)
        if V.ndim != 2 or V.shape[0] != M:
            raise DimensionError(f"psd_term's V must have {M} rows, got shape {V.shape}")
        if isinstance(s, bool) or not isinstance(s, numbers.Real) or not 0.0 < s < math.inf:
            raise ValueError(f"psd_term's s must be finite and positive, got {s!r}")
        psd_term = V, s
    grad_tol = _GRAD_TOL * M
    max_radius = np.pi * np.sqrt(M)
    radius = max_radius / 8.0

    def value(point: np.ndarray) -> float:
        fp = float(objective(point))
        if not math.isfinite(fp):
            raise NumericalError("objective returned a non-finite value")
        return fp

    def egrad(point: np.ndarray) -> np.ndarray:
        eg = np.asarray(euclid_grad(point), dtype=np.complex128)
        if not np.all(np.isfinite(eg)):
            raise NumericalError("gradient returned non-finite values")
        return eg

    def frame(point: np.ndarray, eg: np.ndarray) -> tuple[np.ndarray, ...]:
        # conj(phi), i phi, gradient coordinates Im(p) and curvature Re(p)
        phi_c = point.conj()
        p = eg * phi_c
        return phi_c, 1j * point, p.imag.copy(), p.real.copy()

    def hess(x: np.ndarray) -> np.ndarray:
        return (euclid_grad(iphi * x) * phi_c).imag - curvature * x

    f = value(phi)
    eg = egrad(phi)
    phi_c, iphi, g, curvature = frame(phi, eg)
    g_norm = math.sqrt(_inner(g, g))
    pinv = None
    values = [f]
    converged = ConvergedBy.MAX_ITERS

    for _ in range(_MAX_ITERS):
        if g_norm < grad_tol:
            converged = ConvergedBy.GRAD_NORM
            break
        if radius < np.finfo(float).eps * max_radius:
            converged = ConvergedBy.TRUST_REGION
            break

        # a Hessian product that overflows is reported by the check below, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            eta, h_eta, at_boundary = _truncated_cg(hess, g, radius, M, pinv)
            predicted = -(_inner(g, eta) + 0.5 * _inner(eta, h_eta))
        if not math.isfinite(predicted):
            raise NumericalError("Hessian product returned non-finite values")
        cand = phi + iphi * eta
        cand /= np.abs(cand)  # each modulus is sqrt(1 + x_m^2) >= 1
        f_cand = value(cand)
        actual = f - f_cand
        # the ratio rho = actual / predicted, tested by products
        if not (predicted > 0.0 and actual >= _RHO_SHRINK * predicted):
            radius /= 4.0
        elif at_boundary and actual > _RHO_GROW * predicted:
            radius = min(2.0 * radius, max_radius)
        accepted = predicted > 0.0 and actual > _RHO_ACCEPT * predicted
        if at_boundary or not accepted:
            pinv = None  # the Newton phase ends
        if accepted:
            phi, f, eg = cand, f_cand, egrad(cand)
            phi_c, iphi, g, curvature = frame(phi, eg)
            g_norm = math.sqrt(_inner(g, g))
            if pinv is None and not at_boundary and g_norm < _TCG_KAPPA:
                # the Newton phase starts
                pinv = _newton_preconditioner(phi, curvature, psd_term)
        values.append(f)

    return phi, RcgTrace(objective_values=np.asarray(values), iterations=len(values) - 1,
                         converged_by=converged, final_grad_norm=g_norm)
