"""Complex circle manifold primitives and a Riemannian trust-region minimizer.

Points are length-M complex vectors with unit-modulus entries, stored as plain
numpy arrays. Tangent vectors at phi satisfy Re(t_m * conj(phi_m)) = 0 per
entry. The metric is the real part of the Euclidean Hermitian inner product.
Inside the solver a tangent vector is t = i phi * x with x real of length M;
as |phi_m| = 1 this map is an isometry, Re<t1, t2> = x1 . x2, so the inner
solve runs on real vectors and a step maps back to the manifold once. Near a
minimizer the solve enters a Newton phase, where a caller's preconditioner,
if given, preconditions the inner solve. The solver stops on a small
Riemannian gradient norm, at its iteration cap, or when its trust radius has
shrunk below what double precision resolves.

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


def unit_modulus_error(phi: np.ndarray) -> float:
    """Largest deviation of |phi_m| from 1."""
    return float(np.max(np.abs(np.abs(phi) - 1.0)))


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


@dataclass(frozen=True)
class RcgConfig:
    """Solver settings, checked when built: max_iters a positive integer,
    grad_tol None or a finite nonnegative real (a bool is neither), or
    ValueError. grad_tol left at None resolves to 1e-6 * M at solve time
    (scale-aware default).
    """

    max_iters: int = 500
    grad_tol: float | None = None

    def __post_init__(self) -> None:
        iters, tol = self.max_iters, self.grad_tol
        if isinstance(iters, bool) or not isinstance(iters, numbers.Integral) or iters < 1:
            raise ValueError(f"max_iters must be a positive integer, got {iters!r}")
        if tol is not None and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)
                                or not 0.0 <= tol < math.inf):
            raise ValueError(f"grad_tol must be None or finite and nonnegative, got {tol!r}")


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


def rcg_minimize(
    objective: Callable[[np.ndarray], float],
    euclid_grad: Callable[[np.ndarray], np.ndarray],
    phi0: Sequence[complex] | np.ndarray,
    cfg: RcgConfig | None = None,
    preconditioner: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]
    | None = None,
) -> tuple[np.ndarray, RcgTrace]:
    """Minimize an objective with an affine gradient over the circle manifold.

    Riemannian trust-region method (Absil, Baker & Gallivan 2007) with a
    truncated-CG inner solve in real tangent coordinates (see the module
    docstring) and entry-wise normalization as the retraction. The trust
    radius starts at pi * sqrt(M) / 8 and is capped at pi * sqrt(M). With
    p = conj(phi) * euclid_grad(phi), the gradient's coordinates are Im(p), and
        Hess f(phi)[x] = Im(conj(phi) * ehess[x]) - Re(p) * x,
    where ehess[x] = euclid_grad(i phi * x) - euclid_grad(0), one call per
    product plus one at 0 per solve, is exact as euclid_grad must be affine
    (as -2 R phi - 2 c is).

    The inner solve is plain truncated CG in the ball ||eta|| <= radius until
    the Newton phase. That phase starts when a step is accepted that ended
    inside the trust region and the new gradient norm is below _TCG_KAPPA
    (0.1), where the inner solve's stop rule is already superlinear, and
    ends at the next step that reaches the trust boundary or is rejected.
    If preconditioner is given, it is called once on entering the phase as
    preconditioner(phi, curvature), with curvature = Re(p) at that point, and
    returns pinv, a function that maps a real vector of tangent coordinates
    x to P^-1 x for a symmetric positive-definite P; the phase's inner solves
    are preconditioned CG with the trust region in the norm
    sqrt(<eta, P eta>). Without a preconditioner, or outside the phase, the
    solve does not depend on it. NumericalError is raised for a non-finite
    objective at phi0 or a candidate, a non-finite gradient at phi0 or an
    accepted point, and a non-finite predicted decrease; a Hessian product
    that is not finite ends the inner solve through its curvature test. The
    stop reasons, reported in RcgTrace.converged_by:

      GRAD_NORM    the Riemannian gradient norm fell below grad_tol
      MAX_ITERS    max_iters outer iterations were taken
      TRUST_REGION the trust radius fell below eps * pi * sqrt(M) after
                   rejected steps, so no double-precision step lowers the
                   objective
    """
    if cfg is None:
        cfg = RcgConfig()
    phi = np.asarray(phi0, dtype=np.complex128).copy()
    if phi.ndim != 1 or phi.size == 0:
        raise DimensionError("phi0 must be a nonempty 1-D complex vector")
    if not unit_modulus_error(phi) <= 1e-9:  # also rejects NaN entries
        raise ValueError("phi0 must have unit-modulus entries")
    M = phi.size
    grad_tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-6 * M
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
        return ((euclid_grad(iphi * x) - eg0) * phi_c).imag - curvature * x

    f = value(phi)
    eg0 = euclid_grad(np.zeros(M, dtype=np.complex128))
    eg = egrad(phi)
    phi_c, iphi, g, curvature = frame(phi, eg)
    g_norm = math.sqrt(_inner(g, g))
    pinv = None
    values = [f]
    converged = ConvergedBy.MAX_ITERS

    for _ in range(cfg.max_iters):
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
            if (preconditioner is not None and pinv is None and not at_boundary
                    and g_norm < _TCG_KAPPA):
                pinv = preconditioner(phi, curvature)  # the Newton phase starts
        values.append(f)

    return phi, RcgTrace(objective_values=np.asarray(values), iterations=len(values) - 1,
                         converged_by=converged, final_grad_norm=g_norm)
