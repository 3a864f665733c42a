"""Complex circle manifold primitives and a Riemannian trust-region minimizer.

Points are length-M complex vectors with unit-modulus entries, stored as plain
numpy arrays. Tangent vectors at phi satisfy Re(t_m * conj(phi_m)) = 0 per
entry. The metric is the real part of the Euclidean Hermitian inner product.
Inside the solver a tangent vector is t = i phi * x with x real of length M;
as |phi_m| = 1 this map is an isometry, Re<t1, t2> = x1 . x2, so the inner
solve runs on real vectors and a step maps back to the manifold once. The
solver stops on a small Riemannian gradient norm, at its iteration cap, or
when its trust radius has shrunk below what double precision resolves.

All functions are pure and never mutate their inputs; the solver is
single-threaded per call and safe to run concurrently from many threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericalError, RetractionSingularError

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


def retract_point(x: np.ndarray) -> np.ndarray:
    """Map an ambient vector back onto the manifold by entry-wise normalization."""
    x = np.asarray(x, dtype=np.complex128)
    mag = np.abs(x)
    if np.any(mag == 0.0):
        raise RetractionSingularError("retraction undefined: zero entry in input")
    return x / mag


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


@dataclass(frozen=True)
class RcgConfig:
    """Solver settings.

    grad_tol left at None resolves to 1e-6 * M at solve time (scale-aware
    default).
    """

    max_iters: int = 500
    grad_tol: float | None = None

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")
        if self.grad_tol is not None and self.grad_tol < 0:
            raise ValueError("grad_tol must be nonnegative")


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
                  max_inner: int) -> tuple[np.ndarray, np.ndarray, bool]:
    """Steihaug-Toint truncated CG on the model <g, eta> + <eta, Hess[eta]>/2.

    Starts at eta = 0 and runs CG until the residual is small or max_inner
    iterations have passed. On curvature that is not positive (nan included),
    or when the next iterate would leave the ball ||eta|| <= radius, it steps
    along the current direction to the boundary instead. Each iterate lowers
    the model. <eta, eta>, <eta, delta> and <delta, delta> follow Conn, Gould
    & Toint's recurrences (2000, sec. 7.5), two inner products a step, and
    Hess[eta] is the residual r = g + Hess[eta] less g. Returns (eta,
    Hess[eta], whether eta lies on the boundary).
    """
    eta = np.zeros_like(g)
    r = g
    r_r = _inner(r, r)
    if r_r == 0.0:
        return eta, eta, False
    target = math.sqrt(r_r) * min(math.sqrt(r_r), _TCG_KAPPA)
    delta = -r
    e_e, e_d, d_d = 0.0, 0.0, r_r
    for _ in range(max_inner):
        h_delta = hess(delta)
        d_hd = _inner(delta, h_delta)
        # tau solves ||eta + tau delta|| = radius; comparing alpha = r_r/d_hd
        # with it by product avoids dividing by a vanishing curvature
        room = max(0.0, radius * radius - e_e)
        tau = (math.sqrt(e_d * e_d + d_d * room) - e_d) / d_d
        if not d_hd > 0.0 or r_r >= tau * d_hd:
            return eta + tau * delta, (r - g) + tau * h_delta, True
        alpha = r_r / d_hd
        eta = eta + alpha * delta
        r = r + alpha * h_delta
        r_r_next = _inner(r, r)
        if math.sqrt(r_r_next) <= target:
            break
        beta = r_r_next / r_r
        e_e = e_e + alpha * (2.0 * e_d + alpha * d_d)
        e_d = beta * (e_d + alpha * d_d)
        d_d = r_r_next + beta * beta * d_d
        delta = beta * delta - r
        r_r = r_r_next
    return eta, r - g, False


def rcg_minimize(
    objective: Callable[[np.ndarray], float],
    euclid_grad: Callable[[np.ndarray], np.ndarray],
    phi0: Sequence[complex] | np.ndarray,
    cfg: RcgConfig | None = None,
) -> tuple[np.ndarray, RcgTrace]:
    """Minimize a smooth objective over the complex circle manifold.

    Riemannian trust-region method (Absil, Baker & Gallivan 2007) with a
    truncated-CG inner solve in real tangent coordinates (see the module
    docstring) and entry-wise normalization as the retraction. The trust
    radius starts at pi * sqrt(M) / 8 and is capped at pi * sqrt(M). With
    p = conj(phi) * euclid_grad(phi), the gradient's coordinates are Im(p), and
        Hess f(phi)[x] = Im(conj(phi) * ehess[x]) - Re(p) * x,
    where ehess[x] is the difference quotient of euclid_grad over the unit
    step i phi * x / ||x||: exact for affine gradients such as -2 R phi, at one
    euclid_grad call. NumericalError is raised for a non-finite objective at
    phi0 or a candidate, a non-finite gradient at phi0 or an accepted point,
    and a non-finite predicted decrease; a Hessian product that is not finite
    ends the inner solve through its curvature test. The stop reasons,
    reported in RcgTrace.converged_by:

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
        norm = math.sqrt(_inner(x, x))
        probe = euclid_grad(phi + iphi * (x / norm))
        return ((probe - eg) * phi_c).imag * norm - curvature * x

    f = value(phi)
    eg = egrad(phi)
    phi_c, iphi, g, curvature = frame(phi, eg)
    values = [f]
    converged = ConvergedBy.MAX_ITERS

    for _ in range(cfg.max_iters):
        if math.sqrt(_inner(g, g)) < grad_tol:
            converged = ConvergedBy.GRAD_NORM
            break
        if radius < np.finfo(float).eps * max_radius:
            converged = ConvergedBy.TRUST_REGION
            break

        # a Hessian product that overflows is reported by the check below, without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            eta, h_eta, at_boundary = _truncated_cg(hess, g, radius, M)
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
        if predicted > 0.0 and actual > _RHO_ACCEPT * predicted:
            phi, f, eg = cand, f_cand, egrad(cand)
            phi_c, iphi, g, curvature = frame(phi, eg)
        values.append(f)

    return phi, RcgTrace(objective_values=np.asarray(values), iterations=len(values) - 1,
                         converged_by=converged, final_grad_norm=math.sqrt(_inner(g, g)))
