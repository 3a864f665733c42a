"""Complex circle manifold primitives and a Riemannian conjugate-gradient minimizer.

Points are length-M complex vectors with unit-modulus entries, stored as plain
numpy arrays. Tangent vectors at phi satisfy Re(t_m * conj(phi_m)) = 0 per
entry. The metric is the real part of the Euclidean Hermitian inner product.
The solver stops on a small Riemannian gradient norm, at its iteration cap,
or when its line search fails twice in a row.

All functions are pure and never mutate their inputs; the solver is
single-threaded per call and safe to run concurrently from many threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, NumericalError, RetractionSingularError

# PR+ safeguard: restart with steepest descent when the conjugate direction
# stops being a sufficient descent direction (same guard scipy's CG uses).
_DESCENT_SIGMA = 0.01
# Armijo line search: first trial step, backtracking factor, sufficient-decrease
# slope and the trial budget per search.
_ARMIJO_INITIAL_STEP = 1.0
_ARMIJO_CONTRACTION = 0.5
_ARMIJO_SLOPE = 1e-4
_MAX_LINE_SEARCH_STEPS = 50


def unit_modulus_error(phi: np.ndarray) -> float:
    """Largest deviation of |phi_m| from 1."""
    return float(np.max(np.abs(np.abs(phi) - 1.0)))


def tangency_error(t: np.ndarray, phi: np.ndarray) -> float:
    """Largest |Re(t_m * conj(phi_m))|; zero for a true tangent vector."""
    return float(np.max(np.abs(np.real(t * np.conj(phi)))))


def project_to_tangent(g: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthogonally project an ambient vector onto the tangent space at phi.

    t_m = g_m - Re(g_m * conj(phi_m)) * phi_m
    """
    g = np.asarray(g, dtype=np.complex128)
    phi = np.asarray(phi, dtype=np.complex128)
    if g.shape != phi.shape or g.ndim != 1:
        raise DimensionError(f"shape mismatch: g {g.shape} vs phi {phi.shape}")
    return g - np.real(g * np.conj(phi)) * phi


def retract_point(x: np.ndarray) -> np.ndarray:
    """Map an ambient vector back onto the manifold by entry-wise normalization."""
    x = np.asarray(x, dtype=np.complex128)
    mag = np.abs(x)
    if np.any(mag == 0.0):
        raise RetractionSingularError("retraction undefined: zero entry in input")
    return x / mag


def _inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.real(np.vdot(a, b)))


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
    LINE_SEARCH = "LineSearch"


@dataclass
class RcgTrace:
    """Per-solve record: objective after each accepted step, first entry at phi0."""

    objective_values: np.ndarray
    iterations: int
    converged_by: ConvergedBy
    final_grad_norm: float


def _armijo_search(
    objective: Callable[[np.ndarray], float],
    phi: np.ndarray,
    f_curr: float,
    g: np.ndarray,
    d: np.ndarray,
    gnorm_sq: float,
) -> tuple[np.ndarray, float, float] | None:
    """Backtracking line search along d from phi.

    Accepts the first trial alpha with
        f(R(phi + alpha d)) <= f(phi) - _ARMIJO_SLOPE * alpha * ||grad||^2.
    The first trial is _ARMIJO_INITIAL_STEP; if it fails, one retrial at the
    minimizer of the parabola fitted through f(phi), the directional slope,
    and the failed trial; afterwards plain geometric backtracking. Returns
    (new point, new value, alpha) or None if every trial fails.
    """

    def evaluate(alpha: float) -> tuple[np.ndarray, float] | None:
        try:
            cand = retract_point(phi + alpha * d)
        except RetractionSingularError:
            return None  # degenerate step; caller shrinks alpha
        fc = float(objective(cand))
        if not np.isfinite(fc):
            raise NumericalError("objective returned a non-finite value")
        return cand, fc

    threshold = _ARMIJO_SLOPE * gnorm_sq
    alpha = _ARMIJO_INITIAL_STEP
    trials = 0

    res = evaluate(alpha)
    trials += 1
    if res is not None:
        cand, fc = res
        if fc <= f_curr - alpha * threshold:
            return cand, fc, alpha
        slope0 = _inner(g, d)
        if slope0 < 0.0:
            denom = fc - f_curr - slope0 * alpha
            if denom > 0.0:
                a_fit = -slope0 * alpha * alpha / (2.0 * denom)
                if 0.0 < a_fit < alpha:
                    alpha = a_fit
                    res = evaluate(alpha)
                    trials += 1
                    if res is not None:
                        cand, fc = res
                        if fc <= f_curr - alpha * threshold:
                            return cand, fc, alpha

    while trials < _MAX_LINE_SEARCH_STEPS:
        alpha *= _ARMIJO_CONTRACTION
        res = evaluate(alpha)
        trials += 1
        if res is None:
            continue
        cand, fc = res
        if fc <= f_curr - alpha * threshold:
            return cand, fc, alpha
    return None


def rcg_minimize(
    objective: Callable[[np.ndarray], float],
    euclid_grad: Callable[[np.ndarray], np.ndarray],
    phi0: Sequence[complex] | np.ndarray,
    cfg: RcgConfig | None = None,
) -> tuple[np.ndarray, RcgTrace]:
    """Minimize a smooth objective over the complex circle manifold.

    Conjugate-gradient iteration with Polak-Ribiere+ direction updates,
    vector transport of the previous direction by tangent projection at the
    new point, Armijo backtracking and entry-wise normalization as the
    retraction. The stop reasons, reported in RcgTrace.converged_by:

      GRAD_NORM   the Riemannian gradient norm fell below grad_tol
      MAX_ITERS   max_iters steps were taken
      LINE_SEARCH a line search failed, and so did the one steepest-descent
                  restart it triggers
    """
    if cfg is None:
        cfg = RcgConfig()
    phi = np.asarray(phi0, dtype=np.complex128).copy()
    if phi.ndim != 1 or phi.size == 0:
        raise DimensionError("phi0 must be a nonempty 1-D complex vector")
    if unit_modulus_error(phi) > 1e-9:
        raise ValueError("phi0 must have unit-modulus entries")
    M = phi.size
    grad_tol = cfg.grad_tol if cfg.grad_tol is not None else 1e-6 * M

    def rgrad(point: np.ndarray) -> np.ndarray:
        g = project_to_tangent(np.asarray(euclid_grad(point), dtype=np.complex128), point)
        if not np.all(np.isfinite(g)):
            raise NumericalError("gradient returned non-finite values")
        return g

    f = float(objective(phi))
    if not np.isfinite(f):
        raise NumericalError("objective returned a non-finite value")
    g = rgrad(phi)
    d = -g
    values = [f]
    converged = ConvergedBy.MAX_ITERS
    iterations = 0

    for t in range(cfg.max_iters):
        gnorm_sq = _inner(g, g)
        if np.sqrt(gnorm_sq) < grad_tol:
            converged = ConvergedBy.GRAD_NORM
            break

        accepted = _armijo_search(objective, phi, f, g, d, gnorm_sq)
        if accepted is None:
            d = -g  # steepest-descent restart, once
            accepted = _armijo_search(objective, phi, f, g, d, gnorm_sq)
            if accepted is None:
                converged = ConvergedBy.LINE_SEARCH
                break
        phi_new, f_new, _alpha = accepted

        g_new = rgrad(phi_new)
        beta = max(0.0, _inner(g_new, g_new - project_to_tangent(g, phi_new)) / gnorm_sq)
        d = -g_new + beta * project_to_tangent(d, phi_new)
        if _inner(d, g_new) > -_DESCENT_SIGMA * _inner(g_new, g_new):
            d = -g_new

        phi, f, g = phi_new, f_new, g_new
        values.append(f)
        iterations = t + 1

    trace = RcgTrace(
        objective_values=np.asarray(values),
        iterations=iterations,
        converged_by=converged,
        final_grad_norm=float(np.sqrt(_inner(g, g))),
    )
    return phi, trace
