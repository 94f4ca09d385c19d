"""Smoothers R, their adjoints R^t, and the symmetrized composite.

Kinds: 'gs' (forward Gauss-Seidel, (D+L)^-1; adjoint is backward GS),
'jacobi' (omega D^-1) and 'richardson' (omega/rho(A) I).  Multiple sweeps
compose the error propagator, i.e. s sweeps give I - (I - RA)^s A-solve
behaviour.  The symmetrized composite is defined through
I - Rt_comp A = (I - R A)(I - R^t A).

Gauss-Seidel scales its triangle once per level, when it is bound: it
stores D^-1 and the unit lower triangle M = (D+L) D^-1, so that each sweep
is one unit-triangular solve and a diagonal scaling.  The backward sweep
solves with M^t = D^-1 (D + L^t), which is D^-1 (D+U) only for symmetric A:
apply_transpose relies on A being symmetric, as every matrix the package
builds is.
"""
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .linalg import power_method

KINDS = ("gs", "jacobi", "richardson")
_ALIASES = {"forward_gauss_seidel": "gs", "gauss_seidel": "gs"}


@dataclass(frozen=True)
class SmootherSpec:
    kind: str = "gs"
    weight: float = 1.0
    sweeps: int = 1

    def __post_init__(self):
        kind = _ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in KINDS:
            raise ValueError("unknown smoother kind %r (expected gs|jacobi|richardson)"
                             % self.kind)
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1, got %d" % self.sweeps)


class BoundSmoother:
    """SmootherSpec bound to a concrete matrix, with its scaled triangle or scaling."""

    def __init__(self, A, spec):
        self.A = A
        self.spec = spec
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError("zero diagonal entry at index %d"
                             % int(np.argmin(d != 0.0)))
        if spec.kind == "gs":
            self._inv_d = 1.0 / d
            # (D+L) = M D with M unit lower; CSC is what the solver takes as is
            M = sp.tril(A, format="csc")
            M.data *= np.repeat(self._inv_d, np.diff(M.indptr))   # column scaling
            M.eliminate_zeros()
            M.setdiag(1.0)
            self._unit_lower = M
            self._unit_upper = M.T    # shares M's arrays; D+U = D M^t for symmetric A
        elif spec.kind == "jacobi":
            if not 0.0 < spec.weight < 2.0:
                raise ValueError("Jacobi weight must lie in (0, 2), got %g"
                                 % spec.weight)
            self._scale = spec.weight / d
        else:  # richardson
            if not 0.0 < spec.weight < 2.0:
                raise ValueError("Richardson weight must lie in (0, 2) so that "
                                 "omega < 2/rho(A), got %g" % spec.weight)
            rho, _, _ = power_method(A)
            self._scale = spec.weight / rho

    def _single(self, f, transpose):
        kind = self.spec.kind
        if kind == "gs":
            # overwrite_A lets the solver set the unit diagonal in place, which
            # M already has, instead of copying M on every call
            if transpose:
                return spsolve_triangular(self._unit_upper, self._inv_d * f,
                                          lower=False, unit_diagonal=True,
                                          overwrite_A=True, overwrite_b=True)
            return self._inv_d * spsolve_triangular(
                self._unit_lower, f, lower=True, unit_diagonal=True,
                overwrite_A=True)
        return self._scale * f

    def _sweep(self, f, transpose):
        u = self._single(f, transpose)
        for _ in range(self.spec.sweeps - 1):
            u = u + self._single(f - self.A @ u, transpose)
        return u

    def apply(self, f):
        """R f"""
        return self._sweep(np.asarray(f, float), transpose=False)

    def apply_transpose(self, f):
        """R^t f (backward Gauss-Seidel; Jacobi/Richardson are self-adjoint)."""
        return self._sweep(np.asarray(f, float), transpose=True)

    def composite(self, v):
        """Symmetrized composite: (R + R^t - R A R^t) v."""
        x = self.apply_transpose(v)
        return x + self.apply(v - self.A @ x)


def bind(A, spec):
    return BoundSmoother(A, spec)


def smooth(A, spec, f):
    """Apply the smoother once: returns R f."""
    return bind(A, spec).apply(f)


def smooth_transpose(A, spec, f):
    """Apply the adjoint smoother: returns R^t f."""
    return bind(A, spec).apply_transpose(f)


def composite_tilde(A, spec, v):
    """Apply the symmetrized composite smoother to v."""
    return bind(A, spec).composite(v)


def measure_smoothing_constant(A, spec, samples=100, seed=20240501):
    """Estimate c2 = rho(A) * min_v (Rt_comp v, v)/(v, v) by sampling.

    The sample set is `samples` random unit vectors plus extremal Rayleigh
    candidates from power iteration: the dominant eigenvector of A and an
    estimate of the minimizing eigenvector of the composite smoother
    (obtained by power iteration on a shifted composite).  The result is a
    measured estimate of the smoothing-property constant, not a certified
    infimum.
    """
    smoother = bind(A, spec)
    n = A.shape[0]
    rho_a, v_max, _ = power_method(A)

    rng = np.random.default_rng(seed)
    candidates = [v_max]

    # power iteration on (sigma I - Rt_comp) homes in on the minimizing mode
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    sigma = 0.0
    for _ in range(50):
        y = smoother.composite(x)
        sigma = max(sigma, float(np.dot(x, y)))
        x = y / np.linalg.norm(y)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    for _ in range(200):
        y = sigma * x - smoother.composite(x)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            break
        x = y / ny
    candidates.append(x)

    for _ in range(samples):
        v = rng.standard_normal(n)
        candidates.append(v / np.linalg.norm(v))

    worst = np.inf
    for v in candidates:
        q = float(np.dot(smoother.composite(v), v)) / float(np.dot(v, v))
        if q < 0.0:
            raise RuntimeError("smoother not A-convergent: (Rt_comp v, v) = %.3e < 0" % q)
        worst = min(worst, q)
    return rho_a * worst
