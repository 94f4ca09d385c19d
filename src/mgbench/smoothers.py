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

At or below DENSE_GS_LIMIT unknowns M is kept as a dense Fortran-order
array and each sweep is one BLAS dtrsv call (the backward sweep with
trans=1).  On these small levels, which the AMLI cycles visit most, even
the sparse solve's fixed cost of about 10 us per call dwarfs the
arithmetic: a 9-unknown sweep takes 2-3 us dense, a 225-unknown one
10-12 us.  dtrsv's cost grows with the n^2 dense entries, so above the
limit (see DENSE_GS_LIMIT for the measured crossover) the sweep is sparse.

The sparse sweep calls SuperLU's triangular solve (_superlu.gstrs) directly,
as L = M with an empty U: trans "N" solves with M, trans "T" with M^t, so
both sweeps use the one stored triangle.  spsolve_triangular ends in the
same call, with bit-identical results, but first re-prepares the triangle
on every call: it sets the diagonal M already has, builds an empty U,
casts the index arrays and checks for duplicates.  Preparing those
arguments once, at bind time, cuts a forward/backward sweep from 100/130
to 23/19 us at 961 unknowns and from 2080/2170 to 1120/1020 us at 65025
(2-core Xeon VM, Poisson matrices).
Factoring M with splu(permc_spec="NATURAL") solves about as fast, but its
factor step adds 55-75 ms to the setup at 261121 unknowns (the table-1
setup is about 0.5 s) and keeps SuperLU's workspace resident; spilu drops
entries of M.
"""
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtrsv
from scipy.sparse.linalg._dsolve._superlu import gstrs

from .linalg import power_method, spmv

# Largest level whose Gauss-Seidel triangle is stored dense.  Measured on a
# 2-core Xeon VM (OpenBLAS, one thread; principal submatrices of the k=6
# Poisson and jump matrices and UA-AMG levels; forward+backward us per call,
# dense vs the direct sparse solve): 225 unknowns 18-23 vs 22-25, 961: 320-360
# vs 70.  In between the two cost the same within the VM's run-to-run noise
# (25-45 us each at 289-400 unknowns).  The limit sits low in that band, and
# keeps the 319-unknown level of the 16129-unknown UA-AMG hierarchy dense.
DENSE_GS_LIMIT = 320

KINDS = ("gs", "jacobi", "richardson")

# dtrsv's optional arguments by position (incx, offx, lower, trans, diag,
# overwrite_x): f2py parses them in about half the time of keywords
_DTRSV_FORWARD = (1, 0, 1, 0, 1)        # M u = f, unit lower triangle
_DTRSV_BACKWARD = (1, 0, 1, 1, 1, 1)    # M^t u = f, in place


@dataclass(frozen=True)
class SmootherSpec:
    kind: str = "gs"
    weight: float = 1.0
    sweeps: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown smoother kind %r (expected gs|jacobi|richardson)"
                             % self.kind)
        if self.sweeps < 1:
            raise ValueError("sweeps must be >= 1, got %d" % self.sweeps)
        # Richardson scales by omega/rho(A), so omega < 2 is omega/rho < 2/rho
        if self.kind != "gs" and not 0.0 < self.weight < 2.0:
            raise ValueError("%s weight must lie in (0, 2), got %g"
                             % (self.kind, self.weight))


def _unit_lower_csc(A, inv_d):
    """M = (D+L) D^-1 as a canonical CSC matrix (CSC is what gstrs takes).

    Scales the columns of A's CSC form by inv_d, zeroes the entries above
    the diagonal, sets the diagonal to 1 and drops every zero at once.  The
    result has the entries, in the same order, of sp.tril(A, format="csc")
    scaled the same way, without tril's round trip through COO.
    """
    C = sp.csc_matrix(A, copy=True)   # sum_duplicates works in place
    C.sum_duplicates()
    counts = np.diff(C.indptr)
    cols = np.repeat(np.arange(C.shape[1], dtype=C.indices.dtype), counts)
    C.data *= np.repeat(inv_d, counts)
    C.data[C.indices < cols] = 0.0
    C.data[C.indices == cols] = 1.0
    C.eliminate_zeros()
    # eliminate_zeros can leave views of the full-size arrays; keep only M
    return C.copy()


class BoundSmoother:
    """SmootherSpec bound to a concrete matrix, with its scaled triangle or scaling."""

    def __init__(self, A, spec):
        self.A = A
        self.spec = spec
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError("zero diagonal entry at index %d"
                             % int(np.argmin(d != 0.0)))
        self._one_gs_sweep = spec.kind == "gs" and spec.sweeps == 1
        if spec.kind == "gs":
            self._inv_d = 1.0 / d
            M = _unit_lower_csc(A, self._inv_d)
            n = A.shape[0]
            self._dense = n <= DENSE_GS_LIMIT
            if self._dense:
                self._unit_lower = M.toarray(order="F")
            else:
                # gstrs arguments: L = M, then an empty U
                self._triangle = (n, M.nnz, M.data,
                                  M.indices.astype(np.intc, copy=False),
                                  M.indptr.astype(np.intc, copy=False),
                                  n, 0, np.empty(0), np.empty(0, np.intc),
                                  np.zeros(n + 1, np.intc))
        elif spec.kind == "jacobi":
            self._scale = spec.weight / d
        else:  # richardson
            rho, _, _ = power_method(A)
            self._scale = spec.weight / rho

    def _checked(self, f):
        """f as a float array, after the length check."""
        f = np.asarray(f, float)
        if f.shape[0] != self.A.shape[0]:
            raise ValueError("dimension mismatch: smoother has %d unknowns, "
                             "vector has length %d" % (self.A.shape[0], f.shape[0]))
        return f

    def _forward(self, f):
        """One forward Gauss-Seidel sweep, D^-1 M^-1 f."""
        if self._dense:
            return self._inv_d * dtrsv(self._unit_lower, f, *_DTRSV_FORWARD)
        # gstrs returns a new array and leaves b alone; its info flags only
        # illegal arguments
        return self._inv_d * gstrs("N", *self._triangle, f)[0]

    def _backward(self, f):
        """One backward Gauss-Seidel sweep, M^-t D^-1 f."""
        if self._dense:
            return dtrsv(self._unit_lower, self._inv_d * f, *_DTRSV_BACKWARD)
        return gstrs("T", *self._triangle, self._inv_d * f)[0]

    def _single(self, f, transpose):
        if self.spec.kind != "gs":
            return self._scale * f
        return self._backward(f) if transpose else self._forward(f)

    def _sweeps(self, f, transpose):
        u = self._single(f, transpose)
        for _ in range(self.spec.sweeps - 1):
            u = u + self._single(f - spmv(self.A, u), transpose)
        return u

    def apply(self, f):
        """R f.  The cycles call apply and apply_transpose once per level
        visit, mostly on levels of a few dozen unknowns, so one Gauss-Seidel
        sweep goes straight to its kernel."""
        f = self._checked(f)
        if self._one_gs_sweep:
            return self._forward(f)
        return self._sweeps(f, False)

    def apply_transpose(self, f):
        """R^t f (backward Gauss-Seidel; Jacobi/Richardson are self-adjoint)."""
        f = self._checked(f)
        if self._one_gs_sweep:
            return self._backward(f)
        return self._sweeps(f, True)

    def composite(self, v):
        """Symmetrized composite: (R + R^t - R A R^t) v."""
        x = self.apply_transpose(v)
        return x + self.apply(v - self.A @ x)


def bind(A, spec):
    return BoundSmoother(A, spec)


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
