"""Sparse/dense linear algebra kernels shared by all solver components.

Sparse matrices are scipy CSR matrices with sorted, duplicate-free indices
(canonical format).  All operators here are SPD unless stated otherwise.
"""
import operator
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.linalg as sla
from scipy.sparse._sparsetools import csc_matvec, csr_matvec

DENSE_LIMIT = 4096


class NonSPDError(ValueError):
    """Raised when an operator that must be SPD turns out not to be."""


def as_csr(A):
    """Return A as a canonical CSR matrix (sorted indices, no duplicates).

    A canonical csr_matrix comes back itself, with its cached format flag; a
    non-canonical input is copied before it is sorted, leaving the caller's."""
    if type(A) is sp.csr_matrix and A.has_canonical_format:
        return A
    B = sp.csr_matrix(A)
    if not B.has_canonical_format:
        B = B.copy()
        B.sum_duplicates()
    return B


def symmetry_error(A):
    """max_ij |A_ij - A_ji|, zero for an exactly symmetric matrix."""
    D = (A - A.T).tocoo()
    return float(np.abs(D.data).max()) if D.nnz else 0.0


def require_symmetric(A, rtol=1e-14):
    """Raise NonSPDError unless every entry is finite and
    max|A_ij - A_ji| <= rtol * max|A_ij|.  An inf or NaN entry makes
    max|A_ij| inf or NaN (max propagates NaN); unchecked, it would pass the
    symmetry test, since a comparison with NaN is false."""
    scale = float(np.abs(A.data).max()) if A.nnz else 0.0
    if not np.isfinite(scale):
        raise NonSPDError("matrix has an inf or NaN entry: max |A_ij| is %g" % scale)
    err = symmetry_error(A)
    if err > rtol * max(scale, 1e-300):
        raise NonSPDError("matrix is not symmetric: max asymmetry %.3e "
                          "exceeds %.1e * max entry %.3e" % (err, rtol, scale))


_MATVEC = {sp.csr_matrix: csr_matvec, sp.csc_matrix: csc_matvec}
_F64 = np.dtype(np.float64)


def spmv(A, x):
    """A @ x, checked: run_pcg's products, the multi-sweep smoother's
    residual and the theory checks.  (The cycle visits bind their products
    once, with _bound_matvec.)

    For a float64 csr_matrix or csc_matrix (exactly those types) and a 1-D
    float64 ndarray x, it checks the length (a ValueError names both) and
    calls scipy's csr_matvec/csc_matvec directly.  `A @ x` ends in the same
    kernel, so the result is bit-identical, but its dispatch costs 6-8 us
    per call against 2.5-3 us direct at 9 and 49 unknowns (2-core x86 VM),
    where the AMLI cycles make most of their products.  Every other operand
    (a dense array, another dtype, a 2-D x, an object with only __matmul__)
    gets `A @ x`; the choice reads type(A) first, so it need not have a shape.
    """
    kernel = _MATVEC.get(type(A))
    if (kernel is None or A.data.dtype != _F64 or type(x) is not np.ndarray
            or x.ndim != 1 or x.dtype != _F64):
        return A @ x
    m, n = A.shape
    if x.shape[0] != n:
        raise ValueError("dimension mismatch: matrix has %d columns, "
                         "vector has length %d" % (n, x.shape[0]))
    y = np.zeros(m)
    kernel(m, n, A.indptr, A.indices, A.data, x, y)
    return y


def _bound_matvec(M):
    """x -> M @ x with M's kernel and arrays bound once, for the cycle
    engine's visit tables (amli._visits).

    A float64 csr_matrix or csc_matrix gets scipy's csr_matvec/csc_matvec
    with its index and data arrays, the kernel spmv calls, without spmv's
    per-call checks: the caller hands it only 1-D vectors of M's column
    count (the kernel does not check, and reads past a short vector).  Any
    other operand, such as a dense array or a tracing proxy, gets M @ x on
    every call.
    """
    kernel = _MATVEC.get(type(M))
    if kernel is None or M.data.dtype != _F64:
        return partial(operator.matmul, M)
    m, n = M.shape
    indptr, indices, data = M.indptr, M.indices, M.data

    def matvec(x):
        y = np.zeros(m)
        kernel(m, n, indptr, indices, data, x, y)
        return y
    return matvec


def _vector(v, n, name):
    """v as a float vector of length n; ValueError naming both lengths."""
    v = np.asarray(v, float)
    if v.shape != (n,):
        got = ("length %d" % v.shape[0] if v.ndim == 1
               else "shape %s, not a vector" % (v.shape,))
        raise ValueError("dimension mismatch: matrix is %d, %s has %s"
                         % (n, name, got))
    return v


def _count(name, value, least=1):
    """Raise ValueError, naming the setting and the value, unless value is
    an integer >= least: the one check of every count setting (steps,
    sweeps, iterations, levels, samples).  Python and numpy integers pass
    (operator.index); a float, even 2.0, a string or None does not."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (name, value)) from None
    if value < least:
        raise ValueError("%s must be >= %d, got %d" % (name, least, value))


def a_norm(A, x):
    """Energy norm sqrt((A x, x)); negative quadratic form raises NonSPDError."""
    return energy_norm(spmv(A, x), x)


def energy_norm(Ax, x):
    """a_norm given the product Ax already formed, for callers that need
    Ax too; the same check and the same result."""
    q = float(Ax.dot(x))
    if q < 0.0 and q < -1e-12 * float(np.dot(x, x)):
        raise NonSPDError("(Ax, x) = %.3e < 0: operator is not SPD" % q)
    return float(np.sqrt(max(q, 0.0)))


def rap(P, A):
    """Galerkin triple product P^t A P, symmetrized to kill round-off skew.

    A must be square symmetric, P a tall prolongator with no empty column
    (an empty column would mean an empty aggregate / lost coarse dof).
    """
    if A.shape[0] != A.shape[1]:
        raise ValueError("A must be square, got shape %r" % (A.shape,))
    require_symmetric(A)
    if P.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch: P has %d rows, A has %d"
                         % (P.shape[0], A.shape[0]))
    col_counts = P.getnnz(axis=0)
    if np.any(col_counts == 0):
        j = int(np.argmin(col_counts))
        raise ValueError("empty aggregate: column %d of P has no entries" % j)
    return _galerkin(P, A)


def _galerkin(P, A):
    """rap without its checks, for build_ua_amg's coarsenings after the
    first: the finest matrix is checked once, in that first rap, and every
    coarser one is an output of this function, which fl(a + b) = fl(b + a)
    makes exactly symmetric."""
    B = P.T @ A @ P
    # sparse matmul rounds the two triangles differently; average them back
    B = (B + B.T) * 0.5
    return as_csr(B)


class DenseFactorization:
    """Cached symmetric (Cholesky) factorization of a small SPD matrix.

    solve() performs one step of iterative refinement so the residual stays
    near machine precision even for badly conditioned coarse operators.  It
    calls LAPACK potrs directly, as cho_solve would, without cho_solve's
    per-call argument checks and routine lookup; the AMLI cycles solve on
    the coarsest level once per visit of the next-coarsest one.
    """

    def __init__(self, A):
        n = A.shape[0]
        if n > DENSE_LIMIT:
            raise ValueError("matrix dimension %d exceeds dense limit %d"
                             % (n, DENSE_LIMIT))
        self.dimension = n
        self._dense = A.toarray() if sp.issparse(A) else np.asarray(A, float)
        try:
            self._factor, self._lower = sla.cho_factor(self._dense, check_finite=False)
        except sla.LinAlgError as exc:
            raise NonSPDError("non-positive pivot in Cholesky: "
                              "matrix is not SPD (%s)" % exc) from exc
        self._potrs, = sla.get_lapack_funcs(("potrs",), (self._factor,))

    def solve(self, f):
        """A^-1 f, as a new array that shares no memory with f (potrs
        solves in a copy, and the refinement forms a new sum), so that every
        cycle returns an array of its own."""
        f = _vector(f, self.dimension, "right-hand side")
        # potrs copies its right-hand side (lower passed by position, which
        # f2py parses faster); info flags only illegal arguments.  The
        # refinement residual takes ndarray.dot, the BLAS gemv that `@`
        # ends in, without the matmul ufunc's dispatch
        u, info = self._potrs(self._factor, f, self._lower)
        if info == 0:
            du, info = self._potrs(self._factor, f - self._dense.dot(u), self._lower)
            if info == 0:
                return u + du
        raise ValueError("illegal value in argument %d of potrs" % -info)


def spectral_radius(A):
    """rho(A) of symmetric A by power iteration: the magnitude of the last
    Rayleigh quotient, once two successive ones agree to 1e-8 (relative)
    or after 500 iterations.

    Starts from the all-ones vector plus a small deterministic perturbation
    (an exactly constant start can be orthogonal to the dominant mode).
    """
    n = A.shape[0]
    x = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(500):
        y = A @ x
        rho_new = float(np.dot(x, y))
        ny = np.linalg.norm(y)
        if ny == 0.0:
            return 0.0
        x = y / ny
        if abs(rho_new - rho) < 1e-8 * abs(rho_new):
            return abs(rho_new)
        rho = rho_new
    return abs(rho)
