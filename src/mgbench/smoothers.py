"""Smoothers R and their adjoints R^t.

Kinds: 'gs' (forward Gauss-Seidel, (D+L)^-1; adjoint is backward GS),
'jacobi' (omega D^-1) and 'richardson' (omega/rho(A) I).  Multiple sweeps
compose the error propagator, i.e. s sweeps give I - (I - RA)^s A-solve
behaviour.

Binding a smoother makes every choice once: it picks a pair of step
functions, forward and backward, for R and R^t.  Gauss-Seidel steps on a
small level are the two band dtbsv calls, on a larger one the two SuperLU
gstrs calls; Jacobi and Richardson have one step for both, a scaling by
omega/d or omega/rho(A).  apply and apply_transpose run the one sweep loop
with their step: u = step(f), then sweeps - 1 times u += step(f - A u).
Each Gauss-Seidel step is one kernel call, with no pass to scale by D^-1:
both triangles are prepared once per level, when the smoother is bound.
The backward sweep solves with D + L^t, which is D + U only for symmetric
A: apply_transpose relies on A being symmetric, as every matrix the package
builds is.

Where (bw + 1) n, with bw the lower bandwidth, is at most BAND_GS_LIMIT,
D + L and D + L^t are stored in LAPACK band layout, each in its own array,
and a sweep is one BLAS dtbsv call (lower for the forward sweep, upper for
the backward one, non-unit diagonal in both).  These are the small levels
the AMLI cycles visit most, where the sparse solve's fixed cost of about
5 us per call dwarfs the arithmetic: a 49-unknown sweep takes 1-2 us on
the band, a 961-unknown one 15 us against 20 us sparse.  Reading a band
costs (bw + 1) n, so it stops paying near bw = 64 (see BAND_GS_LIMIT for
the measured crossover).  One stored band, transposed by dtbsv, would do
for both sweeps, but the transposed solve takes two to three times as
long (48-54 against 17-25 us at 961 unknowns).

Larger levels call SuperLU's triangular solve (_superlu.gstrs) directly,
with D + L = M D stored as SuperLU stores its factors: L = M, the unit
lower triangle (D+L) D^-1, with D on its diagonal where SuperLU keeps U's
diagonal, and an empty U.  Its U-solve divides by that diagonal, so trans
"N" returns D^-1 M^-1 f, the forward sweep, and trans "T" returns
M^-t D^-1 f, the backward one: both sweeps use the one stored triangle.
The arguments are prepared once, at bind time, where spsolve_triangular
re-prepares the triangle on every call (it sets the diagonal, builds an
empty U, casts the index arrays and checks for duplicates).  That cut a
forward/backward sweep from 100/130 to 23/19 us at 961 unknowns and from
2080/2170 to 1120/1020 us at 65025 (2-core Xeon VM, Poisson matrices).
At 261121 unknowns a sweep takes about 6.5 ms, 25 ns per row; gstrs takes
at least as long on an identity triangle, so the cost is SuperLU's own, not
the arithmetic.
Factoring M with splu(permc_spec="NATURAL") solves about as fast, but its
factor step adds 55-75 ms to the setup at 261121 unknowns and keeps
SuperLU's workspace resident; spilu drops entries of M.
"""
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dtbsv
from scipy.sparse.linalg._dsolve._superlu import gstrs

from .linalg import _count, _vector, as_csr, spectral_radius, spmv

# Largest (bw + 1) n, with bw the lower bandwidth, whose Gauss-Seidel
# triangles are stored as bands.  A band sweep costs about 0.25-0.35 ns per
# band entry, the sparse one about 15-20 ns per row plus 5 us per call, so
# the band stops paying near bw = 50-90.  Measured on a 2-core Xeon VM
# (OpenBLAS, one thread; forward/backward us per call, band vs sparse):
#
#   level                     n     bw   (bw+1) n    band       sparse
#   Poisson k = 5            961    31     30752    15/16      22/20
#   UA-AMG (Poisson k = 8)  1247    30     38657    20/21      36/26
#   UA-AMG (Poisson k = 7)  2720    44    122400    42/43      80/45
#   Poisson k = 7, first    1000   127    128000    33/50      25/36
#     rows                  1500   127    192000    45/42      33/27
#   Poisson k = 6           3969    63    254016    82/79      68/60
#   Poisson k = 7          16129   127   2064512   771/885    261/224
#
# 2^17 keeps every level of at most 320 unknowns ((bw+1) n <= 320^2) and
# the k = 5 and UA-AMG levels up to 2720 unknowns on the band, and gives
# the 3969-unknown level, a tie, to the sparse sweep.
BAND_GS_LIMIT = 2 ** 17

KINDS = ("gs", "jacobi", "richardson")


@dataclass(frozen=True)
class SmootherSpec:
    kind: str = "gs"
    weight: float = 1.0
    sweeps: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown smoother kind %r (expected gs|jacobi|richardson)"
                             % self.kind)
        _count("sweeps", self.sweeps)
        # Gauss-Seidel has no weight, so one other than 1 would go unused
        if self.kind == "gs" and self.weight != 1.0:
            raise ValueError("gs takes no weight, got %g" % self.weight)
        # Richardson scales by omega/rho(A), so omega < 2 is omega/rho < 2/rho
        if self.kind != "gs" and not 0.0 < self.weight < 2.0:
            raise ValueError("%s weight must lie in (0, 2), got %g"
                             % (self.kind, self.weight))


def _lower_bandwidth(C):
    """max_i (i - first column of row i) of a canonical CSR matrix whose
    rows all hold their diagonal: O(n), one entry per row."""
    first = C.indices.take(C.indptr[:-1])
    return int((np.arange(len(first), dtype=first.dtype) - first).max())


def _bands(C, bw):
    """The (D+L) and (D+L^t) triangles of a canonical CSR matrix in LAPACK
    band layout (Fortran order, so dtbsv takes them without a copy).

    Column j of the lower band holds (D+L)[j:j+bw+1, j] from row 0 down;
    column j of the upper band holds (D+L^t)[j-bw:j+1, j], ending on row bw.
    Both come from A's lower entries (i, j, a_ij), i >= j: a_ij is
    (D+L)[i, j] and (D+L^t)[j, i].
    """
    n = C.shape[0]
    rows = np.repeat(np.arange(n), np.diff(C.indptr))
    low = C.indices <= rows
    i, j, a = rows[low], C.indices[low], C.data[low]
    lower = np.zeros((bw + 1, n), order="F")
    upper = np.zeros((bw + 1, n), order="F")
    lower[i - j, j] = a
    upper[bw + j - i, i] = a
    return lower, upper


def _unit_lower_csc(A, d):
    """M = (D+L) D^-1 off the diagonal and D on it, as a canonical CSC matrix.

    This is SuperLU's own storage for the factors of D + L = M D: L's unit
    diagonal is implied, and the diagonal entries stored with L are U's.
    Scales the columns of A's CSC form by 1/d, zeroes the entries above the
    diagonal, puts d on the diagonal and drops every zero at once.  The
    result has the entries, in the same order, of sp.tril(A, format="csc")
    scaled the same way, without tril's round trip through COO.
    """
    C = sp.csc_matrix(A, copy=True)   # sum_duplicates works in place
    C.sum_duplicates()
    counts = np.diff(C.indptr)
    cols = np.repeat(np.arange(C.shape[1], dtype=C.indices.dtype), counts)
    # a second repeat: the gather (1/d)[cols] made a geometric k = 9 build
    # 6.7 ms slower
    C.data *= np.repeat(1.0 / d, counts)
    C.data[C.indices < cols] = 0.0
    C.data[C.indices == cols] = d     # one diagonal entry per column
    C.eliminate_zeros()
    # eliminate_zeros can leave views of the full-size arrays; keep only M
    return C.copy()


class BoundSmoother:
    """SmootherSpec bound to a concrete matrix, as a pair of step functions."""

    def __init__(self, A, spec):
        self.A = A
        self.spec = spec
        n = self._n = A.shape[0]
        d = A.diagonal()
        if np.any(d == 0.0):
            raise ValueError("zero diagonal entry at index %d"
                             % int(np.argmin(d != 0.0)))
        self._later_sweeps = range(spec.sweeps - 1)
        if spec.kind != "gs":
            scale = spec.weight / (d if spec.kind == "jacobi" else spectral_radius(A))
            self._forward = self._backward = partial(np.multiply, scale)
            return
        # no band can fit when n alone exceeds the limit; only smaller
        # levels pay for reading the bandwidth
        self._band = None
        if n <= BAND_GS_LIMIT:
            C = as_csr(A)
            bw = _lower_bandwidth(C)
            if (bw + 1) * n <= BAND_GS_LIMIT:
                self._bw = bw
                self._band = lower, upper = _bands(C, bw)

                def forward(f):
                    # positional (incx, offx, lower): f2py parses them faster
                    # than keywords; trans and diag keep their defaults, 0
                    return dtbsv(bw, lower, f, 1, 0, 1)
                self._forward, self._backward = forward, partial(dtbsv, bw, upper)
                return
        M = _unit_lower_csc(A, d)
        # gstrs arguments: L = M, then an empty U
        triangle = (n, M.nnz, M.data, M.indices.astype(np.intc, copy=False),
                    M.indptr.astype(np.intc, copy=False),
                    n, 0, np.empty(0), np.empty(0, np.intc), np.zeros(n + 1, np.intc))

        def forward(f):
            # L-solve with M, then U-solve with D: D^-1 M^-1 f.  gstrs
            # returns a new array and leaves b alone; its info flags only
            # illegal arguments
            return gstrs("N", *triangle, f)[0]

        def backward(f):
            # (D+L^t)^-1 f = M^-t D^-1 f
            return gstrs("T", *triangle, f)[0]
        self._forward, self._backward = forward, backward

    def _sweep(self, step, f):
        """spec.sweeps steps from zero, after checking that f is a vector of
        the level's length.  The result is a new array that shares no memory
        with f, which the cycles add into in place: dtbsv copies x
        (overwrite_x=0), gstrs returns a new array, and the scalings form
        new ones.  So each later sweep adds into u in place."""
        f = _vector(f, self._n, "smoother input")
        u = step(f)
        for _ in self._later_sweeps:
            u += step(f - spmv(self.A, u))
        return u

    def apply(self, f):
        """R f, as a new array that shares no memory with f."""
        return self._sweep(self._forward, f)

    def apply_transpose(self, f):
        """R^t f (backward Gauss-Seidel; Jacobi/Richardson are self-adjoint),
        as a new array, like apply."""
        return self._sweep(self._backward, f)


def bind(A, spec):
    return BoundSmoother(A, spec)

