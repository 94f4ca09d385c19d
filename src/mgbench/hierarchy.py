"""Multilevel hierarchies: nested geometric grids and greedy-aggregation AMG.

A Hierarchy stores levels coarsest-first; level(k) with k = 1..n_levels
follows that order (1 is coarsest).  Prolongators sit on the coarse level
they interpolate from (P_to_finer), in the format their builder writes:
CSC for geometric, CSR for UA-AMG.  Restriction is the transpose view,
Level.R.  A built hierarchy is immutable: levels is a tuple of frozen Levels,
so a changed part means a new hierarchy (dataclasses.replace), and no
part's contents, such as a matrix's arrays, change in place.
A geometric hierarchy assembles every level on its own mesh; the UA-AMG
coarse operators are Galerkin products of the finest matrix.  Assembly and
each product are exactly symmetric by construction, so a builder checks the
symmetry of the finest matrix at most once and never that of a coarse one.
"""
import array
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import DENSE_LIMIT, DenseFactorization, _count, _galerkin, as_csr, rap
from .problems import MATRICES, MAX_LEVEL, assemble
from .smoothers import SmootherSpec, bind

DEFAULT_THETA = 0.08
DEFAULT_MIN_COARSE = 50
DEFAULT_MAX_LEVELS = 20


class CoarseningStagnation(RuntimeError):
    pass


def require_coarsening(theta, min_coarse=1, max_levels=1):
    """Raise ValueError unless 0 <= theta < 1 and min_coarse and
    max_levels are integers >= 1."""
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1), got %g" % theta)
    _count("min_coarse", min_coarse)
    _count("max_levels", max_levels)


@dataclass(frozen=True, eq=False)
class Level:
    A: object
    P_to_finer: object = None   # absent on the finest level
    smoother: object = None

    @property
    def R(self):
        """Restriction P_to_finer^t, a view of P's arrays (None on the
        finest level); the cycle engine binds it once per visit table."""
        return None if self.P_to_finer is None else self.P_to_finer.T


@dataclass(frozen=True, eq=False)
class Hierarchy:
    """Levels coarsest first and the coarsest solver.  == is identity, and
    _tables holds the cycle engine's visit tables (amli._visits); a copy
    made with dataclasses.replace starts without them."""
    levels: tuple = ()   # index 0 = coarsest
    coarsest_solver: DenseFactorization = None
    mesh_levels: list = None    # geometric hierarchies: mesh index per level
    _tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def n_levels(self):
        return len(self.levels)

    def level(self, k):
        """Level by 1-based index, 1 = coarsest, n_levels = finest."""
        if not 1 <= k <= self.n_levels:
            raise ValueError("level index %d out of range 1..%d" % (k, self.n_levels))
        return self.levels[k - 1]

    @property
    def finest(self):
        return self.levels[-1]

    def report(self):
        """Per-level dimensions, nonzeros and the operator complexity."""
        lines = ["level  dimension  nonzeros"]
        for i, lv in enumerate(self.levels):
            lines.append("%5d  %9d  %8d" % (i + 1, lv.A.shape[0], lv.A.nnz))
        complexity = sum(lv.A.nnz for lv in self.levels) / self.finest.A.nnz
        lines.append("operator complexity: %.3f" % complexity)
        return "\n".join(lines)


def geometric_prolongator(k):
    """Linear-interpolation prolongator from mesh level k-1 into level k.

    Coincident coarse nodes get weight 1; fine nodes at the midpoints of
    coarse edges (horizontal, vertical, and the lower-left/upper-right
    diagonal of each coarse cell) get 1/2 from each edge endpoint.  Every
    coarse column holds those seven entries, so the matrix is kept in the
    canonical CSC it is written in: prolongation is a column scatter, and
    its transpose Level.R a CSR view, so restriction is a row gather.
    """
    if k < 2:
        raise ValueError("prolongator needs k >= 2, got %d" % k)
    nc, nf = 2 ** (k - 1) - 1, 2 ** k - 1
    # coarse node (cx, cy) is fine node (2cx + 1, 2cy + 1); in row order its
    # column holds the fine nodes SW, S and W of it, itself, then E, N, NE
    c = np.arange(nc, dtype=np.int32)
    rows = np.add.outer(2 * (nf * c[:, None] + c), np.array(
        [0, 1, nf, nf + 1, nf + 2, 2 * nf + 1, 2 * nf + 2], dtype=np.int32))
    weights = np.full((nc * nc, 7), 0.5)
    weights[:, 3] = 1.0
    indptr = np.arange(0, 7 * nc * nc + 1, 7, dtype=np.int32)
    P = sp.csc_matrix((weights.ravel(), rows.ravel(), indptr),
                      shape=(nf * nf, nc * nc))
    P.has_canonical_format = True
    return P


def build_geometric(problem, k_max, smoother=None):
    """Nested geometric hierarchy for 'poisson' or 'jump' up to mesh level k_max.

    Every level is the stiffness matrix assembled on its own mesh, and
    level k carries geometric_prolongator(k + 1).  Assembly writes each
    coupling into both of its entries, so no level needs a symmetry check.
    The coefficient is constant on every element of the coarsest mesh used
    (the jump regions have corners at multiples of 1/4), so each level
    equals the Galerkin product P^t A P of the finer one up to round-off:
    bit for bit for Poisson.  The hierarchy starts at the matrix's lowest
    mesh level in MATRICES: below the jump matrix's, a single node cannot
    represent the coefficient regions, which stalls the island near-kernel
    modes.
    """
    if problem not in MATRICES:
        raise ValueError("unknown problem %r" % problem)
    if smoother is None:
        smoother = SmootherSpec()
    if not 2 <= k_max <= MAX_LEVEL:
        raise ValueError("need 2 <= k_max <= %d, got %d" % (MAX_LEVEL, k_max))

    mesh_levels = list(range(MATRICES[problem], k_max + 1))
    levels = []
    for k in mesh_levels:
        A, _ = assemble(problem, k)
        P = geometric_prolongator(k + 1) if k < k_max else None
        levels.append(Level(A=A, P_to_finer=P, smoother=bind(A, smoother)))
    return Hierarchy(levels=levels,
                     coarsest_solver=DenseFactorization(levels[0].A),
                     mesh_levels=mesh_levels)


@dataclass(frozen=True)
class Aggregation:
    assignment: np.ndarray
    n_aggregates: int


def aggregate(A, theta=DEFAULT_THETA):
    """Greedy aggregation on the strength graph of A.

    Nodes i, j are strongly coupled iff |A_ij| >= theta * sqrt(A_ii A_jj).
    Phase 1 scans nodes in order and turns each fully-unaggregated strong
    neighborhood into a new aggregate.  Phase 2 runs over the nodes phase 1
    left unaggregated, in order, and attaches each to the neighboring
    aggregate with the strongest coupling (ties favor the earlier
    neighbor), which may be one it attached an earlier node to.  The usual
    third phase, singletons of anything left, never has work: phase 1
    passes over a node only when one of its strong neighbors is already
    aggregated, and phase 2 then attaches it.
    """
    require_coarsening(theta)
    A = as_csr(A)
    n = A.shape[0]
    d = A.diagonal()
    if not np.all(d > 0.0):     # a NaN fails d > 0 too
        raise ValueError("non-positive or NaN diagonal entry at index %d"
                         % int(np.argmin(d > 0.0)))
    indptr, indices, data = A.indptr, A.indices, A.data

    # strong: off the diagonal and A_ij^2 >= (theta^2 A_ii) A_jj.  Row i's
    # strong neighbours are cols[b[i]:b[i+1]] in column order; an array.array
    # makes Python ints only of the slices the sequential phases read
    counts = np.diff(indptr)
    bound = np.repeat((theta * theta) * d, counts)
    bound *= d[indices]
    mask = np.square(data) >= bound
    mask &= indices != np.repeat(np.arange(n, dtype=indices.dtype), counts)
    strong = np.flatnonzero(mask)
    b_arr = np.concatenate(([0], np.cumsum(mask)))[indptr]
    cols = array.array(indices.dtype.char, indices[strong].tobytes())
    b = b_arr.tolist()

    assignment = [-1] * n
    n_agg = 0
    for i in range(n):
        if assignment[i] != -1:
            continue
        nbrs = cols[b[i]:b[i + 1]]
        for j in nbrs:
            if assignment[j] != -1:
                break
        else:
            assignment[i] = n_agg
            for j in nbrs:
                assignment[j] = n_agg
            n_agg += 1
    result = np.array(assignment, dtype=np.int64)

    # each leftover row's strong neighbours, strongest first; the stable
    # sort keeps column order among equals, so the first one already in an
    # aggregate is the strongest coupling, ties going to the earlier one
    rows = np.flatnonzero(result < 0)
    starts = b_arr[rows]
    lens = b_arr[rows + 1] - starts
    ends = np.cumsum(lens)
    pos = np.arange(lens.sum()) + np.repeat(starts - ends + lens, lens)
    order = np.lexsort((-np.abs(data[strong[pos]]),
                        np.repeat(np.arange(rows.size), lens)))
    ranked = indices[strong[pos[order]]].tolist()
    left = rows.tolist()
    for i, s, t in zip(left, (ends - lens).tolist(), ends.tolist()):
        for j in ranked[s:t]:
            if assignment[j] != -1:
                assignment[i] = assignment[j]
                break
    result[rows] = [assignment[i] for i in left]
    return Aggregation(result, n_agg)


def piecewise_constant_prolongator(agg, n_fine):
    """0/1 prolongator: row i has a single 1 in column agg.assignment[i],
    written directly in canonical CSR (row i's one entry is entry i)."""
    ids = agg.assignment
    if ids.size and (ids.min() < 0 or ids.max() >= agg.n_aggregates):
        raise ValueError("aggregate ids must lie in 0..%d" % (agg.n_aggregates - 1))
    P = sp.csr_matrix((np.ones(n_fine), ids, np.arange(n_fine + 1)),
                      shape=(n_fine, agg.n_aggregates))
    P.has_canonical_format = True
    return P


def build_ua_amg(A_fine, theta=DEFAULT_THETA, min_coarse=DEFAULT_MIN_COARSE,
                 max_levels=DEFAULT_MAX_LEVELS, smoother=None):
    """Unsmoothed-aggregation hierarchy: aggregate, 0/1 prolongate, RAP.

    Coarsening repeats until the dimension drops to min_coarse or max_levels
    is reached; two consecutive aggregations that fail to reduce the
    dimension raise CoarseningStagnation.  The first coarsening is rap,
    which checks A_fine (NonSPDError if it is not symmetric).  theta,
    min_coarse and max_levels are checked first (require_coarsening); a
    coarsest level above the dense limit raises ValueError before any
    smoother is bound.
    """
    require_coarsening(theta, min_coarse, max_levels)
    if smoother is None:
        smoother = SmootherSpec()
    A_fine = as_csr(A_fine)
    parts = [(A_fine, None)]   # (A, P_to_finer), finest first
    stagnant = 0
    Ak = A_fine
    while Ak.shape[0] > min_coarse and len(parts) < max_levels:
        agg = aggregate(Ak, theta=theta)
        if agg.n_aggregates == Ak.shape[0]:
            stagnant += 1
            if stagnant >= 2:
                raise CoarseningStagnation(
                    "coarsening stagnated: aggregation kept %d unknowns "
                    "on two consecutive levels" % Ak.shape[0])
        else:
            stagnant = 0
        P = piecewise_constant_prolongator(agg, Ak.shape[0])
        Ak = rap(P, Ak) if len(parts) == 1 else _galerkin(P, Ak)
        parts.append((Ak, P))

    if Ak.shape[0] > DENSE_LIMIT:
        raise ValueError("the coarsest of %d levels has %d unknowns, above the "
                         "dense limit %d; raise max_levels or lower min_coarse"
                         % (len(parts), Ak.shape[0], DENSE_LIMIT))
    # coarsest first; each P_to_finer already sits on its coarse level
    levels = [Level(A=A, P_to_finer=P, smoother=bind(A, smoother))
              for A, P in reversed(parts)]
    return Hierarchy(levels=levels,
                     coarsest_solver=DenseFactorization(levels[0].A))
