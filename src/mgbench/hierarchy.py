"""Multilevel hierarchies: nested geometric grids and greedy-aggregation AMG.

A Hierarchy stores levels coarsest-first; level(k) with k = 1..n_levels
follows that order (1 is coarsest).  Prolongators sit on the coarse level
they interpolate from (P_to_finer), restriction is always the transpose,
formed once per level (Level.R).
All coarse operators are Galerkin products of the finest matrix.  Each
product is exactly symmetric by construction, so a builder checks the
symmetry of the finest matrix at most once and never that of a coarse one.
"""
import array
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .linalg import DenseFactorization, _galerkin, as_csr, rap
from .problems import MAX_LEVEL, assemble_jump, assemble_poisson
from .smoothers import SmootherSpec, bind

DEFAULT_THETA = 0.08
DEFAULT_MIN_COARSE = 50
DEFAULT_MAX_LEVELS = 20


class CoarseningStagnation(RuntimeError):
    pass


@dataclass
class Level:
    A: object
    P_to_finer: object = None   # absent on the finest level
    smoother: object = None

    @cached_property
    def R(self):
        """Restriction P_to_finer^t, formed on first use and kept (None on the
        finest level); `P.T @ x` would build the transpose on every call."""
        return None if self.P_to_finer is None else self.P_to_finer.T


@dataclass
class Hierarchy:
    levels: list = field(default_factory=list)   # index 0 = coarsest
    coarsest_solver: DenseFactorization = None
    mesh_levels: list = None    # geometric hierarchies: mesh index per level

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


# (dx, dy, weight) of a coarse node's fine neighbours: the node itself and
# the midpoints of its horizontal, vertical and lower-left/upper-right edges
_P_STENCIL = ((0, 0, 1.0),
              (-1, 0, 0.5), (1, 0, 0.5),
              (0, -1, 0.5), (0, 1, 0.5),
              (-1, -1, 0.5), (1, 1, 0.5))


def geometric_prolongator(k):
    """Linear-interpolation prolongator from mesh level k-1 into level k.

    Coincident coarse nodes get weight 1; fine nodes at the midpoints of
    coarse edges (horizontal, vertical, and the lower-left/upper-right
    diagonal of each coarse cell) get 1/2 from each edge endpoint.
    """
    if k < 2:
        raise ValueError("prolongator needs k >= 2, got %d" % k)
    nc = 2 ** (k - 1) - 1
    nf = 2 ** k - 1
    col = np.arange(nc * nc)
    jc, ic = np.divmod(col, nc)
    fx, fy = 2 * ic + 1, 2 * jc + 1    # 0-based fine coordinates of the coarse nodes
    # an interior coarse node's edge midpoints are all interior fine nodes
    rows = np.concatenate([(fy + dy) * nf + (fx + dx) for dx, dy, _ in _P_STENCIL])
    cols = np.tile(col, len(_P_STENCIL))
    vals = np.repeat([v for _, _, v in _P_STENCIL], nc * nc)
    return as_csr(sp.csr_matrix((vals, (rows, cols)), shape=(nf * nf, nc * nc)))


def build_geometric(problem, k_max, smoother=None):
    """Nested geometric hierarchy for 'poisson' or 'jump' up to mesh level k_max.

    The finest matrix is assembled directly and is symmetric by
    construction (each coupling is written into both of its entries), so
    it is not checked; coarse operators are Galerkin products through the
    geometric prolongators (identical to direct coarse assembly wherever
    the latter is defined).  The jump hierarchy stops at mesh level 2: the
    single level-1 node cannot represent the coefficient regions, which
    stalls the island near-kernel modes.
    """
    if problem not in ("poisson", "jump"):
        raise ValueError("unknown problem %r" % problem)
    if smoother is None:
        smoother = SmootherSpec()
    if not 2 <= k_max <= MAX_LEVEL:
        raise ValueError("need 2 <= k_max <= %d, got %d" % (MAX_LEVEL, k_max))

    A, _ = assemble_poisson(k_max) if problem == "poisson" else assemble_jump(k_max)
    mesh_levels = list(range(1 if problem == "poisson" else 2, k_max + 1))
    matrices = {k_max: A}
    prolongators = {}
    Ak = A
    for k in range(k_max, mesh_levels[0], -1):
        P = geometric_prolongator(k)
        prolongators[k - 1] = P
        Ak = _galerkin(P, Ak)
        matrices[k - 1] = Ak

    levels = []
    for k in mesh_levels:
        lv = Level(A=matrices[k], P_to_finer=prolongators.get(k))
        lv.smoother = bind(lv.A, smoother)
        levels.append(lv)
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
    A = as_csr(A)
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1), got %g" % theta)
    n = A.shape[0]
    d = A.diagonal()
    if np.any(d <= 0.0):
        raise ValueError("non-positive diagonal entry at index %d"
                         % int(np.argmax(d <= 0.0)))
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
    which checks A_fine (NonSPDError if it is not symmetric).
    """
    if smoother is None:
        smoother = SmootherSpec()
    A_fine = as_csr(A_fine)
    levels = [Level(A=A_fine)]
    stagnant = 0
    Ak = A_fine
    while Ak.shape[0] > min_coarse and len(levels) < max_levels:
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
        Ak = rap(P, Ak) if len(levels) == 1 else _galerkin(P, Ak)
        levels.append(Level(A=Ak, P_to_finer=P))

    levels.reverse()   # coarsest first; each P_to_finer already sits on its coarse level
    for lv in levels:
        lv.smoother = bind(lv.A, smoother)
    return Hierarchy(levels=levels,
                     coarsest_solver=DenseFactorization(levels[0].A))
