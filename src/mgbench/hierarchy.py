"""Multilevel hierarchies: nested geometric grids and greedy-aggregation AMG.

A Hierarchy stores levels coarsest-first; level(k) with k = 1..n_levels
follows that order (1 is coarsest).  Prolongators sit on the coarse level
they interpolate from (P_to_finer), restriction is always the transpose.
All coarse operators are Galerkin products of the finest matrix.
"""
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .linalg import DenseFactorization, as_csr, rap
from .problems import assemble_jump, assemble_poisson
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


def build_geometric(problem, k_max, smoother=None, k_min=None, low=1e-6):
    """Nested geometric hierarchy for 'poisson' or 'jump' up to mesh level k_max.

    The finest matrix is assembled directly; coarse operators are Galerkin
    products through the geometric prolongators (identical to direct coarse
    assembly wherever the latter is defined).  The jump hierarchy stops at
    mesh level 2: the single level-1 node cannot represent the coefficient
    regions, which stalls the island near-kernel modes.
    """
    if problem not in ("poisson", "jump"):
        raise ValueError("unknown problem %r" % problem)
    if smoother is None:
        smoother = SmootherSpec()
    if k_min is None:
        k_min = 2 if problem == "jump" else 1
    if not k_min <= k_max <= 12 or k_max < 2:
        raise ValueError("need %d <= k_max <= 12, got %d" % (max(k_min, 2), k_max))

    if problem == "poisson":
        A, _ = assemble_poisson(k_max)
    else:
        A, _ = assemble_jump(k_max, low=low)

    mesh_levels = list(range(k_min, k_max + 1))
    matrices = {k_max: A}
    prolongators = {}
    Ak = A
    for k in range(k_max, k_min, -1):
        P = geometric_prolongator(k)
        prolongators[k - 1] = P
        Ak = rap(P, Ak)
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
    """Greedy three-phase aggregation on the strength graph of A.

    Nodes i, j are strongly coupled iff |A_ij| >= theta * sqrt(A_ii A_jj).
    Phase 1 scans nodes in order and turns each fully-unaggregated strong
    neighborhood into a new aggregate; phase 2 attaches leftover nodes to
    the neighboring aggregate with the strongest coupling (ties favor the
    earlier neighbor); phase 3 makes singletons of anything left.
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

    strong = []
    t2 = theta * theta
    for i in range(n):
        s = []
        for t in range(indptr[i], indptr[i + 1]):
            j = indices[t]
            if j != i and data[t] * data[t] >= t2 * d[i] * d[j]:
                s.append(t)
        strong.append(s)

    assignment = np.full(n, -1, dtype=np.int64)
    n_agg = 0
    for i in range(n):
        if assignment[i] != -1:
            continue
        if all(assignment[indices[t]] == -1 for t in strong[i]):
            assignment[i] = n_agg
            for t in strong[i]:
                assignment[indices[t]] = n_agg
            n_agg += 1
    for i in range(n):
        if assignment[i] != -1:
            continue
        best, best_val = -1, -1.0
        for t in strong[i]:
            a = assignment[indices[t]]
            if a != -1 and abs(data[t]) > best_val:
                best_val = abs(data[t])
                best = a
        if best != -1:
            assignment[i] = best
    for i in range(n):
        if assignment[i] == -1:
            assignment[i] = n_agg
            n_agg += 1
    return Aggregation(assignment=assignment, n_aggregates=n_agg)


def piecewise_constant_prolongator(agg, n_fine):
    """0/1 prolongator: row i has a single 1 in column agg.assignment[i]."""
    return as_csr(sp.csr_matrix(
        (np.ones(n_fine), (np.arange(n_fine), agg.assignment)),
        shape=(n_fine, agg.n_aggregates)))


def build_ua_amg(A_fine, theta=DEFAULT_THETA, min_coarse=DEFAULT_MIN_COARSE,
                 max_levels=DEFAULT_MAX_LEVELS, smoother=None):
    """Unsmoothed-aggregation hierarchy: aggregate, 0/1 prolongate, RAP.

    Coarsening repeats until the dimension drops to min_coarse or max_levels
    is reached; two consecutive aggregations that fail to reduce the
    dimension raise CoarseningStagnation.
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
        Ak = rap(P, Ak)
        levels.append(Level(A=Ak, P_to_finer=P))

    levels.reverse()   # coarsest first; each P_to_finer already sits on its coarse level
    for lv in levels:
        lv.smoother = bind(lv.A, smoother)
    return Hierarchy(levels=levels,
                     coarsest_solver=DenseFactorization(levels[0].A))
