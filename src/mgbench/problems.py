"""Model problems: linear FEM on uniform triangulations of the unit square.

Level k uses a (2^k x 2^k)-cell grid, h = 2^-k, every cell split along the
lower-left to upper-right diagonal.  Dirichlet boundary rows/columns are
eliminated, leaving the (2^k - 1)^2 interior nodes in lexicographic order
(x fastest).  For the constant-coefficient Laplacian this yields the
classical 5-point stencil with diagonal 4.

The stored pattern is that 5-point stencil for any coefficient: the matrix
is assembled node by node straight into its CSR arrays, with no zeros.  The
SW-NE diagonal is an edge of the two triangles of its cell, but in each the
gradients of its end nodes' hat functions are orthogonal (one varies in x
only, the other in y only), so the coupling is zero whatever the coefficient.

Each model problem is a plain function of k that hands its coefficient
a(x, y) to `_assemble`.  `MATRICES` states each matrix's lowest mesh level
once; `build_geometric` starts its hierarchies there.
"""
from functools import partial

import numpy as np
import scipy.sparse as sp

MAX_LEVEL = 12

# the model problems' matrices, the constant-coefficient Laplacian and the
# jump coefficient, each with the coarsest mesh level that resolves its
# coefficient (the jump regions have corners at multiples of 1/4)
MATRICES = {"poisson": 1, "jump": 2}

# local stiffness (coefficient 1) for the two right triangles of a cell:
# lower (v0, v1, v2) = (SW, SE, NE), upper (v0, v2, v3) = (SW, NE, NW)
_K_LOWER = 0.5 * np.array([[1.0, -1.0, 0.0],
                           [-1.0, 2.0, -1.0],
                           [0.0, -1.0, 1.0]])
_K_UPPER = 0.5 * np.array([[1.0, 0.0, -1.0],
                           [0.0, 1.0, -1.0],
                           [-1.0, -1.0, 2.0]])


def _grid(k):
    """Interior nodes per side and mesh width h of mesh level k."""
    if not 1 <= k <= MAX_LEVEL:
        raise ValueError("level k must be in 1..%d, got %d" % (MAX_LEVEL, k))
    return 2 ** k - 1, 2.0 ** -k


def _jump(x, y, low):
    """The jump coefficient: 1 on the two squares (0.25,0.5)^2 and
    (0.5,0.75)^2, low elsewhere."""
    a = np.full_like(x, low)
    in1 = (x > 0.25) & (x < 0.5) & (y > 0.25) & (y < 0.5)
    in2 = (x > 0.5) & (x < 0.75) & (y > 0.5) & (y < 0.75)
    a[in1 | in2] = 1.0
    return a


def _stencil_rows(out, line, d, w, e, s, n):
    """Write the S, W, D, E, N entries of the nodes into `out` in CSR row
    order, leaving out neighbours on the boundary: `line` entries in the
    first line and in the last, 5N - 2 in each other.  d, s and n are
    indexed [y, x] by node, w and e by the edge from node x to x + 1."""
    first, last = out[:line], out[line:][-line:]   # no last line if N = 1
    mid = out[line:-line].reshape(-1, 5 * len(d) - 2)
    # D E N, W D E N, ..., W D N; at N = 1 the diagonal overwrites the N
    first[-1:], first[::4], first[1:-1:4] = n[0, -1:], d[0], e[0]
    first[2::4], first[3::4] = n[0, :-1], w[0]
    # S D E N, S W D E N, ..., S W D N
    mid[:, :1], mid[:, 4::5], mid[:, 5::5] = s[1:-1, :1], s[1:-1, 1:], w[1:-1]
    mid[:, 1::5], mid[:, 2:-1:5], mid[:, 3::5] = d[1:-1], e[1:-1], n[1:-1, :-1]
    mid[:, -1:] = n[1:-1, -1:]
    # S D E, S W D E, ..., S W D
    last[:1], last[3::4], last[4::4] = s[-1, :1], s[-1, 1:], w[-1]
    last[1::4], last[2::4] = d[-1], e[-1]


def _assemble(k, coefficient):
    """Stiffness matrix over the interior nodes of mesh level k, summed node
    by node from coefficient(x, y) at the triangles' barycenters times
    _K_LOWER/_K_UPPER, written straight to CSR."""
    N, h = _grid(k)
    m = N + 1

    # coefficient at the barycenters of each cell's triangles, indexed [cy, cx]:
    # (x0 + 2h/3, y0 + h/3) for the lower one, (x0 + h/3, y0 + 2h/3) for the upper
    thirds = np.empty((2, m, m))
    thirds[:] = np.arange(m) * h + np.array([[[h / 3.0]], [[2.0 * h / 3.0]]])
    a_lo, a_up = coefficient(thirds[::-1], thirds.transpose(0, 2, 1))

    # the diagonal sums the six triangles around node (x, y): it is NE in
    # cell (x-1, y-1)'s two, NW in cell (x, y-1)'s upper one, SE in cell
    # (x-1, y)'s lower one and SW in cell (x, y)'s two; each east/north
    # coupling sums its edge's two.  Any order of the six terms is as
    # accurate; this one is the order in which scipy sums the duplicates of
    # an element-by-element COO assembly, so the two agree bit for bit
    # (scipy 1.17)
    KL, KU = _K_LOWER, _K_UPPER
    diag = (KU[1, 1] * a_up[:-1, :-1] + KU[2, 2] * a_up[:-1, 1:]
            + KL[2, 2] * a_lo[:-1, :-1] + KL[1, 1] * a_lo[1:, :-1]
            + KL[0, 0] * a_lo[1:, 1:] + KU[0, 0] * a_up[1:, 1:])
    east = KU[2, 1] * a_up[:-1, 1:-1] + KL[0, 1] * a_lo[1:, 1:-1]
    # vert[y] couples lines y - 1 and y, the boundary lines -1 and N included
    vert = KL[1, 2] * a_lo[:, :-1] + KU[0, 2] * a_up[:, 1:]

    # a row holds its diagonal and its neighbours off the boundary
    n = N * N
    along = np.minimum(np.arange(N), 1) + np.minimum(np.arange(N)[::-1], 1)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.add.outer(along, along + 1), out=indptr[1:])
    data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
    # node numbers [y, x], with the out-of-range lines -1 and N around them
    cols = np.arange(-N, n + N, dtype=np.int32).reshape(N + 2, N)
    _stencil_rows(data, indptr[N], diag, east, east, vert[:-1], vert[1:])
    _stencil_rows(indices, indptr[N], cols[1:-1], cols[1:-1, :-1],
                  cols[1:-1, 1:], cols[:-2], cols[2:])
    return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def load_vector(problem, k):
    """Right-hand side of a model problem at level k: the f = 1 load of
    'poisson', the zero load of 'jump'."""
    if problem not in MATRICES:
        raise ValueError("unknown problem %r" % problem)
    N, h = _grid(k)
    if problem == "jump":
        return np.zeros(N * N)
    # each of a node's six triangles (area h^2/2) gives it a third of its
    # area; added one at a time, as an element-by-element sum does
    load = 0.0
    for _ in range(6):
        load += (h * h / 2.0) / 3.0
    return np.full(N * N, load)


def assemble_poisson(k):
    """Poisson stiffness matrix and f=1 load vector at level k."""
    A = _assemble(k, lambda x, y: np.ones_like(x))
    return A, load_vector("poisson", k)


def assemble_jump(k, low=1e-6):
    """Jump-coefficient stiffness matrix and the zero load vector (f = 0).

    The coefficient, `_jump`, is 1 on two squares and low elsewhere.
    Requires k >= MATRICES["jump"] so the region corners are grid points
    and no element straddles an interface.
    """
    lowest = MATRICES["jump"]
    if k < lowest:
        raise ValueError("jump problem needs k >= %d "
                         "(coefficient regions not resolvable at k=%d)" % (lowest, k))
    if not 0.0 < low < np.inf:
        raise ValueError("low_value must be positive and finite, got %g" % low)
    A = _assemble(k, partial(_jump, low=low))
    return A, load_vector("jump", k)


def assemble(matrix, k):
    """Stiffness matrix and load vector of one of MATRICES at level k.

    The assembler is looked up by name when called, so a wrapper bound to
    mgbench.problems.assemble_poisson or assemble_jump sees every build that
    comes through here: build_geometric's levels and the CLI's UA-AMG
    systems.
    """
    if matrix not in MATRICES:
        raise ValueError("unknown problem %r" % matrix)
    return (assemble_poisson if matrix == "poisson" else assemble_jump)(k)
