import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import mgbench.hierarchy
from mgbench import (Aggregation, CoarseningStagnation, DENSE_LIMIT, NonSPDError,
                     aggregate, apply_v_cycle, as_csr, assemble_jump,
                     assemble_poisson, a_norm, build_geometric, build_ua_amg,
                     geometric_prolongator, piecewise_constant_prolongator, rap,
                     symmetry_error)
from test_problems import assert_canonical_csr

# frozen first-run snapshots; the greedy pass is deterministic by design
POISSON_K3_THETA008_N_AGG = 10
UA_POISSON_K6_LEVEL_SIZES = [15, 92, 687, 3969]


def coarse_hat_value(icx, icy, k, x, y):
    """Independent embedding oracle: coarse nodal hat function evaluated
    at (x, y), piecewise linear on the coarse triangulation (diagonal from
    lower-left to upper-right)."""
    H = 2.0 ** -(k - 1)
    xr = x / H - icx
    yr = y / H - icy
    if abs(xr) >= 1.0 or abs(yr) >= 1.0:
        return 0.0
    # barycentric evaluation on the six triangles around the node
    if xr >= 0.0 and yr >= 0.0:
        return max(0.0, 1.0 - max(xr, yr))
    if xr <= 0.0 and yr <= 0.0:
        return max(0.0, 1.0 + min(xr, yr))
    if xr >= 0.0 > yr:
        return max(0.0, 1.0 - xr + yr) if xr - yr <= 1.0 else 0.0
    return max(0.0, 1.0 + xr - yr) if yr - xr <= 1.0 else 0.0


@pytest.mark.parametrize("k", [2, 3])
def test_geometric_prolongator_matches_embedding_oracle(k):
    P = geometric_prolongator(k).toarray()
    nc = 2 ** (k - 1) - 1
    nf = 2 ** k - 1
    hf = 2.0 ** -k
    for jc in range(1, nc + 1):
        for ic in range(1, nc + 1):
            col = (jc - 1) * nc + (ic - 1)
            for jf in range(1, nf + 1):
                for if_ in range(1, nf + 1):
                    expect = coarse_hat_value(ic, jc, k, if_ * hf, jf * hf)
                    got = P[(jf - 1) * nf + (if_ - 1), col]
                    assert got == pytest.approx(expect, abs=1e-13)


def loop_prolongator(k):
    """Node-by-node reference for geometric_prolongator."""
    nc = 2 ** (k - 1) - 1
    nf = 2 ** k - 1
    rows, cols, vals = [], [], []
    for jc in range(1, nc + 1):
        for ic in range(1, nc + 1):
            col = (jc - 1) * nc + (ic - 1)
            fx, fy = 2 * ic, 2 * jc
            stencil = ((fx, fy, 1.0),
                       (fx - 1, fy, 0.5), (fx + 1, fy, 0.5),
                       (fx, fy - 1, 0.5), (fx, fy + 1, 0.5),
                       (fx - 1, fy - 1, 0.5), (fx + 1, fy + 1, 0.5))
            for x, y, v in stencil:
                if 1 <= x <= nf and 1 <= y <= nf:
                    rows.append((y - 1) * nf + (x - 1))
                    cols.append(col)
                    vals.append(v)
    return as_csr(sp.csr_matrix((vals, (rows, cols)), shape=(nf * nf, nc * nc)))


@pytest.mark.parametrize("k", range(2, 10))
def test_geometric_prolongator_matches_loop_reference(k):
    P, ref = geometric_prolongator(k), loop_prolongator(k)
    assert P.shape == ref.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(P, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def coo_geometric_prolongator(k):
    """COO-built reference for geometric_prolongator: every coarse node's
    seven-point stencil as triplets, converted to canonical CSR."""
    nc = 2 ** (k - 1) - 1
    nf = 2 ** k - 1
    stencil = ((0, 0, 1.0), (-1, 0, 0.5), (1, 0, 0.5), (0, -1, 0.5),
               (0, 1, 0.5), (-1, -1, 0.5), (1, 1, 0.5))
    col = np.arange(nc * nc)
    jc, ic = np.divmod(col, nc)
    fx, fy = 2 * ic + 1, 2 * jc + 1
    rows = np.concatenate([(fy + dy) * nf + (fx + dx) for dx, dy, _ in stencil])
    cols = np.tile(col, len(stencil))
    vals = np.repeat([v for _, _, v in stencil], nc * nc)
    return as_csr(sp.csr_matrix((vals, (rows, cols)), shape=(nf * nf, nc * nc)))


@pytest.mark.parametrize("k", range(2, 10))
def test_geometric_prolongator_matches_coo_reference(k):
    P, ref = geometric_prolongator(k), coo_geometric_prolongator(k)
    assert P.format == ref.format == "csr"
    assert P.shape == ref.shape
    assert P.has_canonical_format and ref.has_canonical_format
    assert_canonical_csr(P)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(P, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_prolongator_k2_shape_and_values():
    P = geometric_prolongator(2)
    assert P.shape == (9, 1)
    col = P.toarray().ravel()
    assert col[4] == 1.0                        # coincident coarse node
    assert sorted(np.nonzero(col)[0]) == [0, 1, 3, 4, 5, 7, 8]
    assert np.count_nonzero(col == 0.5) == 6


def test_coarse_node_rows_have_single_one():
    P = geometric_prolongator(3)
    nc, nf = 3, 7
    for jc in range(1, nc + 1):
        for ic in range(1, nc + 1):
            row = P.getrow((2 * jc - 1) * nf + (2 * ic - 1))
            assert row.nnz == 1 and row.data[0] == 1.0


def test_two_level_galerkin_is_four():
    A2, _ = assemble_poisson(2)
    P = geometric_prolongator(2)
    assert rap(P, A2).toarray() == pytest.approx(np.array([[4.0]]))


def test_prolongator_reproduces_linear_functions():
    k = 4
    P = geometric_prolongator(k)
    nc = 2 ** (k - 1) - 1
    nf = 2 ** k - 1
    xc, yc = np.meshgrid(np.arange(1, nc + 1) * 2.0 ** -(k - 1),
                         np.arange(1, nc + 1) * 2.0 ** -(k - 1), indexing="xy")
    xf, yf = np.meshgrid(np.arange(1, nf + 1) * 2.0 ** -k,
                         np.arange(1, nf + 1) * 2.0 ** -k, indexing="xy")
    coarse_vals = (xc + yc).ravel()
    fine_vals = (xf + yf).ravel()
    lifted = P @ coarse_vals
    # exact only outside the support of the (dropped) boundary coarse hats,
    # i.e. for fine nodes with coordinates in [H, 1-H]
    H = 2.0 ** -(k - 1)
    inside = ((xf.ravel() >= H - 1e-12) & (xf.ravel() <= 1 - H + 1e-12) &
              (yf.ravel() >= H - 1e-12) & (yf.ravel() <= 1 - H + 1e-12))
    assert np.abs(lifted[inside] - fine_vals[inside]).max() <= 1e-13


def test_build_geometric_structure():
    h = build_geometric("poisson", 4)
    assert h.n_levels == 4
    assert [lv.A.shape[0] for lv in h.levels] == [1, 9, 49, 225]
    assert h.levels[-1].P_to_finer is None
    for i in range(h.n_levels - 1):
        P = h.levels[i].P_to_finer
        assert P.shape == (h.levels[i + 1].A.shape[0], h.levels[i].A.shape[0])
    assert h.coarsest_solver.dimension <= DENSE_LIMIT


def test_restriction_follows_a_replaced_prolongator():
    """Level.R is the transpose of the prolongator the level holds now.  It
    used to be kept from its first use, so after a cycle had run, a
    replaced P_to_finer prolongated with the new P but restricted with the
    old one's transpose, and the next V-cycle differed from that of a
    hierarchy built with the new P."""
    h = build_geometric("poisson", 4)
    fresh = build_geometric("poisson", 4)
    f = np.random.default_rng(3).standard_normal(h.finest.A.shape[0])
    apply_v_cycle(h, 4, f)
    P = as_csr(0.5 * h.level(3).P_to_finer)
    h.level(3).P_to_finer = P
    fresh.level(3).P_to_finer = P
    assert h.level(3).R.shape == (P.shape[1], P.shape[0])
    assert abs(h.level(3).R - P.T).max() == 0.0
    assert apply_v_cycle(h, 4, f).tobytes() == apply_v_cycle(fresh, 4, f).tobytes()
    assert h.finest.R is None


def test_build_geometric_levels_are_galerkin_consistent():
    h = build_geometric("poisson", 5)
    for k in range(2, h.n_levels + 1):
        P = h.level(k - 1).P_to_finer
        diff = abs(rap(P, h.level(k).A) - h.level(k - 1).A)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-12


@pytest.mark.parametrize("problem, k_max", [("poisson", 9), ("jump", 7)])
def test_geometric_levels_equal_galerkin_products(problem, k_max):
    # each level is assembled on its own mesh; the coefficient is constant
    # on every coarse element, so that is the Galerkin product of the finer
    # level: bit for bit for Poisson, to round-off for the jump coefficient,
    # whose products also store round-off SW-NE entries the stencil lacks
    h = build_geometric(problem, k_max)
    for k in range(1, h.n_levels):
        A, A_fine = h.level(k).A, h.level(k + 1).A
        G = rap(h.level(k).P_to_finer, A_fine)
        if problem == "poisson":
            for name in ("indptr", "indices", "data"):
                got, want = getattr(A, name), getattr(G, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)
        else:
            n_side = 2 ** h.mesh_levels[k - 1] - 1
            assert A.nnz == 5 * n_side ** 2 - 4 * n_side
            gap = abs(A - G)
            assert gap.max() <= 1e-13 * abs(A).max()


@pytest.mark.parametrize("build", [
    lambda: build_geometric("poisson", 6),
    lambda: build_geometric("jump", 6),
    lambda: build_ua_amg(assemble_poisson(7)[0]),
], ids=["poisson", "jump", "ua_poisson"])
def test_every_level_is_exactly_symmetric(build):
    # the builders check the finest matrix at most once (UA-AMG in its first
    # rap; geometric assembly writes each coupling into both entries) and
    # rely on every Galerkin product being exactly symmetric
    h = build()
    assert h.n_levels >= 4
    for lv in h.levels:
        assert symmetry_error(lv.A) == 0.0


def test_build_ua_amg_rejects_nonsymmetric_input():
    A = assemble_poisson(5)[0].tolil()
    A[0, 1] *= 1.5
    with pytest.raises(NonSPDError, match="not symmetric"):
        build_ua_amg(A.tocsr())


def test_jump_hierarchy_stops_at_resolvable_level():
    h = build_geometric("jump", 5)
    assert h.mesh_levels == [2, 3, 4, 5]
    assert h.level(1).A.shape == (9, 9)


def test_aggregate_diagonal_matrix_gives_singletons():
    D = sp.diags(np.arange(1.0, 7.0)).tocsr()
    agg = aggregate(D, theta=0.08)
    assert agg.n_aggregates == 6
    assert sorted(agg.assignment.tolist()) == list(range(6))


def test_aggregate_is_partition_and_snapshot():
    A, _ = assemble_poisson(3)
    agg = aggregate(A, theta=0.08)
    assert agg.assignment.shape == (49,)
    assert agg.assignment.min() == 0
    assert agg.assignment.max() == agg.n_aggregates - 1
    assert np.all(np.bincount(agg.assignment) > 0)
    assert agg.n_aggregates == POISSON_K3_THETA008_N_AGG


def test_aggregate_rejects_bad_input():
    B = sp.diags([0.0, 1.0]).tocsr()
    with pytest.raises(ValueError, match="diagonal"):
        aggregate(B)
    A, _ = assemble_poisson(2)
    with pytest.raises(ValueError, match="theta"):
        aggregate(A, theta=1.5)


@pytest.mark.parametrize("kwargs, named", [
    ({"theta": 1.5}, "theta"), ({"theta": -0.1}, "theta"),
    ({"min_coarse": 0}, "min_coarse"),
    ({"max_levels": 0}, "max_levels must be >= 1, got 0"),
])
def test_build_ua_amg_checks_coarsening_at_entry(kwargs, named):
    # 49 unknowns are below the default min_coarse, so no level would be
    # aggregated: the settings are checked before any coarsening
    A, _ = assemble_poisson(3)
    with pytest.raises(ValueError, match=named):
        build_ua_amg(A, **kwargs)


def test_build_ua_amg_rejects_coarsest_level_above_dense_limit(monkeypatch):
    """max_levels 1 at 16129 unknowns would leave a 16129-unknown coarsest
    level to factor densely; the build stops before binding a smoother."""
    def bind(*args):
        raise AssertionError("a smoother was bound")

    monkeypatch.setattr(mgbench.hierarchy, "bind", bind)
    A, _ = assemble_poisson(7)
    with pytest.raises(ValueError, match="16129 unknowns, above the dense limit 4096"):
        build_ua_amg(A, max_levels=1)


def test_nan_diagonal_is_rejected_by_index():
    # d <= 0 is False for a NaN, which would leave the node a singleton
    A = assemble_poisson(3)[0].tolil()
    A[24, 24] = np.nan
    A = A.tocsr()
    with pytest.raises(ValueError, match="diagonal entry at index 24$"):
        aggregate(A)
    with pytest.raises(ValueError, match="diagonal entry at index 24$"):
        build_ua_amg(A, min_coarse=2)


def loop_aggregate(A, theta=0.08):
    """Entry-by-entry reference for aggregate: the strength graph built row
    by row, then the same three greedy phases."""
    A = as_csr(A)
    n = A.shape[0]
    d = A.diagonal()
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
    return assignment, n_agg


def assert_aggregate_matches_loop(A, theta=0.08):
    agg = aggregate(A, theta)
    assignment, n_agg = loop_aggregate(A, theta)
    assert agg.n_aggregates == n_agg
    assert agg.assignment.dtype == assignment.dtype
    assert np.array_equal(agg.assignment, assignment)
    # a partition: every node is covered and the ids are exactly 0..n_agg-1
    assert np.array_equal(np.unique(agg.assignment), np.arange(n_agg))


@pytest.mark.parametrize("assemble,k", [(assemble_poisson, k) for k in range(2, 9)]
                         + [(assemble_jump, k) for k in range(3, 7)])
def test_aggregate_matches_loop_reference(assemble, k):
    assert_aggregate_matches_loop(assemble(k)[0])


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("assemble,k", [(assemble_poisson, 5), (assemble_jump, 5),
                                        (assemble_jump, 6)])
def test_aggregate_matches_loop_reference_across_theta(assemble, k, theta):
    assert_aggregate_matches_loop(assemble(k)[0], theta)


@pytest.mark.parametrize("theta", [0.0, 0.08, 0.25])
def test_aggregate_matches_loop_reference_on_permuted_poisson(theta):
    A, _ = assemble_poisson(5)
    perm = np.random.default_rng(5).permutation(A.shape[0])
    assert_aggregate_matches_loop(as_csr(A[perm][:, perm]), theta)


def test_aggregate_matches_loop_reference_on_ua_levels():
    h = build_ua_amg(assemble_poisson(8)[0])
    for lv in h.levels:
        assert_aggregate_matches_loop(lv.A)


@st.composite
def graph_laplacians(draw):
    """Weighted graph Laplacian plus a diagonal shift, on a grid graph with
    some edges dropped (isolated nodes become singletons), a few random
    edges added and the nodes renumbered.  Half the graphs take unit
    weights and one shift, so that couplings tie; the rows are sometimes
    scaled, which makes the strength graph unsymmetric."""
    nx, ny = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = nx * ny
    ties = draw(st.booleans())
    weight = st.just(1.0) if ties else st.floats(0.01, 10.0)
    grid = ([(i, i + 1) for i in range(n) if (i + 1) % nx]
            + [(i, i + nx) for i in range(n - nx)])
    kept = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    edges = [(i, j, draw(weight)) for (i, j), keep in zip(grid, kept) if keep]
    node = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(node, node, weight), max_size=n // 4))
    perm = draw(st.permutations(range(n)))
    W = np.zeros((n, n))
    for i, j, w in edges:
        if i != j:
            W[perm[i], perm[j]] += w
            W[perm[j], perm[i]] += w
    shift = draw(st.lists(st.floats(0.01, 5.0), min_size=1 if ties else n,
                          max_size=1 if ties else n))
    A = np.diag(W.sum(axis=1) + shift) - W
    if draw(st.booleans()):
        A *= np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                    max_size=n)))[:, None]
    return as_csr(sp.csr_matrix(A))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(A=graph_laplacians(), theta=st.sampled_from([0.0, 0.08, 0.25, 0.5]))
def test_aggregate_matches_loop_reference_on_generated_graphs(A, theta):
    assert_aggregate_matches_loop(A, theta)


def noncanonical_copy(A):
    """A as a CSR matrix with every row's entries in reverse column order
    and its diagonal split into two equal halves: unsorted, with duplicates."""
    indptr, indices, data = [0], [], []
    for i in range(A.shape[0]):
        span = slice(A.indptr[i], A.indptr[i + 1])
        for j, v in zip(A.indices[span][::-1], A.data[span][::-1]):
            parts = [v / 2, v / 2] if j == i else [v]
            indices += [j] * len(parts)
            data += parts
        indptr.append(len(indices))
    B = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)), shape=A.shape)
    assert not B.has_canonical_format
    return B


def test_aggregation_leaves_a_noncanonical_input_unchanged():
    N = noncanonical_copy(assemble_poisson(5)[0])
    before = [a.copy() for a in (N.indptr, N.indices, N.data)]
    canonical = as_csr(N.copy())
    agg, ref = aggregate(N), aggregate(canonical)
    assert agg.n_aggregates == ref.n_aggregates
    assert np.array_equal(agg.assignment, ref.assignment)
    h, h_ref = build_ua_amg(N), build_ua_amg(canonical)
    assert h.n_levels == h_ref.n_levels
    for lv, lv_ref in zip(h.levels, h_ref.levels):
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(lv.A, name), getattr(lv_ref.A, name))
    assert N.nnz == before[1].size
    for got, want in zip((N.indptr, N.indices, N.data), before):
        assert np.array_equal(got, want)


def test_piecewise_constant_prolongator_properties():
    A, _ = assemble_poisson(4)
    agg = aggregate(A)
    P = piecewise_constant_prolongator(agg, A.shape[0])
    assert np.all(P.getnnz(axis=1) == 1)              # one 1 per row
    assert np.all(P.data == 1.0)
    col_sums = np.asarray(P.sum(axis=0)).ravel()
    assert np.array_equal(col_sums, np.bincount(agg.assignment))


def coo_prolongator(agg, n_fine):
    """COO-built reference for piecewise_constant_prolongator."""
    return as_csr(sp.csr_matrix(
        (np.ones(n_fine), (np.arange(n_fine), agg.assignment)),
        shape=(n_fine, agg.n_aggregates)))


@pytest.mark.parametrize("make", [
    lambda: aggregate(assemble_poisson(6)[0]),
    lambda: aggregate(assemble_jump(5)[0], theta=0.25),
    lambda: aggregate(assemble_poisson(4)[0], theta=0.5),   # all singletons
    lambda: aggregate(sp.diags(np.arange(1.0, 4.0)).tocsr()),
    lambda: Aggregation(np.array([2, 0, 0, 1, 2, 3], dtype=np.int64), 4),
], ids=["poisson", "jump", "singletons", "diagonal", "by_hand"])
def test_piecewise_constant_prolongator_matches_coo_reference(make):
    agg = make()
    n = agg.assignment.size
    P, ref = piecewise_constant_prolongator(agg, n), coo_prolongator(agg, n)
    assert P.format == ref.format == "csr"
    assert P.shape == ref.shape
    assert P.has_canonical_format and ref.has_canonical_format
    assert_canonical_csr(P)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(P, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("ids", [[0, 2, 1], [0, -1, 1]])
def test_piecewise_constant_prolongator_rejects_out_of_range_ids(ids):
    with pytest.raises(ValueError, match="aggregate ids"):
        piecewise_constant_prolongator(Aggregation(np.array(ids), 2), 3)


def test_zero_row_sums_survive_aggregation_coarsening():
    # singular-consistent operator: 5-point without the boundary elimination
    n = 8
    lap = sp.lil_matrix((n * n, n * n))
    for j in range(n):
        for i in range(n):
            row = j * n + i
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < n and 0 <= jj < n:
                    lap[row, jj * n + ii] = -1.0
                    lap[row, row] += 1.0
    lap = lap.tocsr()
    agg = aggregate(lap + 1e-12 * sp.identity(n * n))
    P = piecewise_constant_prolongator(agg, n * n)
    coarse = rap(P, lap)
    assert np.abs(np.asarray(coarse.sum(axis=1))).max() <= 1e-12


def test_build_ua_amg_snapshot_and_properties():
    A, _ = assemble_poisson(6)
    h = build_ua_amg(A)
    assert [lv.A.shape[0] for lv in h.levels] == UA_POISSON_K6_LEVEL_SIZES
    assert h.levels[0].A.shape[0] <= 50
    # coarse matrices stay SPD: sampled quadratic-form positivity
    rng = np.random.default_rng(0)
    for lv in h.levels:
        for _ in range(10):
            v = rng.standard_normal(lv.A.shape[0])
            assert a_norm(lv.A, v) > 0.0


def test_build_ua_amg_reports_stagnation():
    # theta = 0.5 finds no strong couplings on the 5-point stencil, so every
    # node stays a singleton and coarsening cannot make progress
    A, _ = assemble_poisson(3)
    with pytest.raises(CoarseningStagnation, match="stagnated"):
        build_ua_amg(A, theta=0.5, min_coarse=10)


def test_hierarchy_report_mentions_complexity():
    h = build_geometric("poisson", 3)
    text = h.report()
    assert "operator complexity" in text
    assert "49" in text
