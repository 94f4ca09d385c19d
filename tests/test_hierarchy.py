import numpy as np
import pytest
import scipy.sparse as sp

from mgbench import (CoarseningStagnation, DENSE_LIMIT, aggregate, as_csr,
                     assemble_poisson, a_inner, build_geometric, build_ua_amg,
                     geometric_prolongator, piecewise_constant_prolongator,
                     rap)

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


def test_build_geometric_levels_are_galerkin_consistent():
    h = build_geometric("poisson", 5)
    for k in range(2, h.n_levels + 1):
        P = h.level(k - 1).P_to_finer
        diff = abs(rap(P, h.level(k).A) - h.level(k - 1).A)
        assert (diff.max() if diff.nnz else 0.0) <= 1e-12


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


def test_piecewise_constant_prolongator_properties():
    A, _ = assemble_poisson(4)
    agg = aggregate(A)
    P = piecewise_constant_prolongator(agg, A.shape[0])
    assert np.all(P.getnnz(axis=1) == 1)              # one 1 per row
    assert np.all(P.data == 1.0)
    col_sums = np.asarray(P.sum(axis=0)).ravel()
    assert np.array_equal(col_sums, np.bincount(agg.assignment))


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
            assert a_inner(lv.A, v, v) > 0.0


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
