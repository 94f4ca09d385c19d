import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular
from scipy.sparse.linalg import spsolve_triangular

from mgbench import (SmootherSpec, a_norm, as_csr, assemble_jump,
                     assemble_poisson, bind, build_geometric, build_ua_amg,
                     smoothers)

A22 = as_csr(sp.csr_matrix(np.array([[4.0, -1.0], [-1.0, 4.0]])))
GS = SmootherSpec("gs")


def test_gs_on_diagonal_matrix_is_exact():
    D = as_csr(sp.diags([2.0, 4.0, 8.0]).tocsr())
    f = np.array([2.0, 4.0, 8.0])
    assert np.allclose(bind(D, GS).apply(f), [1.0, 1.0, 1.0])


def test_jacobi_unit_weight_on_scaled_identity():
    A = as_csr(2.0 * sp.identity(2, format="csr"))
    spec = SmootherSpec("jacobi", weight=1.0)
    assert np.allclose(bind(A, spec).apply(np.array([2.0, 2.0])), [1.0, 1.0])


def test_forward_gs_hand_value():
    # (D+L) u = f: u0 = 4/4 = 1, u1 = (4 + 1)/4 = 1.25
    out = bind(A22, GS).apply(np.array([4.0, 4.0]))
    assert np.allclose(out, [1.0, 1.25])


def test_backward_gs_hand_value():
    out = bind(A22, GS).apply_transpose(np.array([4.0, 4.0]))
    assert np.allclose(out, [1.25, 1.0])


def test_jacobi_transpose_is_itself():
    A, _ = assemble_poisson(3)
    R = bind(A, SmootherSpec("jacobi", weight=0.7))
    f = np.random.default_rng(0).standard_normal(A.shape[0])
    assert np.array_equal(R.apply(f), R.apply_transpose(f))


@pytest.mark.parametrize("kind,weight", [("gs", 1.0), ("jacobi", 0.7),
                                         ("richardson", 1.0)])
def test_adjoint_pair_identity(kind, weight):
    A, _ = assemble_poisson(3)
    R = bind(A, SmootherSpec(kind, weight=weight))
    rng = np.random.default_rng(1)
    for _ in range(10):
        f, g = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
        lhs = np.dot(R.apply(f), g)
        rhs = np.dot(f, R.apply_transpose(g))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("kind,weight", [("gs", 1.0), ("jacobi", 0.7)])
def test_smoother_is_a_convergent(kind, weight):
    spec = SmootherSpec(kind, weight=weight)
    rng = np.random.default_rng(4)
    for k in (2, 3, 4, 5):
        A, _ = assemble_poisson(k)
        sm = bind(A, spec)
        for _ in range(25):
            v = rng.standard_normal(A.shape[0])
            assert a_norm(A, v - sm.apply(A @ v)) < a_norm(A, v)


def test_sweeps_compose_the_error_propagator():
    A, _ = assemble_poisson(3)
    one = bind(A, SmootherSpec("gs", sweeps=1))
    two = bind(A, SmootherSpec("gs", sweeps=2))
    rng = np.random.default_rng(5)
    v = rng.standard_normal(A.shape[0])
    e1 = v - one.apply(A @ v)
    e1 = e1 - one.apply(A @ e1)
    e2 = v - two.apply(A @ v)
    assert np.linalg.norm(e1 - e2) <= 1e-12 * np.linalg.norm(v)


def test_validation_errors():
    # the weight range is the spec's own rule, checked before any binding
    with pytest.raises(ValueError, match="weight"):
        SmootherSpec("jacobi", weight=2.5)
    with pytest.raises(ValueError, match="weight"):
        SmootherSpec("richardson", weight=-0.1)
    with pytest.raises(ValueError, match="gs takes no weight, got 2.5"):
        SmootherSpec("gs", weight=2.5)
    with pytest.raises(ValueError, match="kind"):
        SmootherSpec("sor")
    D = sp.diags([1.0, 0.0, 2.0]).tocsr()
    with pytest.raises(ValueError, match="diagonal"):
        bind(D, GS)
    with pytest.raises(ValueError, match="sweeps"):
        SmootherSpec("gs", sweeps=0)


# Gauss-Seidel on matrices whose diagonal varies from row to row: with a
# constant diagonal, scaling the triangle on the wrong side cannot show.

def dense_gs(A, f, sweeps, transpose):
    """s sweeps of (D+L)^-1, or of (D+U)^-1 if transpose, by dense solves."""
    Ad = A.toarray()
    T = np.triu(Ad) if transpose else np.tril(Ad)
    u = solve_triangular(T, f, lower=not transpose)
    for _ in range(sweeps - 1):
        u = u + solve_triangular(T, f - Ad @ u, lower=not transpose)
    return u


def check_gs_variable_diagonal(A, rng):
    for sweeps in (1, 2):
        sm = bind(A, SmootherSpec("gs", sweeps=sweeps))
        for _ in range(3):
            f, g = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
            for transpose, got in ((False, sm.apply(f)),
                                   (True, sm.apply_transpose(f))):
                ref = dense_gs(A, f, sweeps, transpose)
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            # (R f, g) = (f, R^t g); the two dot products can cancel, so
            # their rounding is bounded by the sums of |terms|, not by |lhs|
            a, b = sm.apply(f), sm.apply_transpose(g)
            lhs, rhs = np.dot(a, g), np.dot(f, b)
            scale = np.abs(a * g).sum() + np.abs(f * b).sum()
            assert abs(lhs - rhs) <= 1e-13 * scale


def test_gs_variable_diagonal_jump_matrix():
    A, _ = assemble_jump(4)    # 225 unknowns: the band path
    assert np.ptp(A.diagonal()) > 0.0
    assert bind(A, GS)._band is not None
    check_gs_variable_diagonal(A, np.random.default_rng(6))


def test_gs_variable_diagonal_jump_matrix_sparse_path(monkeypatch):
    A, _ = assemble_jump(5)    # 961 unknowns, on the sparse path
    monkeypatch.setattr(smoothers, "BAND_GS_LIMIT", 0)
    assert bind(A, GS)._band is None
    check_gs_variable_diagonal(A, np.random.default_rng(6))


def check_band_and_sparse_agree(A, monkeypatch, rng, vectors):
    """The band path, as bound, against the sparse one, bound with the
    limit set to 0."""
    n = A.shape[0]
    for sweeps in (1, 2):
        spec = SmootherSpec("gs", sweeps=sweeps)
        band = bind(A, spec)
        monkeypatch.setattr(smoothers, "BAND_GS_LIMIT", 0)
        sparse = bind(A, spec)
        monkeypatch.undo()
        assert band._band is not None and sparse._band is None
        for _ in range(vectors):
            f = rng.standard_normal(n)
            kept = f.copy()
            for got, ref in ((band.apply(f), sparse.apply(f)),
                             (band.apply_transpose(f), sparse.apply_transpose(f))):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(f, kept)


def test_gs_band_and_sparse_paths_agree_at_the_limit(monkeypatch):
    # the first 2048 rows of the k = 6 jump matrix have bandwidth 63, so
    # (bw + 1) n is the limit itself; one unknown more is the sparse path
    n = smoothers.BAND_GS_LIMIT // 64
    A = as_csr(assemble_jump(6)[0][:n, :n])    # principal submatrix: SPD
    assert smoothers._lower_bandwidth(A) == 63
    assert np.ptp(A.diagonal()) > 0.0
    check_band_and_sparse_agree(A, monkeypatch, np.random.default_rng(9), 3)
    B = as_csr(assemble_jump(6)[0][:n + 1, :n + 1])
    assert bind(B, GS)._band is None


def test_gs_zero_bandwidth_gives_f_over_d(monkeypatch):
    # the 1-unknown coarsest Poisson level and a diagonal matrix: both
    # sweeps on both paths are f/d exactly
    rng = np.random.default_rng(13)
    for A in (build_geometric("poisson", 3).levels[0].A,
              as_csr(sp.diags([2.0, 3.0, 7.0]).tocsr())):
        d = A.diagonal()
        f = rng.standard_normal(A.shape[0])
        band = bind(A, GS)
        monkeypatch.setattr(smoothers, "BAND_GS_LIMIT", 0)
        sparse = bind(A, GS)
        monkeypatch.undo()
        assert band._bw == 0 and sparse._band is None
        for sm in (band, sparse):
            assert np.array_equal(sm.apply(f), f / d)
            assert np.array_equal(sm.apply_transpose(f), f / d)


def test_gs_variable_diagonal_ua_coarse_level():
    h = build_ua_amg(assemble_poisson(5)[0])
    A = h.level(h.n_levels - 1).A
    assert np.ptp(A.diagonal()) > 0.0
    check_gs_variable_diagonal(A, np.random.default_rng(7))


@st.composite
def spd_m_matrices(draw):
    """Weighted graph Laplacian plus a positive diagonal shift."""
    n = draw(st.integers(2, 24))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.floats(0.1, 10.0)),
                          max_size=4 * n))
    shift = draw(st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n))
    W = np.zeros((n, n))
    for i, j, w in edges:
        if i != j:
            W[i, j] += w
            W[j, i] += w
    return as_csr(sp.csr_matrix(np.diag(W.sum(axis=1) + shift) - W))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(A=spd_m_matrices())
def test_gs_variable_diagonal_generated_m_matrix(A):
    check_gs_variable_diagonal(A, np.random.default_rng(8))


# The sparse sweep calls SuperLU's triangular solve directly, with D folded
# into the triangle's diagonal.  A scalar loop in SuperLU's own order is an
# exact reference; spsolve_triangular, which scales by D^-1 in a separate
# pass, agrees to round-off.

def tril_reference(A):
    """(D+L) D^-1 with D on its diagonal, through sp.tril: the reference for
    _unit_lower_csc."""
    d = A.diagonal()
    M = sp.tril(A, format="csc")
    M.data *= np.repeat(1.0 / d, np.diff(M.indptr))
    M.eliminate_zeros()
    M.setdiag(d)
    return M


def superlu_order_gs(A, f, sweeps, transpose):
    """s sweeps of the folded-triangle Gauss-Seidel by scalar loops that
    round as SuperLU's column-oriented solves do."""
    d = A.diagonal()
    M = tril_reference(A)
    cols = [(M.indices[M.indptr[j]:M.indptr[j + 1]],
             M.data[M.indptr[j]:M.indptr[j + 1]]) for j in range(A.shape[0])]

    def single(r):
        z = r.copy()
        if transpose:      # U^t y = r with U = D, then M^t x = y
            z /= d
            for j in reversed(range(len(cols))):
                for i, m in zip(*cols[j]):
                    if i > j:
                        z[j] -= z[i] * m
            return z
        for j, (rows, vals) in enumerate(cols):    # M z = r, then D x = z
            for i, m in zip(rows, vals):
                if i > j:
                    z[i] -= z[j] * m
        return z / d

    u = single(f)
    for _ in range(sweeps - 1):
        u = u + single(f - A @ u)
    return u


def spsolve_gs(A, f, sweeps, transpose):
    """s sweeps of Gauss-Seidel through spsolve_triangular."""
    T = sp.tril(A, format="csr")
    if transpose:
        T = T.T.tocsr()

    def single(r):
        return spsolve_triangular(T, r, lower=not transpose)

    u = single(f)
    for _ in range(sweeps - 1):
        u = u + single(f - A @ u)
    return u


def assert_unit_lower_matches_tril(A):
    got = smoothers._unit_lower_csc(A, A.diagonal())
    ref = tril_reference(A)
    assert type(got) is sp.csc_matrix
    assert np.array_equal(got.indptr, ref.indptr)
    assert np.array_equal(got.indices, ref.indices)
    assert got.data.tobytes() == ref.data.tobytes()


def test_unit_lower_matches_tril_on_workload_hierarchies():
    # every level of the benchmark's hierarchies: geometric Poisson k = 9,
    # UA-AMG on Poisson k = 8, and the k = 6 Poisson and jump hierarchies
    for h in (build_geometric("poisson", 9),
              build_ua_amg(assemble_poisson(8)[0]),
              build_geometric("poisson", 6), build_geometric("jump", 6)):
        for lv in h.levels:
            assert_unit_lower_matches_tril(lv.A)


@pytest.mark.parametrize("k", range(2, 8))
def test_unit_lower_matches_tril_on_jump_matrices(k):
    assert_unit_lower_matches_tril(assemble_jump(k)[0])


def reference_bands(A, bw):
    """The lower (D+L) and upper (D+L^t) bands of A read off its dense form."""
    Ad = np.tril(A.toarray())
    n = Ad.shape[0]
    lower, upper = np.zeros((bw + 1, n)), np.zeros((bw + 1, n))
    for i, j in zip(*np.nonzero(Ad)):
        lower[i - j, j] = Ad[i, j]
        upper[bw + j - i, i] = Ad[i, j]
    return lower, upper


def test_unit_lower_drops_zeros_and_keeps_input():
    # explicit zeros below the diagonal, an unsorted row and a duplicate
    A = sp.csr_matrix((np.array([4.0, 0.0, -1.0, 2.0, -1.0, 3.0, 0.0, 5.0, 1.0]),
                       np.array([0, 1, 2, 1, 0, 1, 0, 2, 1]),
                       np.array([0, 3, 5, 9])), shape=(3, 3))
    assert not A.has_canonical_format
    kept = (A.data.copy(), A.indices.copy(), A.indptr.copy())
    assert_unit_lower_matches_tril(A)
    # the band build sums the duplicate (2, 1) and sorts row 2; its explicit
    # zero at (2, 0) stays in the bandwidth
    sm = bind(A, GS)
    assert sm._bw == 2
    for got, ref in zip(sm._band, reference_bands(A, 2)):
        assert got.flags.f_contiguous
        assert np.array_equal(got, ref)
    assert all(np.array_equal(a, b) for a, b in
               zip((A.data, A.indices, A.indptr), kept))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(A=spd_m_matrices())
def test_unit_lower_matches_tril_on_generated_m_matrices(A):
    assert_unit_lower_matches_tril(A)


def check_sparse_gs_exact(A, rng):
    for sweeps in (1, 2):
        sm = bind(A, SmootherSpec("gs", sweeps=sweeps))
        assert sm._band is None
        for _ in range(2):
            f = rng.standard_normal(A.shape[0])
            kept = f.copy()
            for transpose, got in ((False, sm.apply(f)),
                                   (True, sm.apply_transpose(f))):
                assert np.array_equal(got, superlu_order_gs(A, f, sweeps, transpose))
                ref = spsolve_gs(A, f, sweeps, transpose)
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)
            assert np.array_equal(f, kept)


def test_sparse_gs_equals_spsolve_triangular_jump_matrix():
    A, _ = assemble_jump(6)    # 3969 unknowns
    check_sparse_gs_exact(A, np.random.default_rng(10))


def test_sparse_gs_equals_spsolve_triangular_ua_level():
    h = build_ua_amg(assemble_poisson(8)[0])
    A = next(h.level(k).A for k in range(1, h.n_levels + 1)
             if h.level(k).A.shape[0] == 10943)
    assert np.ptp(A.diagonal()) > 0.0
    check_sparse_gs_exact(A, np.random.default_rng(11))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(A=spd_m_matrices())
def test_sparse_gs_equals_spsolve_triangular_generated_m_matrix(A):
    with pytest.MonkeyPatch.context() as mp:
        check_band_and_sparse_agree(A, mp, np.random.default_rng(12), 2)
        mp.setattr(smoothers, "BAND_GS_LIMIT", 0)
        check_sparse_gs_exact(A, np.random.default_rng(12))


def test_sparse_gs_rejects_wrong_length():
    A, _ = assemble_jump(6)
    sm = bind(A, GS)
    assert sm._band is None
    for n in (A.shape[0] - 1, A.shape[0] + 1):
        for sweep in (sm.apply, sm.apply_transpose):
            with pytest.raises(ValueError):
                sweep(np.ones(n))


@pytest.mark.parametrize("k,spec,band", [(3, GS, True), (6, GS, False),
                                         (3, SmootherSpec("jacobi", 0.8), None),
                                         (3, SmootherSpec("richardson", 0.8), None),
                                         (3, SmootherSpec("gs", sweeps=2), True)])
def test_smoother_rejects_wrong_length(k, spec, band):
    # band GS (49 unknowns), sparse GS (3969), Jacobi, Richardson and two
    # band GS sweeps; each
    # wrong length used to broadcast or fail inside BLAS, and an n x s
    # block used to be scaled along the wrong axis, silently, or to fail
    # in a numpy broadcast.  The message is linalg._vector's, as in the
    # cycles and run_pcg
    A, _ = assemble_poisson(k)
    sm = bind(A, spec)
    n = A.shape[0]
    if band is not None:
        assert (sm._band is not None) == band
    wrong = [((m,), r"\bmatrix is %d, smoother input has length %d$" % (n, m))
             for m in (1, n - 1, n + 1)]
    wrong += [(shape, r"\bmatrix is %d, smoother input has shape %s, not a "
                      r"vector$" % (n, re.escape(str(shape))))
              for shape in ((n, 1), (n, 2), (2, n), ())]
    for shape, message in wrong:
        for method in (sm.apply, sm.apply_transpose):
            with pytest.raises(ValueError, match=message):
                method(np.ones(shape))


def test_apply_returns_an_array_apart_from_its_input(monkeypatch):
    # the cycles add into what apply and apply_transpose return, so no path
    # may hand back its input or a view of it: band and sparse Gauss-Seidel,
    # Jacobi and Richardson, with 1 and 2 sweeps
    A, _ = assemble_poisson(5)     # 961 unknowns, on the band path
    f = np.random.default_rng(21).standard_normal(A.shape[0])
    kept = f.copy()
    bound = []
    for sweeps in (1, 2):
        bound += [bind(A, SmootherSpec("gs", sweeps=sweeps)),
                  bind(A, SmootherSpec("jacobi", 0.8, sweeps)),
                  bind(A, SmootherSpec("richardson", 1.0, sweeps))]
        monkeypatch.setattr(smoothers, "BAND_GS_LIMIT", 0)
        bound.append(bind(A, SmootherSpec("gs", sweeps=sweeps)))
        monkeypatch.undo()
    assert [sm._band is None for sm in bound if sm.spec.kind == "gs"] \
        == [False, True, False, True]
    for sm in bound:
        out = [sm.apply(f), sm.apply_transpose(f)]
        for u in out:
            assert not np.shares_memory(u, f)
        assert not np.shares_memory(*out)
        assert np.array_equal(f, kept)
