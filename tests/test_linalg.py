import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from mgbench import (DenseFactorization, NonSPDError, a_norm, as_csr,
                     assemble_poisson, linalg, rap, spectral_radius, spmv,
                     symmetry_error)

RNG = np.random.default_rng(20240501)

A22 = as_csr(sp.csr_matrix(np.array([[4.0, -1.0], [-1.0, 4.0]])))


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return as_csr(sp.csr_matrix(M @ M.T + n * np.eye(n)))


def test_spmv_identity():
    I = as_csr(sp.identity(3, format="csr"))
    assert np.array_equal(spmv(I, np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])


def test_spmv_zero_matrix():
    Z = as_csr(sp.csr_matrix((3, 3)))
    assert np.array_equal(spmv(Z, np.arange(3.0)), np.zeros(3))


def test_spmv_hand_2x2():
    assert np.array_equal(spmv(A22, np.array([1.0, 1.0])), [3.0, 3.0])


def test_spmv_dimension_mismatch_names_both_lengths():
    with pytest.raises(ValueError, match="2.*3|3.*2"):
        spmv(A22, np.zeros(3))


# spmv calls scipy's csr_matvec/csc_matvec directly for float64 CSR/CSC
# matrices and 1-D float64 vectors, and falls back to A @ x otherwise.  The
# kernels are replaced by counting (or failing) wrappers to see which path
# a call took.

def spy_kernels(monkeypatch, allowed):
    calls = []

    def wrap(cls, kernel):
        def spy(*args):
            assert allowed, "fast path taken for a fallback operand"
            calls.append(cls)
            return kernel(*args)
        return spy
    monkeypatch.setattr(linalg, "_MATVEC", {
        cls: wrap(cls, kernel) for cls, kernel in linalg._MATVEC.items()})
    return calls


def sparse_with_empty_rows_and_columns(fmt, index_dtype):
    rng = np.random.default_rng(3)
    D = rng.standard_normal((7, 5))
    D[np.abs(D) < 0.6] = 0.0
    D[[1, 4], :] = 0.0      # empty rows
    D[:, [0, 3]] = 0.0      # empty columns
    A = sp.csr_matrix(D) if fmt == "csr" else sp.csc_matrix(D)
    A.indices = A.indices.astype(index_dtype)
    A.indptr = A.indptr.astype(index_dtype)
    return A


@pytest.mark.parametrize("fmt", ["csr", "csc"])
@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
def test_spmv_fast_path_is_bit_identical_to_matmul(monkeypatch, fmt, index_dtype):
    A = sparse_with_empty_rows_and_columns(fmt, index_dtype)
    assert A.indices.dtype == index_dtype and A.indptr.dtype == index_dtype
    rng = np.random.default_rng(4)
    contiguous = rng.standard_normal(5)
    strided = rng.standard_normal(15)[::3]
    assert not strided.flags.c_contiguous
    calls = spy_kernels(monkeypatch, allowed=True)
    bound = linalg._bound_matvec(A)
    for x in (contiguous, strided):
        ref = A @ x
        for got in (spmv(A, x), bound(x)):
            assert got.dtype == ref.dtype == np.float64 and got.shape == (7,)
            assert got.tobytes() == ref.tobytes()
            assert got[1] == got[4] == 0.0
    assert calls == [type(A)] * 4


class MatmulOnly:
    """Has __matmul__ but no shape, like the benchmark's transpose proxy."""

    def __init__(self, A):
        self._A = A

    def __matmul__(self, x):
        return ("via matmul", self._A @ x)


@pytest.mark.parametrize("make", [
    lambda A, x: (A.toarray(), x),                          # dense ndarray
    lambda A, x: (sp.csr_matrix(A.toarray().astype(np.int64)), x),
    lambda A, x: (sp.csr_matrix(A.toarray() * (1 + 1j)), x),
    lambda A, x: (A, np.stack([x, 2 * x], axis=1)),         # 2-D x
    lambda A, x: (A, x.astype(np.float32)),
    lambda A, x: (A, list(x)),
    lambda A, x: (sp.csr_array(A), x),                      # not exactly csr_matrix
    lambda A, x: (MatmulOnly(A), x),
], ids=["dense", "int64-data", "complex-data", "2d-x", "float32-x", "list-x",
        "csr_array", "matmul-only"])
def test_spmv_falls_back_to_matmul(monkeypatch, make):
    A, x = make(sparse_with_empty_rows_and_columns("csr", np.int32),
                np.random.default_rng(6).standard_normal(5))
    spy_kernels(monkeypatch, allowed=False)
    ref = A @ x
    results = [spmv(A, x)]
    if not (type(A) is sp.csr_matrix and A.dtype == np.float64):
        # the bound matvec takes only 1-D float vectors; its fallback is
        # chosen by the operand alone
        results.append(linalg._bound_matvec(A)(x))
    for got in results:
        if isinstance(A, MatmulOnly):
            assert got[0] == "via matmul" and np.array_equal(got[1], ref[1])
        else:
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_spmv_fast_path_length_mismatch_names_both_lengths(fmt):
    A = sparse_with_empty_rows_and_columns(fmt, np.int32)
    for m in (4, 6):
        with pytest.raises(ValueError, match=r"\b5 columns, vector has length %d\b" % m):
            spmv(A, np.ones(m))


def test_spmv_is_linear():
    rng = np.random.default_rng(7)
    A = random_spd(20, rng)
    x, y = rng.standard_normal(20), rng.standard_normal(20)
    a, b = rng.standard_normal(2)
    lhs = spmv(A, a * x + b * y)
    rhs = a * spmv(A, x) + b * spmv(A, y)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_a_norm_zero_and_hand_value():
    assert a_norm(A22, np.zeros(2)) == 0.0
    assert a_norm(A22, np.array([1.0, 0.0])) == 2.0


def test_a_norm_rejects_non_spd():
    B = as_csr(sp.csr_matrix(np.array([[-4.0, 0.0], [0.0, -4.0]])))
    with pytest.raises(NonSPDError):
        a_norm(B, np.array([1.0, 2.0]))


def test_a_inner_positivity_random_spd():
    rng = np.random.default_rng(3)
    A = random_spd(30, rng)
    rho = spectral_radius(A)
    for _ in range(20):
        x = rng.standard_normal(30)
        q = a_norm(A, x) ** 2
        assert q >= -1e-12 * np.dot(x, x) * rho
        assert (a_norm(A, x) == 0.0) == (not x.any())


def test_rap_identity():
    A = random_spd(10, np.random.default_rng(4))
    I = as_csr(sp.identity(10, format="csr"))
    assert (rap(I, A) - A).nnz == 0 or abs((rap(I, A) - A)).max() == 0.0


def test_rap_all_ones_column():
    A = random_spd(6, np.random.default_rng(5))
    ones = as_csr(sp.csr_matrix(np.ones((6, 1))))
    out = rap(ones, A)
    assert out.shape == (1, 1)
    assert out.toarray()[0, 0] == pytest.approx(A.toarray().sum(), rel=1e-14)


def test_rap_symmetric_and_spd():
    rng = np.random.default_rng(6)
    A = random_spd(12, rng)
    P = as_csr(sp.csr_matrix(rng.standard_normal((12, 5))))
    B = rap(P, A)
    assert symmetry_error(B) == 0.0
    DenseFactorization(B)  # Cholesky succeeds => SPD


def test_rap_rejects_empty_column():
    A = random_spd(4, np.random.default_rng(8))
    P = as_csr(sp.csr_matrix(([1.0, 1.0], ([0, 1], [0, 0])), shape=(4, 2)))
    with pytest.raises(ValueError, match="empty aggregate"):
        rap(P, A)


def test_rap_dimension_mismatch():
    A = random_spd(4, np.random.default_rng(9))
    P = as_csr(sp.csr_matrix(np.ones((3, 2))))
    with pytest.raises(ValueError):
        rap(P, A)


def test_dense_solve_simple():
    A = as_csr(2.0 * sp.identity(2, format="csr"))
    assert np.allclose(DenseFactorization(A).solve(np.array([2.0, 4.0])), [1.0, 2.0])
    assert np.array_equal(DenseFactorization(A).solve(np.zeros(2)), np.zeros(2))


def test_dense_solve_poisson_residual():
    A, _ = assemble_poisson(2)
    f = np.ones(A.shape[0])
    u = DenseFactorization(A).solve(f)
    assert np.linalg.norm(A @ u - f) < 1e-12 * np.linalg.norm(f)


def test_dense_solve_roundtrip_random():
    rng = np.random.default_rng(10)
    for n in (5, 40, 100):
        A = random_spd(n, rng)
        x = rng.standard_normal(n)
        out = DenseFactorization(A).solve(spmv(A, x))
        assert np.linalg.norm(out - x) <= 1e-10 * np.linalg.norm(x)


def test_dense_solve_matches_cho_solve_refinement_bit_for_bit():
    """solve is one cho_solve plus one refinement step whose residual is
    f - A @ u; calling potrs and ndarray.dot directly changes no bit."""
    rng = np.random.default_rng(14)
    for n in (1, 9, 49, 120):
        A = random_spd(n, rng)
        F = DenseFactorization(A)
        dense = A.toarray()
        factor = sla.cho_factor(dense)
        for _ in range(5):
            f = rng.standard_normal(n)
            u = sla.cho_solve(factor, f)
            ref = u + sla.cho_solve(factor, f - dense @ u)
            assert F.solve(f).tobytes() == ref.tobytes()


def test_dense_solve_rejects_non_spd():
    B = as_csr(sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]])))
    with pytest.raises(NonSPDError):
        DenseFactorization(B)


def test_dense_factorization_applies_to_identity():
    A = random_spd(60, np.random.default_rng(11))
    F = DenseFactorization(A)
    v = np.random.default_rng(12).standard_normal(60)
    assert np.linalg.norm(A @ F.solve(v) - v) <= 1e-12 * np.linalg.norm(v)


def test_dense_solve_returns_an_array_apart_from_its_input():
    # the cycles hand the coarsest solve's result on as their own, to be
    # added into: it must not be f, even where A^-1 f equals f
    rng = np.random.default_rng(13)
    for A in (as_csr(sp.identity(6, format="csr")), random_spd(6, rng)):
        for f in (rng.standard_normal(6), rng.standard_normal(12)[::2]):
            kept = f.copy()
            u = DenseFactorization(A).solve(f)
            assert not np.shares_memory(u, f)
            assert np.array_equal(f, kept)


def test_spectral_radius_diagonal():
    D = as_csr(sp.diags([1.0, 2.0, 5.0]).tocsr())
    assert spectral_radius(D) == pytest.approx(5.0, abs=1e-6)
    I = as_csr(sp.identity(8, format="csr"))
    assert spectral_radius(I) == pytest.approx(1.0, rel=1e-10)


def test_spectral_radius_poisson_vs_dense_eig():
    A, _ = assemble_poisson(3)
    exact = np.linalg.eigvalsh(A.toarray()).max()
    assert spectral_radius(A) == pytest.approx(exact, rel=1e-6)


def test_symmetry_flag_tolerance():
    A, _ = assemble_poisson(3)
    assert symmetry_error(A) <= 1e-14 * np.abs(A.data).max()


def test_as_csr_copies_a_noncanonical_csr_input():
    # row 0 unsorted, row 1 holds a duplicate (1, 1)
    A = sp.csr_matrix((np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                       np.array([1, 0, 0, 1, 1]), np.array([0, 2, 5])), shape=(2, 2))
    B = as_csr(A)
    assert B.has_canonical_format
    assert np.array_equal(B.toarray(), [[2.0, 1.0], [3.0, 9.0]])
    assert A.nnz == 5
    assert np.array_equal(A.indices, [1, 0, 0, 1, 1])
    assert np.array_equal(A.data, [1.0, 2.0, 3.0, 4.0, 5.0])


def test_as_csr_shares_a_canonical_csr_input():
    A, _ = assemble_poisson(3)
    B = as_csr(A)
    assert np.shares_memory(B.data, A.data)
    assert np.shares_memory(B.indices, A.indices)
    # a canonical csr_matrix comes back itself, with its cached format flag;
    # other canonical inputs come back as a new csr_matrix
    assert B is A
    for other in (sp.csr_array(A), A.tocoo()):
        C = as_csr(other)
        assert type(C) is sp.csr_matrix and C is not other
        assert C.has_canonical_format and (C != A).nnz == 0
