import numpy as np
import pytest
import scipy.sparse as sp

from mgbench import (DenseFactorization, assemble_jump, assemble_poisson,
                     geometric_prolongator, rap, symmetry_error)
from mgbench.problems import _K_LOWER, _K_UPPER, load_vector


def five_point_stencil(k):
    """Independent 5-point oracle built from 1D second-difference blocks."""
    n = 2 ** k - 1
    T = sp.diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    off = sp.diags([-1.0, -1.0], [-n, n], shape=(n * n, n * n))
    return (sp.kron(sp.identity(n), T) + off).tocsr()


def unit_coefficient(x, y):
    return np.ones_like(x)


def jump_coefficient(low):
    """The jump coefficient, written out here rather than taken from the
    code under test: 1 on the open squares (1/4, 1/2)^2 and (1/2, 3/4)^2,
    low elsewhere."""
    def a(x, y):
        lower = (0.25 < x) & (x < 0.5) & (0.25 < y) & (y < 0.5)
        upper = (0.5 < x) & (x < 0.75) & (0.5 < y) & (y < 0.75)
        return np.where(lower | upper, 1.0, low)
    return a


def element_assembly(k, coefficient):
    """Element-by-element reference: every triangle's local stiffness as COO
    triplets on the full grid, duplicates summed by scipy, then the interior
    rows and columns sliced out.  Keeps the always-zero SW-NE couplings as
    stored zeros."""
    m = 2 ** k
    h = 2.0 ** -k
    n_full = (m + 1) * (m + 1)
    cx, cy = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
    cx = cx.ravel()
    cy = cy.ravel()
    sw = cy * (m + 1) + cx
    se = sw + 1
    ne = se + (m + 1)
    nw = sw + (m + 1)
    tri = np.empty((2 * m * m, 3), dtype=np.int64)
    tri[0::2] = np.column_stack([sw, se, ne])
    tri[1::2] = np.column_stack([sw, ne, nw])

    bary_x = np.empty(2 * m * m)
    bary_y = np.empty(2 * m * m)
    x0 = cx * h
    y0 = cy * h
    bary_x[0::2] = x0 + 2.0 * h / 3.0
    bary_y[0::2] = y0 + h / 3.0
    bary_x[1::2] = x0 + h / 3.0
    bary_y[1::2] = y0 + 2.0 * h / 3.0
    k_local = np.empty((2 * m * m, 3, 3))
    k_local[0::2] = _K_LOWER
    k_local[1::2] = _K_UPPER
    k_local *= coefficient(bary_x, bary_y)[:, None, None]

    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    A_full = sp.csr_matrix((k_local.ravel(), (rows, cols)), shape=(n_full, n_full))
    load_full = np.zeros(n_full)
    np.add.at(load_full, tri.ravel(), (h * h / 2.0) / 3.0)

    gx, gy = np.meshgrid(np.arange(1, m), np.arange(1, m), indexing="xy")
    interior = (gy * (m + 1) + gx).ravel()
    A = A_full[interior][:, interior]
    A.sort_indices()
    return A, load_full[interior]


def assert_canonical_csr(A):
    """Check the CSR arrays themselves, not the has_canonical_format flag,
    which a builder may set by hand: int32 indices and indptr, an indptr
    rising from 0 to nnz, strictly increasing columns within each row (so
    no duplicates) and no stored zeros."""
    assert A.format == "csr"
    assert A.indices.dtype == np.int32 and A.indptr.dtype == np.int32
    assert A.indptr.size == A.shape[0] + 1 and A.indptr[0] == 0
    assert np.all(np.diff(A.indptr) >= 0)
    assert A.indptr[-1] == A.indices.size == A.data.size
    starts = np.zeros(A.indices.size + 1, dtype=bool)
    starts[A.indptr] = True
    assert np.all((np.diff(A.indices) > 0) | starts[1:-1])
    assert np.all((A.indices >= 0) & (A.indices < A.shape[1]))
    assert np.all(A.data != 0.0)


def assert_five_point_pattern(A, k):
    n = (2 ** k - 1) ** 2
    assert_canonical_csr(A)
    assert A.nnz == 5 * n - 4 * (2 ** k - 1)


@pytest.mark.parametrize("k", range(1, 10))
def test_poisson_equals_element_assembly(k):
    A, f = assemble_poisson(k)
    ref, ref_f = element_assembly(k, unit_coefficient)
    assert ref.nnz - np.count_nonzero(ref.data) == 2 * (2 ** k - 2) ** 2
    ref.eliminate_zeros()
    assert_five_point_pattern(A, k)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    assert np.array_equal(A.data, ref.data)
    assert np.array_equal(f, ref_f)


@pytest.mark.parametrize("k", range(2, 10))
def test_jump_equals_element_assembly(k):
    A, f = assemble_jump(k)
    ref, _ = element_assembly(k, jump_coefficient(1e-6))
    ref.eliminate_zeros()
    assert_five_point_pattern(A, k)
    assert np.array_equal(A.indptr, ref.indptr)
    assert np.array_equal(A.indices, ref.indices)
    # the reference sums a node's six triangles in scipy's duplicate order,
    # which scipy leaves unspecified; where it differs from the assembly's,
    # diagonals at coefficient interfaces may differ by an ulp
    assert np.all(np.abs(A.data - ref.data) <= 5e-16 * np.abs(ref.data))
    assert not f.any()


def _broken(case):
    """A 3x3 CSR matrix with one defect, built from raw arrays."""
    data, indices, indptr = [2.0, -1.0, 2.0, 2.0], [0, 1, 1, 2], [0, 2, 3, 4]
    if case == "unsorted":
        indices = [1, 0, 1, 2]
    elif case == "duplicate":
        indices = [0, 0, 1, 2]
    elif case == "zero":
        data = [2.0, 0.0, 2.0, 2.0]
    A = sp.csr_matrix((np.array(data), np.array(indices, dtype=np.int32),
                       np.array(indptr, dtype=np.int32)), shape=(3, 3))
    if case == "int64":
        A.indices = A.indices.astype(np.int64)
        A.indptr = A.indptr.astype(np.int64)
    A.has_canonical_format = True      # the flag proves nothing
    return A


def test_canonical_check_reads_the_arrays():
    assert_canonical_csr(_broken("none"))
    for case in ("unsorted", "duplicate", "zero", "int64"):
        with pytest.raises(AssertionError):
            assert_canonical_csr(_broken(case))


def test_level_one_single_unknown():
    A, f = assemble_poisson(1)
    assert A.shape == (1, 1)
    assert A.toarray()[0, 0] == 4.0
    assert f[0] == pytest.approx(0.25)  # h^2 with h = 1/2


@pytest.mark.parametrize("k", [2, 3, 4])
def test_poisson_matches_stencil_oracle(k):
    A, f = assemble_poisson(k)
    assert (abs(A - five_point_stencil(k))).max() <= 1e-14
    assert np.allclose(f, (2.0 ** -k) ** 2)


def test_poisson_symmetric_and_interior_rows_sum_to_zero():
    A, _ = assemble_poisson(4)
    assert symmetry_error(A) == 0.0
    n = 2 ** 4 - 1
    sums = np.asarray(A.sum(axis=1)).ravel()
    for iy in range(2, n):
        for ix in range(2, n):
            assert sums[(iy - 1) * n + (ix - 1)] == pytest.approx(0.0, abs=1e-14)


def test_poisson_level_range():
    with pytest.raises(ValueError):
        assemble_poisson(0)
    with pytest.raises(ValueError):
        assemble_poisson(13)


def test_jump_with_unit_coefficient_equals_poisson():
    A, _ = assemble_jump(3, low=1.0)
    B, _ = assemble_poisson(3)
    assert (abs(A - B)).max() == 0.0


def test_jump_load_is_zero():
    for k in (2, 3, 5):
        _, f = assemble_jump(k)
        assert not f.any()


def test_load_vector_takes_matrix_names_only():
    # a --problem family such as ua_poisson is not a matrix name
    for problem, assemble in (("poisson", assemble_poisson), ("jump", assemble_jump)):
        assert np.array_equal(load_vector(problem, 3), assemble(3)[1])
    with pytest.raises(ValueError, match="'ua_poisson'"):
        load_vector("ua_poisson", 3)


def test_jump_rejects_unresolvable_level():
    with pytest.raises(ValueError, match="k >= 2"):
        assemble_jump(1)


@pytest.mark.parametrize("low", [-1.0, 0.0, float("nan"), float("inf")])
def test_jump_rejects_low_outside_zero_to_infinity(low):
    # a NaN or infinite low would fill most of the matrix with NaN or inf
    with pytest.raises(ValueError, match="low_value must be positive and finite"):
        assemble_jump(3, low=low)


def test_condition_grows_as_contrast_increases():
    conds = []
    for low in (1e-2, 1e-4, 1e-6):
        A, _ = assemble_jump(3, low=low)
        w = np.linalg.eigvalsh(A.toarray())
        conds.append(w[-1] / w[0])
    assert conds[0] < conds[1] < conds[2]


@pytest.mark.parametrize("problem,k", [("poisson", 6), ("jump", 6)])
def test_spd_up_to_level_six(problem, k):
    A = assemble_poisson(k)[0] if problem == "poisson" else assemble_jump(k)[0]
    DenseFactorization(A)  # Cholesky succeeds


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_galerkin_consistency_poisson(k):
    A_fine, _ = assemble_poisson(k)
    A_coarse, _ = assemble_poisson(k - 1)
    P = geometric_prolongator(k)
    assert (abs(rap(P, A_fine) - A_coarse)).max() <= 1e-12


@pytest.mark.parametrize("k", [3, 4, 5])
def test_galerkin_consistency_jump(k):
    # coarse level must still resolve the coefficient regions (k-1 >= 2)
    A_fine, _ = assemble_jump(k)
    A_coarse, _ = assemble_jump(k - 1)
    P = geometric_prolongator(k)
    assert (abs(rap(P, A_fine) - A_coarse)).max() <= 1e-12


def test_jump_matrix_reflects_with_coefficient_regions():
    # rotating the plane by 180 degrees about (1/2, 1/2) swaps the two
    # high-coefficient squares and maps the triangulation onto itself
    k = 4
    A, _ = assemble_jump(k)
    n = 2 ** k - 1
    idx = np.arange(n * n).reshape(n, n)
    perm = idx[::-1, ::-1].ravel()
    Ap = A[perm][:, perm]
    # assembly sums element contributions in a different order after the
    # permutation, so agreement is to rounding, not bitwise
    assert (abs(A - Ap)).max() <= 1e-14


def test_mesh_level_fields():
    # the mesh level is private to the assemblers; its sizes and range
    # errors show through both of them
    for assemble in (assemble_poisson, assemble_jump):
        A, f = assemble(3)
        assert A.shape == (49, 49) and f.shape == (49,)
        with pytest.raises(ValueError, match="level k must be in 1..12, got 13"):
            assemble(13)
    with pytest.raises(ValueError, match="level k must be in 1..12, got 0"):
        assemble_poisson(0)


def test_coefficient_field_values():
    # the six triangles around the level-4 node nearest each point lie in
    # the point's coefficient region, so that node's diagonal is 4 a(x, y)
    diag = assemble_jump(4, low=1e-6)[0].diagonal().reshape(15, 15)
    for x, y, a in ((0.3, 0.3, 1.0), (0.6, 0.6, 1.0), (0.1, 0.1, 1e-6),
                    (0.45, 0.70, 1e-6)):
        assert diag[round(16 * y) - 1, round(16 * x) - 1] == pytest.approx(4.0 * a)
