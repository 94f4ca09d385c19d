import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_triangular

from mgbench import (SmootherSpec, a_norm, as_csr, assemble_jump,
                     assemble_poisson, bind, build_ua_amg, composite_tilde,
                     measure_smoothing_constant, smooth, smooth_transpose,
                     spectral_radius)

A22 = as_csr(sp.csr_matrix(np.array([[4.0, -1.0], [-1.0, 4.0]])))
GS = SmootherSpec("gs")


def test_gs_on_diagonal_matrix_is_exact():
    D = as_csr(sp.diags([2.0, 4.0, 8.0]).tocsr())
    f = np.array([2.0, 4.0, 8.0])
    assert np.allclose(smooth(D, GS, f), [1.0, 1.0, 1.0])


def test_jacobi_unit_weight_on_scaled_identity():
    A = as_csr(2.0 * sp.identity(2, format="csr"))
    spec = SmootherSpec("jacobi", weight=1.0)
    assert np.allclose(smooth(A, spec, np.array([2.0, 2.0])), [1.0, 1.0])


def test_forward_gs_hand_value():
    # (D+L) u = f: u0 = 4/4 = 1, u1 = (4 + 1)/4 = 1.25
    out = smooth(A22, GS, np.array([4.0, 4.0]))
    assert np.allclose(out, [1.0, 1.25])


def test_backward_gs_hand_value():
    out = smooth_transpose(A22, GS, np.array([4.0, 4.0]))
    assert np.allclose(out, [1.25, 1.0])


def test_jacobi_transpose_is_itself():
    A, _ = assemble_poisson(3)
    spec = SmootherSpec("jacobi", weight=0.7)
    f = np.random.default_rng(0).standard_normal(A.shape[0])
    assert np.array_equal(smooth(A, spec, f), smooth_transpose(A, spec, f))


@pytest.mark.parametrize("kind,weight", [("gs", 1.0), ("jacobi", 0.7),
                                         ("richardson", 1.0)])
def test_adjoint_pair_identity(kind, weight):
    A, _ = assemble_poisson(3)
    spec = SmootherSpec(kind, weight=weight)
    rng = np.random.default_rng(1)
    for _ in range(10):
        f, g = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
        lhs = np.dot(smooth(A, spec, f), g)
        rhs = np.dot(f, smooth_transpose(A, spec, g))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_composite_on_scaled_identity():
    # A = 2I, Jacobi w=1: Rt_comp = R + R^t - R A R^t = I/2
    A = as_csr(2.0 * sp.identity(3, format="csr"))
    spec = SmootherSpec("jacobi", weight=1.0)
    v = np.array([2.0, -4.0, 6.0])
    assert np.allclose(composite_tilde(A, spec, v), v / 2.0)


@pytest.mark.parametrize("kind", ["gs", "jacobi"])
def test_composite_matches_error_propagator_definition(kind):
    A, _ = assemble_poisson(3)
    spec = SmootherSpec(kind, weight=0.7)
    sm = bind(A, spec)
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = rng.standard_normal(A.shape[0])
        w = v - sm.apply_transpose(A @ v)
        rhs = w - sm.apply(A @ w)              # (I - RA)(I - R^t A) v
        lhs = v - sm.composite(A @ v)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(v)


def test_composite_is_self_adjoint_and_positive():
    A, _ = assemble_poisson(3)
    sm = bind(A, GS)
    rng = np.random.default_rng(3)
    for _ in range(10):
        v, w = rng.standard_normal(A.shape[0]), rng.standard_normal(A.shape[0])
        lhs = np.dot(sm.composite(v), w)
        rhs = np.dot(v, sm.composite(w))
        assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))
        assert np.dot(sm.composite(v), v) > 0.0


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


def test_measure_constant_positive_for_richardson():
    A, _ = assemble_poisson(3)
    c2 = measure_smoothing_constant(A, SmootherSpec("richardson", 1.0))
    assert c2 > 0.0


def test_measure_constant_close_to_dense_oracle():
    A, _ = assemble_poisson(3)
    n = A.shape[0]
    sm = bind(A, GS)
    comp = np.column_stack([sm.composite(col) for col in np.eye(n)])
    lam_min = np.linalg.eigvalsh((comp + comp.T) / 2.0).min()
    oracle = spectral_radius(A) * lam_min
    measured = measure_smoothing_constant(A, GS)
    assert measured == pytest.approx(oracle, rel=0.10)


def test_measure_constant_stable_across_levels():
    vals = [measure_smoothing_constant(assemble_poisson(k)[0], GS)
            for k in (3, 4, 5, 6)]
    assert max(vals) / min(vals) < 1.5


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
    A, _ = assemble_poisson(2)
    with pytest.raises(ValueError, match="weight"):
        bind(A, SmootherSpec("jacobi", weight=2.5))
    with pytest.raises(ValueError, match="weight"):
        bind(A, SmootherSpec("richardson", weight=-0.1))
    with pytest.raises(ValueError, match="kind"):
        SmootherSpec("sor")
    D = sp.diags([1.0, 0.0, 2.0]).tocsr()
    with pytest.raises(ValueError, match="diagonal"):
        bind(D, GS)
    with pytest.raises(ValueError, match="sweeps"):
        SmootherSpec("gs", sweeps=0)


def test_alias_accepted():
    assert SmootherSpec("forward_gauss_seidel").kind == "gs"


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
            lhs = np.dot(sm.apply(f), g)
            rhs = np.dot(f, sm.apply_transpose(g))
            assert abs(lhs - rhs) <= 1e-13 * max(abs(lhs), abs(rhs))


def test_gs_variable_diagonal_jump_matrix():
    A, _ = assemble_jump(4)
    assert np.ptp(A.diagonal()) > 0.0
    check_gs_variable_diagonal(A, np.random.default_rng(6))


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
