import numpy as np
import pytest

from mgbench import (CycleParams, a_norm, apply_amli, apply_amli_ns,
                     apply_amli_tilde, apply_amli_tilde_ns, apply_backslash,
                     apply_v_cycle, assemble_poisson, build_geometric,
                     stationary_solve)


@pytest.fixture(scope="module")
def h3():
    return build_geometric("poisson", 3)


def dense_operator(apply_fn, n):
    cols = [apply_fn(col) for col in np.eye(n)]
    return np.column_stack(cols)


def test_coarsest_level_solves_exactly(h3):
    f = np.array([3.5])
    for fn in (apply_backslash, apply_v_cycle):
        u = fn(h3, 1, f)
        assert np.linalg.norm(h3.level(1).A @ u - f) <= 1e-10 * np.linalg.norm(f)


@pytest.mark.parametrize("fn", [apply_backslash, apply_v_cycle])
def test_cycles_are_linear(h3, fn):
    rng = np.random.default_rng(0)
    n = h3.finest.A.shape[0]
    for _ in range(5):
        f, g = rng.standard_normal(n), rng.standard_normal(n)
        a, b = rng.standard_normal(2)
        lhs = fn(h3, 3, a * f + b * g)
        rhs = a * fn(h3, 3, f) + b * fn(h3, 3, g)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(rhs)


def test_two_level_error_propagation_identities():
    """Against the dense error-propagation oracle on the two-level k=2 build:
    I - B_ns A = (I - P A1^-1 P^t A)(I - R A) and
    I - B A = (I - R^t A)(I - P A1^-1 P^t A)(I - R A)."""
    h = build_geometric("poisson", 2)
    lv = h.level(2)
    A = lv.A.toarray()
    n = A.shape[0]
    P = h.level(1).P_to_finer.toarray()
    A1 = h.level(1).A.toarray()
    I = np.eye(n)
    S_pre = np.column_stack([col - lv.smoother.apply(A @ col) for col in I])
    S_post = np.column_stack([col - lv.smoother.apply_transpose(A @ col) for col in I])
    CGC = I - P @ np.linalg.solve(A1, P.T @ A)

    E_ns_oracle = CGC @ S_pre
    E_ns = I - dense_operator(lambda f: apply_backslash(h, 2, f), n) @ A
    assert np.abs(E_ns - E_ns_oracle).max() <= 1e-12

    E_v_oracle = S_post @ CGC @ S_pre
    E_v = I - dense_operator(lambda f: apply_v_cycle(h, 2, f), n) @ A
    assert np.abs(E_v - E_v_oracle).max() <= 1e-12


def test_two_level_backslash_matches_dense_evaluation():
    h = build_geometric("poisson", 2)
    lv = h.level(2)
    A = lv.A.toarray()
    P = h.level(1).P_to_finer.toarray()
    A1 = h.level(1).A.toarray()
    rng = np.random.default_rng(1)
    f = rng.standard_normal(A.shape[0])
    u1 = lv.smoother.apply(f)
    expect = u1 + P @ np.linalg.solve(A1, P.T @ (f - A @ u1))
    got = apply_backslash(h, 2, f)
    assert np.linalg.norm(got - expect) <= 1e-13 * np.linalg.norm(expect)


def test_v_cycle_operator_is_self_adjoint(h3):
    n = h3.finest.A.shape[0]
    B = dense_operator(lambda f: apply_v_cycle(h3, 3, f), n)
    assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()


def test_v_cycle_contracts_in_energy():
    rng = np.random.default_rng(2)
    for k in range(2, 9):
        h = build_geometric("poisson", k)
        A = h.finest.A
        count = 10 if k <= 6 else 3
        for _ in range(count):
            v = rng.standard_normal(A.shape[0])
            w = v - apply_v_cycle(h, k, A @ v)
            assert a_norm(A, w) < a_norm(A, v)


def test_poisson_k5_v_cycle_iteration_count():
    A, f = assemble_poisson(5)
    h = build_geometric("poisson", 5)
    report = stationary_solve(lambda r: apply_v_cycle(h, 5, r), A, f, tol=1e-6)
    assert report.converged
    assert abs(report.iterations - 9) <= 3


def test_level_out_of_range(h3):
    with pytest.raises(ValueError, match="level"):
        apply_v_cycle(h3, 4, np.zeros(49))
    params = CycleParams(n_inner=2)
    cycles = [apply_backslash, apply_v_cycle,
              lambda h, k, f: apply_amli_ns(h, k, f, params),
              lambda h, k, f: apply_amli(h, k, f, params),
              lambda h, k, f: apply_amli_tilde(h, k, f, params),
              lambda h, k, f: apply_amli_tilde_ns(h, k, f, params)]
    # a zero vector must not slip through an early exit on ||f|| = 0
    for fn in cycles:
        for f in (np.zeros(10), np.ones(10)):
            with pytest.raises(ValueError, match="dimension"):
                fn(h3, 3, f)
