import numpy as np
import pytest
import scipy.sparse as sp

from mgbench import (CycleParams, DenseFactorization, PCGBreakdownError,
                     a_norm, apply_amli, apply_amli_ns, apply_amli_tilde,
                     apply_backslash, apply_v_cycle,
                     as_csr, assemble_poisson, build_geometric, nonlinear_pcg,
                     required_n, run_pcg, stationary_solve)

P1 = CycleParams(n_inner=1)
P2 = CycleParams(n_inner=2)


@pytest.fixture(scope="module")
def h4():
    return build_geometric("poisson", 4)


def random_spd(n, rng):
    M = rng.standard_normal((n, n))
    return as_csr(sp.csr_matrix(M @ M.T + n * np.eye(n)))


def test_one_step_is_scaled_preconditioner_output(h4):
    """With n_inner = 1 the PCG output is alpha * precond(f) with
    alpha = (precond(f), f) / ||precond(f)||_A^2."""
    A = h4.finest.A
    rng = np.random.default_rng(0)
    precond = lambda g: apply_amli(h4, 4, g, P1)
    for _ in range(10):
        f = rng.standard_normal(A.shape[0])
        bf = precond(f)
        alpha = np.dot(bf, f) / np.dot(A @ bf, bf)
        out = nonlinear_pcg(A, precond, f, P1)
        assert np.linalg.norm(out - alpha * bf) <= 1e-13 * np.linalg.norm(out)


def test_exact_preconditioner_converges_in_one_step():
    rng = np.random.default_rng(1)
    A = random_spd(12, rng)
    F = DenseFactorization(A)
    f = rng.standard_normal(12)
    state = run_pcg(A, F.solve, f, P1)
    assert np.linalg.norm(f - A @ state.iterate) <= 1e-10 * np.linalg.norm(f)
    assert np.linalg.norm(state.residual) <= 1e-10 * np.linalg.norm(f)


def test_zero_rhs_returns_zero(h4):
    A = h4.finest.A
    out = nonlinear_pcg(A, lambda g: apply_amli(h4, 4, g, P2), np.zeros(A.shape[0]), P2)
    assert not out.any()
    assert not apply_amli_tilde(h4, 4, np.zeros(A.shape[0]), P2).any()


def test_breakdown_on_zero_preconditioner():
    A = as_csr(sp.identity(4, format="csr"))
    with pytest.raises(PCGBreakdownError, match="zero-energy"):
        nonlinear_pcg(A, lambda g: np.zeros_like(g), np.ones(4), P1)


def test_two_level_amli_equals_v_cycle():
    """With an exact coarse solve the single PCG step is exact (alpha = 1),
    so the two-level AMLI and V-cycle coincide."""
    h = build_geometric("poisson", 2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.standard_normal(9)
        a = apply_amli(h, 2, f, P1)
        b = apply_v_cycle(h, 2, f)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


def test_pcg_direction_and_residual_orthogonality(h4):
    A = h4.finest.A
    rng = np.random.default_rng(3)
    params = CycleParams(n_inner=4)
    for _ in range(10):
        f = rng.standard_normal(A.shape[0])
        state = run_pcg(A, lambda g: apply_amli(h4, 4, g, params), f, params)
        dirs = state.directions
        for i in range(len(dirs)):
            p_i, Ap_i, e_i = dirs[i]
            for j in range(i):
                p_j, _, e_j = dirs[j]
                val = abs(np.dot(Ap_i, p_j)) / np.sqrt(e_i * e_j)
                assert val <= 1e-10
        for i in range(1, len(state.residuals)):
            r = state.residuals[i]
            for j in range(i):
                p_j, _, e_j = dirs[j]
                bound = 1e-10 * np.linalg.norm(r) * np.linalg.norm(p_j)
                assert abs(np.dot(r, p_j)) <= max(bound, 1e-13)


def test_residual_decreases_monotonically_in_inverse_norm(h4):
    A = h4.finest.A
    F = DenseFactorization(A)
    rng = np.random.default_rng(4)
    params = CycleParams(n_inner=4)
    for _ in range(5):
        f = rng.standard_normal(A.shape[0])
        state = run_pcg(A, lambda g: apply_amli(h4, 4, g, params), f, params)
        norms = [np.dot(F.solve(r), r) for r in state.residuals]
        for a, b in zip(norms, norms[1:]):
            assert b <= a + 1e-12 * max(a, 1.0)


def test_tilde_improves_on_hat(h4):
    """The PCG wrap never worsens the preconditioner in the energy norm."""
    A = h4.finest.A
    rng = np.random.default_rng(5)
    for params in (P1, P2):
        for _ in range(20):
            v = rng.standard_normal(A.shape[0])
            Av = A @ v
            e_tilde = a_norm(A, v - apply_amli_tilde(h4, 4, Av, params))
            e_hat = a_norm(A, v - apply_amli(h4, 4, Av, params))
            assert e_tilde <= e_hat * (1.0 + 1e-12)


def test_nonsymmetric_amli_not_worse_than_backslash(h4):
    A = h4.finest.A
    rng = np.random.default_rng(6)
    for _ in range(50):
        v = rng.standard_normal(A.shape[0])
        Av = A @ v
        lhs = a_norm(A, v - apply_amli_ns(h4, 4, Av, P1))
        rhs = a_norm(A, v - apply_backslash(h4, 4, Av))
        assert lhs <= rhs + 1e-12 * a_norm(A, v)


def test_key_identity_full_version(h4):
    """||v - Bt[Av]||_A^2 equals (v - Bt[Av], v)_A for the full PCG."""
    A = h4.finest.A
    rng = np.random.default_rng(7)
    for params in (P1, P2):
        for _ in range(20):
            v = rng.standard_normal(A.shape[0])
            e = v - apply_amli_tilde(h4, 4, A @ v, params)
            lhs = a_norm(A, e) ** 2
            rhs = np.dot(A @ e, v)
            # gap normalized by the input energy, the scale the two forms
            # are computed at in floating point
            assert abs(lhs - rhs) <= 1e-10 * a_norm(A, v) ** 2


def test_truncated_variants_recorded_identity_gap(h4):
    """The key identity is not asserted for truncated PCG; just make sure the
    variants run and the magnitude of the gap is finite and reported."""
    A = h4.finest.A
    rng = np.random.default_rng(8)
    gaps = {}
    for trunc in ("sd", 0):
        params = CycleParams(n_inner=3, truncation=trunc)
        worst = 0.0
        for _ in range(5):
            v = rng.standard_normal(A.shape[0])
            e = v - apply_amli_tilde(h4, 4, A @ v, params)
            lhs = a_norm(A, e) ** 2
            rhs = np.dot(A @ e, v)
            worst = max(worst, abs(lhs - rhs) / max(lhs, 1e-300))
        gaps[trunc] = worst
    assert all(np.isfinite(g) for g in gaps.values())


def test_comparison_chain_symmetric(h4):
    A = h4.finest.A
    rng = np.random.default_rng(9)
    for params in (P1, P2):
        for _ in range(25):
            v = rng.standard_normal(A.shape[0])
            nv2 = a_norm(A, v) ** 2
            Av = A @ v
            q_t = np.dot(A @ (v - apply_amli_tilde(h4, 4, Av, params)), v)
            q_h = np.dot(A @ (v - apply_amli(h4, 4, Av, params)), v)
            q_v = np.dot(A @ (v - apply_v_cycle(h4, 4, Av)), v)
            assert q_t >= -1e-12 * nv2
            assert q_h >= q_t - 1e-12 * nv2
            assert q_v >= q_h - 1e-12 * nv2


def test_uniform_contraction_trend_across_levels():
    """delta_hat(k) = max_v ||v - Bt[Av]||_A^2/||v||_A^2 stays below one and
    shows no growth trend on the full-regularity problem."""
    rng = np.random.default_rng(10)
    for n_inner in (1, 2):
        params = CycleParams(n_inner=n_inner)
        deltas = []
        for k in range(3, 9):
            h = build_geometric("poisson", k)
            A = h.finest.A
            worst = 0.0
            samples = 50 if k <= 6 else 15
            for _ in range(samples):
                v = rng.standard_normal(A.shape[0])
                e = v - apply_amli_tilde(h, k, A @ v, params)
                worst = max(worst, a_norm(A, e) ** 2 / a_norm(A, v) ** 2)
            deltas.append(worst)
        assert max(deltas) < 1.0
        assert deltas[-1] <= deltas[0] + 0.05


def test_rate_estimate_two_level():
    """PCG accuracy bound: ||A^-1 f - Bt[f]||_A <= delta^n ||f||_A^-1 with
    delta measured as the worst preconditioner accuracy over the pool (the
    pool also includes the inner residuals the PCG actually preconditions,
    since the bound's proof consumes accuracy at those inputs)."""
    h = build_geometric("poisson", 3)
    A = h.finest.A
    F = DenseFactorization(A)
    rng = np.random.default_rng(11)
    pool = [rng.standard_normal(A.shape[0]) for _ in range(60)]

    for n_inner in (1, 2):
        params = CycleParams(n_inner=n_inner)
        precond = lambda g: apply_amli(h, 3, g, params)
        inputs = list(pool)
        for f in pool:
            state = run_pcg(A, precond, f, params)
            inputs.extend(state.residuals[:-1])
        delta = 0.0
        for g in inputs:
            err = a_norm(A, F.solve(g) - precond(g))
            denom = np.sqrt(np.dot(F.solve(g), g))
            delta = max(delta, err / denom)
        assert delta < 1.0
        for f in pool:
            lhs = a_norm(A, F.solve(f) - nonlinear_pcg(A, precond, f, params))
            rhs = delta ** n_inner * np.sqrt(np.dot(F.solve(f), f))
            assert lhs <= rhs * (1.0 + 1e-8)


def test_required_n_formula():
    assert required_n(0.0) == 2
    assert required_n(0.4) == 2
    assert required_n(0.5) == 3
    assert required_n(0.75) == 5
    with pytest.raises(ValueError):
        required_n(1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        CycleParams(n_inner=0)
    with pytest.raises(ValueError):
        CycleParams(truncation=-2)
    with pytest.raises(ValueError):
        CycleParams(kind="w_cycle")
    assert CycleParams(truncation=0).truncation == 0


def test_stationary_solve_exact_operator_one_iteration():
    rng = np.random.default_rng(12)
    A = random_spd(15, rng)
    F = DenseFactorization(A)
    f = rng.standard_normal(15)
    report = stationary_solve(F.solve, A, f, tol=1e-10)
    assert report.converged and report.iterations == 1
    assert len(report.residual_history) == report.iterations + 1


def test_stationary_solve_divergence_flag():
    rng = np.random.default_rng(13)
    A = random_spd(10, rng)
    F = DenseFactorization(A)
    f = rng.standard_normal(10)
    bad = lambda r: -40.0 * F.solve(r)
    report = stationary_solve(bad, A, f, max_iter=50)
    assert report.diverged and not report.converged


def test_stationary_solve_names_nonfinite_exit():
    A, f = assemble_poisson(4)
    report = stationary_solve(lambda r: np.full_like(r, np.nan), A, f)
    assert report.status == "nonfinite"
    assert report.iterations == 1
    assert not report.converged and not report.diverged
    inf = stationary_solve(lambda r: np.full_like(r, np.inf), A, f)
    assert inf.status == "nonfinite" and inf.iterations == 1


def test_stationary_solve_statuses():
    A, f = assemble_poisson(3)
    h = build_geometric("poisson", 3)
    v = lambda r: apply_v_cycle(h, 3, r)
    assert stationary_solve(v, A, f).status == "converged"
    assert stationary_solve(v, A, f, max_iter=1).status == "max_iter"
    assert stationary_solve(lambda r: -1e7 * r, A, f).status == "diverged"


def test_stationary_solve_one_matvec_per_iteration():
    A, f = assemble_poisson(3)
    h = build_geometric("poisson", 3)
    matvecs = []

    class Counting:
        shape = A.shape

        def __matmul__(self, x):
            matvecs.append(1)
            return A @ x

    report = stationary_solve(lambda r: apply_v_cycle(h, 3, r), Counting(), f)
    assert report.converged
    assert len(matvecs) == report.iterations + 1


def test_stationary_solve_energy_mode():
    A, _ = assemble_poisson(3)
    h = build_geometric("poisson", 3)
    rng = np.random.default_rng(14)
    u0 = rng.standard_normal(A.shape[0])
    report = stationary_solve(lambda r: apply_v_cycle(h, 3, r), A,
                              np.zeros(A.shape[0]), u0=u0, tol=1e-6,
                              tol_kind="energy_error",
                              u_exact=np.zeros(A.shape[0]))
    assert report.converged
    assert report.energy_error_history[-1] <= 1e-6
    assert report.energy_monotone is not None
    with pytest.raises(ValueError, match="u_exact"):
        stationary_solve(lambda r: r, A, np.zeros(A.shape[0]),
                         tol_kind="energy_error")


def test_pcg_state_residual_consistency(h4):
    A = h4.finest.A
    rng = np.random.default_rng(15)
    f = rng.standard_normal(A.shape[0])
    state = run_pcg(A, lambda g: apply_amli(h4, 4, g, P2), f, P2)
    recomputed = f - A @ state.iterate
    assert np.linalg.norm(recomputed - state.residual) \
        <= 1e-12 * np.linalg.norm(f)
    for p, Ap, e in state.directions:
        assert e > 0.0
        assert np.linalg.norm(A @ p - Ap) <= 1e-12 * np.linalg.norm(Ap)
