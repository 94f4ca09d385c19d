import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import mgbench.amli
from mgbench import (CycleParams, DenseFactorization, Hierarchy,
                     PCGBreakdownError, SmootherSpec, SolveReport, a_norm,
                     apply_amli, apply_amli_ns, apply_amli_tilde,
                     apply_amli_tilde_ns, apply_backslash, apply_cycle,
                     apply_v_cycle, as_csr, assemble_poisson, bind,
                     build_geometric, build_ua_amg, nonlinear_pcg, required_n,
                     run_pcg, spmv, stationary_solve)
from test_hierarchy import with_parts

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
    """With an exact coarse solve a PCG step would be exact (alpha = 1), so
    the two-level AMLI cycle corrects with that solve, as the V-cycle does."""
    h = build_geometric("poisson", 2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.standard_normal(9)
        a = apply_amli(h, 2, f, P1)
        b = apply_v_cycle(h, 2, f)
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)


@pytest.fixture(scope="module", params=["poisson-k4", "jump-k5", "ua-2sweep"])
def level2_h(request):
    """Geometric Poisson, the jump problem (coarsest condition number about
    2e6) and 2-sweep UA-AMG; only their two coarsest levels are used."""
    if request.param == "poisson-k4":
        return build_geometric("poisson", 4)
    if request.param == "jump-k5":
        return build_geometric("jump", 5)
    return build_ua_amg(assemble_poisson(5)[0], smoother=SmootherSpec(sweeps=2))


@pytest.mark.parametrize("truncation", ["full", "sd", 0])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_level2_amli_cycles_are_the_linear_cycles(level2_h, n, truncation):
    """On level 2 the AMLI coarse correction is the exact coarsest solve,
    for any inner-step count and truncation, so the AMLI cycles are the
    V- and \\-cycles bit for bit."""
    params = CycleParams(n_inner=n, truncation=truncation)
    rng = np.random.default_rng(30 + n)
    for _ in range(3):
        f = rng.standard_normal(level2_h.level(2).A.shape[0])
        assert np.array_equal(apply_amli(level2_h, 2, f, params),
                              apply_v_cycle(level2_h, 2, f))
        assert np.array_equal(apply_amli_ns(level2_h, 2, f, params),
                              apply_backslash(level2_h, 2, f))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("apply", [apply_amli, apply_amli_ns])
def test_level2_amli_runs_no_pcg_and_one_coarse_solve(level2_h, monkeypatch,
                                                      apply, n):
    calls = {"pcg": 0, "solve": 0}
    run = mgbench.amli.run_pcg
    solve = level2_h.coarsest_solver.solve

    def counted_pcg(*args):
        calls["pcg"] += 1
        return run(*args)

    def counted_solve(g):
        calls["solve"] += 1
        return solve(g)

    monkeypatch.setattr(mgbench.amli, "run_pcg", counted_pcg)
    monkeypatch.setattr(level2_h.coarsest_solver, "solve", counted_solve)
    f = np.random.default_rng(40).standard_normal(level2_h.level(2).A.shape[0])
    apply(level2_h, 2, f, CycleParams(n_inner=n))
    assert calls == {"pcg": 0, "solve": 1}


@pytest.fixture(scope="module", params=["poisson-k5", "jump-k5", "ua-2sweep"])
def h5(request):
    """Geometric Poisson and jump at k = 5 and 2-sweep UA-AMG on the k = 5
    Poisson matrix."""
    if request.param == "poisson-k5":
        return build_geometric("poisson", 5)
    if request.param == "jump-k5":
        return build_geometric("jump", 5)
    return build_ua_amg(assemble_poisson(5)[0], smoother=SmootherSpec(sweeps=2))


def copying_pcg(A, precond, f, params):
    """The PCG iterate with a new array for every step, u = u + alpha p,
    orthogonalized against params' truncation set: the reference for
    run_pcg's iterate, formed on return."""
    r = f.copy()
    directions, u = [], None
    f_norm = np.sqrt(r.dot(r))
    trunc = params.truncation
    for i in range(params.n_inner):
        if i and np.sqrt(r.dot(r)) <= mgbench.amli.RESIDUAL_EXIT_REL * f_norm:
            break
        p = precond(r)
        against = (directions if trunc == "full" else [] if trunc == "sd"
                   else directions[-(trunc + 1):])
        if against:
            Ap0 = spmv(A, p)
            for pj, paj in against:
                p = p - (float(Ap0.dot(pj)) / paj) * pj
        Ap = spmv(A, p)
        alpha = float(r.dot(p)) / float(p.dot(Ap))
        u = alpha * p if u is None else u + alpha * p
        r = r - alpha * Ap
        directions.append((p, float(p.dot(Ap))))
    return u


def copying_visit(h, k, f, symmetric, params):
    """The cycle recursion with a new array for every update of the
    iterate, u2 = u1 + P c and u2 + R^t (f - A u2): the reference for the
    engine's in-place updates."""
    if k == 1:
        return h.coarsest_solver.solve(f)
    lv, coarser = h.levels[k - 1], h.levels[k - 2]
    u1 = lv.smoother.apply(f)
    g = spmv(coarser.R, f - spmv(lv.A, u1))
    if params is None or k == 2:
        coarse = copying_visit(h, k - 1, g, symmetric, None)
    else:
        coarse = copying_pcg(coarser.A,
                             lambda rr: copying_visit(h, k - 1, rr, symmetric, params),
                             g, params)
    u2 = u1 + spmv(coarser.P_to_finer, coarse)
    if not symmetric:
        return u2
    return u2 + lv.smoother.apply_transpose(f - spmv(lv.A, u2))


@pytest.mark.parametrize("params", [
    None, P1, P2, CycleParams(n_inner=2, truncation="sd"),
    CycleParams(n_inner=3, truncation=0)], ids=["linear", "n1", "n2", "sd", "m0"])
@pytest.mark.parametrize("symmetric", [True, False])
def test_in_place_cycle_matches_copying_reference(h5, symmetric, params):
    """The engine's visit tables, on Poisson, jump and UA-AMG and with each
    truncation, give the copying recursion's bits at every level."""
    rng = np.random.default_rng(23)
    for k in (h5.n_levels, h5.n_levels - 1):
        f = rng.standard_normal(h5.level(k).A.shape[0])
        assert_matches_copying_reference(h5, k, f, symmetric, params)


def assert_matches_copying_reference(h, k, f, symmetric, params):
    got = apply_cycle(h, k, f, symmetric, params)
    assert got.tobytes() == copying_visit(h, k, f, symmetric, params).tobytes()
    if params is not None:
        tilde = apply_amli_tilde if symmetric else apply_amli_tilde_ns
        ref = copying_pcg(h.level(k).A,
                          lambda rr: copying_visit(h, k, rr, symmetric, params),
                          f, params)
        assert tilde(h, k, f, params).tobytes() == ref.tobytes()
    return got


class ZeroSmoother:
    def apply(self, f):
        return np.zeros_like(f)

    def apply_transpose(self, f):
        return np.zeros_like(f)


def _replace_smoother(h, k):
    return with_parts(h, k, smoother=ZeroSmoother())


def _replace_matrix(h, k):
    A = as_csr(2.0 * h.level(k).A)
    return with_parts(h, k, A=A, smoother=bind(A, SmootherSpec()))


def _replace_coarsest_solver(h, _k):
    return with_parts(h, coarsest_solver=DenseFactorization(2.0 * h.level(1).A))


@pytest.mark.parametrize("replace", [_replace_smoother, _replace_matrix,
                                     _replace_coarsest_solver])
@pytest.mark.parametrize("params", [None, P2], ids=["linear", "n2"])
def test_replaced_part_changes_the_next_apply(replace, params):
    """A hierarchy made from a cycled one with a level's smoother, its
    matrix with its smoother, or the coarsest solver replaced cycles with
    the new part: it equals the copying recursion on the changed hierarchy
    and differs from the original, which still gives its earlier results
    bit for bit."""
    h = build_geometric("poisson", 4)
    f = np.random.default_rng(24).standard_normal(h.finest.A.shape[0])
    before = {sym: assert_matches_copying_reference(h, 4, f, sym, params)
              for sym in (True, False)}
    changed = replace(h, 3)
    for sym in (True, False):
        after = assert_matches_copying_reference(changed, 4, f, sym, params)
        assert after.tobytes() != before[sym].tobytes()
        again = assert_matches_copying_reference(h, 4, f, sym, params)
        assert again.tobytes() == before[sym].tobytes()


def test_replaced_hierarchy_starts_without_tables():
    """dataclasses.replace makes a hierarchy with no visit tables, which
    then cycles with its own coarsest solver, not the one the original's
    tables hold."""
    h = build_geometric("poisson", 3)
    f = np.random.default_rng(26).standard_normal(h.finest.A.shape[0])
    before = apply_v_cycle(h, 3, f)
    assert h._tables
    solver = DenseFactorization(2.0 * h.level(1).A)
    changed = dataclasses.replace(h, coarsest_solver=solver)
    assert changed._tables == {}
    after = apply_v_cycle(changed, 3, f)
    assert after.tobytes() == copying_visit(changed, 3, f, True, None).tobytes()
    assert after.tobytes() != before.tobytes()
    assert changed._tables and changed._tables is not h._tables


class ShortSmoother(ZeroSmoother):
    def apply(self, f):
        return np.zeros(len(f) - 1)


class ShortSolver:
    def solve(self, f):
        return np.zeros(len(f) + 1)


def test_wrong_length_from_smoother_or_coarsest_solver_is_named():
    """The visits hand the smoother's and the coarsest solver's output to
    scipy's matvec kernels, which do not check lengths; a wrong length is a
    ValueError, not a read past the vector."""
    h = build_geometric("poisson", 3)
    f = np.ones(h.finest.A.shape[0])
    with pytest.raises(ValueError, match="smoother returned length 8 on a "
                                         "level of 9 unknowns"):
        apply_v_cycle(with_parts(h, 2, smoother=ShortSmoother()), 3, f)
    h = with_parts(h, coarsest_solver=ShortSolver())
    with pytest.raises(ValueError, match="coarsest solver returned length 2 "
                                         "on a level of 1 unknowns"):
        apply_amli(h, 3, f, P2)


def test_two_grid_hierarchy_on_shared_levels_gets_its_own_table():
    """The two-grid reference of criterion 3 reuses the finest two levels of
    a hierarchy that has already cycled, with an exact sparse coarse solve:
    it is cycled as a two-level hierarchy, and the full one is unchanged."""
    h = build_geometric("poisson", 4)
    f = np.random.default_rng(25).standard_normal(h.finest.A.shape[0])
    full = apply_v_cycle(h, 4, f)
    tg = Hierarchy(levels=h.levels[-2:],
                   coarsest_solver=splu(h.levels[-2].A.tocsc()))
    two_grid = apply_v_cycle(tg, 2, f)
    assert two_grid.tobytes() == copying_visit(tg, 2, f, True, None).tobytes()
    assert two_grid.tobytes() != full.tobytes()
    assert apply_v_cycle(h, 4, f).tobytes() == full.tobytes()


def test_params_differing_only_in_kind_share_one_table():
    """No cycle reads CycleParams.kind, so it takes no part in == or the
    hash: params that differ only in kind used to build two identical visit
    tables on one hierarchy."""
    h = build_geometric("poisson", 4)
    sym = CycleParams(n_inner=2)
    ns = CycleParams(n_inner=2, kind="amli_nonsymmetric")
    assert sym == ns and hash(sym) == hash(ns) and ns.kind == "amli_nonsymmetric"
    f = np.random.default_rng(27).standard_normal(h.finest.A.shape[0])
    assert apply_amli(h, 4, f, sym).tobytes() == apply_amli(h, 4, f, ns).tobytes()
    assert len(h._tables) == 1


def test_visit_tables_hold_no_reference_to_the_hierarchy():
    """With the cyclic collector off, a hierarchy that has cycled is freed
    as soon as its last reference goes: its visit tables form no cycle
    through it."""
    h = build_geometric("poisson", 3)
    f = np.ones(h.finest.A.shape[0])
    apply_v_cycle(h, 3, f)
    apply_amli_tilde_ns(h, 3, f, P2)
    ref = weakref.ref(h)
    gc.disable()
    try:
        del h
        assert ref() is None
    finally:
        gc.enable()


def test_cycles_and_solve_leave_f_and_u0_unchanged(h5):
    """The engine adds into arrays it made itself, never into its input: every
    public cycle and stationary_solve leave f and u0 as they were, and each
    result is an array of its own."""
    k = h5.n_levels
    A = h5.finest.A
    rng = np.random.default_rng(22)
    f = rng.standard_normal(A.shape[0])
    kept = f.copy()
    calls = [lambda: apply_backslash(h5, k, f), lambda: apply_v_cycle(h5, k, f)]
    calls += [lambda fn=fn: fn(h5, k, f, P2)
              for fn in (apply_amli, apply_amli_ns, apply_amli_tilde,
                         apply_amli_tilde_ns)]
    calls += [lambda sym=sym: apply_cycle(h5, k, f, sym, P2) for sym in (True, False)]
    for call in calls:
        u = call()
        assert not np.shares_memory(u, f)
        assert np.array_equal(f, kept)
    u0 = rng.standard_normal(A.shape[0])
    u0_kept = u0.copy()
    for u_start in (None, u0):
        report = stationary_solve(lambda r: apply_amli(h5, k, r, P2), A, f,
                                  u0=u_start, tol=1e-30, max_iter=3)
        assert report.iterations == 3
        assert np.array_equal(f, kept)
        assert np.array_equal(u0, u0_kept)


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


def reference_stationary_solve(operator, A, f, u0=None, tol=1e-6,
                               max_iter=2000, u_exact=None):
    """stationary_solve as it was written before it became one loop: a
    status closure evaluated before each iteration and once more after the
    last.  Kept as the reference its report must equal exactly."""
    mgbench.amli.require_stopping(tol, max_iter)
    u = np.zeros_like(f) if u0 is None else np.array(u0, float)
    f_scale = np.linalg.norm(f)
    if f_scale == 0.0:
        f_scale = 1.0

    def energy_error(v):
        e = v - u_exact
        return float(np.sqrt(max(np.dot(A @ e, e), 0.0)))

    r = f - A @ u
    residual_history = [float(np.linalg.norm(r))]
    energy_history = [energy_error(u)] if u_exact is not None else None
    start = residual_history[0]

    def monitored():
        if energy_history is None:
            return residual_history[-1] / f_scale
        return energy_history[-1]

    def status():
        if not math.isfinite(residual_history[-1]) or not math.isfinite(monitored()):
            return "nonfinite"
        if residual_history[-1] > mgbench.amli.DIVERGENCE_FACTOR * max(start, f_scale):
            return "diverged"
        return "converged" if monitored() <= tol else "max_iter"

    iterations = 0
    exit_status = None
    while status() == "max_iter" and iterations < max_iter:
        try:
            u += operator(r)
        except PCGBreakdownError:
            exit_status = "breakdown"
            break
        iterations += 1
        r = f - A @ u
        residual_history.append(float(np.linalg.norm(r)))
        if energy_history is not None:
            energy_history.append(energy_error(u))
    return SolveReport(iterations, exit_status or status(), residual_history,
                       energy_history)


def breaks_down_on_third_call(h):
    """A V-cycle operator whose third call raises PCGBreakdownError."""
    calls = []

    def operator(r):
        calls.append(1)
        if len(calls) == 3:
            raise PCGBreakdownError("PCG breakdown: zero-energy direction")
        return apply_v_cycle(h, 4, r)
    return operator


# exit -> (fresh operator for h, extra stationary_solve arguments)
EXITS = {
    "converged": (lambda h: lambda r: apply_v_cycle(h, 4, r), {}),
    "max_iter": (lambda h: lambda r: apply_v_cycle(h, 4, r), {"max_iter": 3}),
    "diverged": (lambda h: lambda r: -1e7 * r, {}),
    "nonfinite": (lambda h: lambda r: np.full_like(r, np.nan), {}),
    "breakdown": (breaks_down_on_third_call, {}),
}


@pytest.mark.parametrize("mode", ["residual", "energy"])
@pytest.mark.parametrize("status", list(EXITS))
def test_stationary_solve_report_equals_reference_loop(h4, status, mode):
    """The one-loop driver reports the reference's iterations, status and
    histories bit for bit, for each exit, stopping on the relative residual
    (Poisson load, zero start) or on the energy error (zero load, random
    start, u_exact = 0, as the CLI solves the jump problem)."""
    A = h4.finest.A
    n = A.shape[0]
    if mode == "residual":
        args = {"f": assemble_poisson(4)[1]}
    else:
        args = {"f": np.zeros(n), "u_exact": np.zeros(n),
                "u0": np.random.default_rng(28).standard_normal(n)}
    make_operator, extra = EXITS[status]
    got = stationary_solve(make_operator(h4), A, **args, **extra)
    ref = reference_stationary_solve(make_operator(h4), A, **args, **extra)
    assert got.status == ref.status == status
    assert got.iterations == ref.iterations
    for history in ("residual_history", "energy_error_history"):
        assert repr(getattr(got, history)) == repr(getattr(ref, history))
    assert (got.energy_error_history is None) == (mode == "residual")


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


def test_stationary_solve_names_breakdown_exit():
    """A PCG breakdown inside the operator ends the solve as 'breakdown',
    keeping the iterations made before it."""
    A, f = assemble_poisson(3)
    h = build_geometric("poisson", 3)
    calls = []

    def operator(r):
        calls.append(1)
        if len(calls) == 1:
            return apply_v_cycle(h, 3, r)
        return nonlinear_pcg(A, lambda g: np.zeros_like(g), r, P1)

    report = stationary_solve(operator, A, f)
    assert report.status == "breakdown"
    assert report.iterations == 1 and len(report.residual_history) == 2
    assert not report.converged and not report.diverged


@pytest.mark.parametrize("kwargs, named", [
    ({"tol": -1.0}, "tol must be > 0, got -1"), ({"tol": 0.0}, "tol must be > 0"),
    ({"tol": float("nan")}, "tol must be > 0, got nan"),
    ({"max_iter": 0}, "max_iter must be >= 1, got 0"),
    ({"max_iter": 2.5}, "max_iter must be an integer, got 2.5"),
    ({"max_iter": float("inf")}, "max_iter must be an integer, got inf"),
])
def test_stationary_solve_rejects_unreachable_stop(kwargs, named):
    """tol <= 0 used to run to max_iter and report 'max_iter'; max_iter 0
    reported the untouched start as 'max_iter'; iterations == max_iter never
    holds for 2.5 or inf, so an operator that missed tol ran forever.  (The
    recording operator returns None, so a solve that let such a max_iter
    through would end in a TypeError at its first call, not in a loop.)"""
    A, f = assemble_poisson(3)
    calls = []
    with pytest.raises(ValueError, match=named):
        stationary_solve(calls.append, A, f, **kwargs)
    assert not calls


@pytest.mark.parametrize("kwargs, named", [
    ({"f": np.ones(48), "u0": np.zeros(49)},
     "matrix is 49, right-hand side has length 48"),
    ({"u0": np.zeros((49, 1))},
     r"matrix is 49, initial guess has shape \(49, 1\), not a vector"),
    ({"u_exact": np.zeros(50)}, "matrix is 49, exact solution has length 50"),
], ids=["f-length", "u0-2d", "u_exact-length"])
def test_stationary_solve_names_shape_errors_before_any_call(kwargs, named):
    """A right-hand side of the wrong length next to a valid u0 used to meet
    numpy's broadcast error; an (n, 1) u0 broadcast f - A u to n x n and
    failed later in the operator; a u_exact of the wrong length failed in
    the energy norm.  Each is now named before A or the operator runs."""
    A, f = assemble_poisson(3)
    calls = []

    class Counting:
        shape = A.shape

        def __matmul__(self, x):
            calls.append("A")
            return A @ x

    args = {"f": f, **kwargs}
    with pytest.raises(ValueError, match=named):
        stationary_solve(lambda r: calls.append("op"), Counting(), **args)
    assert not calls


def test_pcg_and_cycles_name_a_non_vector_right_hand_side(h4):
    """run_pcg and every public cycle take f as a float vector of the
    level's length: a 2-D f used to fail inside the first inner product
    ("shapes not aligned"), and a list reached the cycle as a list."""
    A = h4.finest.A
    n = A.shape[0]
    block = np.ones((n, 2))
    with pytest.raises(ValueError, match=r"matrix is %d, right-hand side has "
                                         r"shape \(%d, 2\)" % (n, n)):
        run_pcg(A, lambda g: apply_v_cycle(h4, 4, g), block, P2)
    cycles = [lambda f: apply_backslash(h4, 4, f), lambda f: apply_v_cycle(h4, 4, f)]
    cycles += [lambda f, fn=fn: fn(h4, 4, f, P2)
               for fn in (apply_amli, apply_amli_ns, apply_amli_tilde,
                          apply_amli_tilde_ns)]
    f = np.random.default_rng(26).standard_normal(n)
    for cycle in cycles:
        with pytest.raises(ValueError, match=r"matrix is %d, .*shape \(%d, 2\)"
                                             % (n, n)):
            cycle(block)
        assert cycle(list(f)).tobytes() == cycle(f).tobytes()


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
                              u_exact=np.zeros(A.shape[0]))
    # given u_exact, the solve stops on the first energy error at or below tol
    assert report.converged
    assert report.energy_error_history[-1] <= 1e-6 < report.energy_error_history[-2]


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


def reference_run_pcg(A, precond, f, params):
    """run_pcg as it was before it stopped copying residuals: a copy per
    stored residual, the length-checked inner product and np.linalg.norm."""
    def inner(x, y):
        assert x.shape[0] == y.shape[0]
        return float(np.dot(x, y))

    f = np.asarray(f, float)
    u = np.zeros_like(f)
    r = f.copy()
    residuals, energies = [r.copy()], []
    f_norm = np.linalg.norm(f)
    if f_norm == 0.0:
        return u, residuals, energies
    directions = []
    trunc = params.truncation
    for _ in range(params.n_inner):
        p = np.asarray(precond(r), float)
        if trunc == "full":
            against = directions
        elif trunc == "sd":
            against = ()
        else:
            against = directions[-(trunc + 1):]
        if against:
            Ap0 = A @ p
            for pj, _apj, paj in against:
                p = p - (inner(Ap0, pj) / paj) * pj
        Ap = A @ p
        p_energy = inner(p, Ap)
        alpha = inner(r, p) / p_energy
        u = u + alpha * p
        r = r - alpha * Ap
        directions.append((p, Ap, p_energy))
        residuals.append(r.copy())
        energies.append(p_energy)
        if np.linalg.norm(r) <= 1e-14 * f_norm:
            break
    return u, residuals, energies


@pytest.mark.parametrize("truncation", ["full", "sd", 0, 1])
def test_pcg_residual_history_matches_copying_reference(h4, truncation):
    A = h4.finest.A
    rng = np.random.default_rng(16)
    for n in (1, 2, 4):
        params = CycleParams(n_inner=n, truncation=truncation)
        precond = lambda g: apply_amli(h4, 4, g, P2)
        for f in (rng.standard_normal(A.shape[0]),
                  rng.standard_normal(2 * A.shape[0])[::2]):    # a strided view
            state = run_pcg(A, precond, f, params)
            u, residuals, energies = reference_run_pcg(A, precond, f, params)
            assert len(state.residuals) == len(residuals)
            for got, ref in zip(state.residuals, residuals):
                assert got.tobytes() == ref.tobytes()
            assert state.iterate.tobytes() == u.tobytes()
            assert [e for _, _, e in state.directions] == energies


def test_pcg_stores_each_residual_once_and_apart_from_f(h4):
    A = h4.finest.A
    f = np.random.default_rng(17).standard_normal(A.shape[0])
    params = CycleParams(n_inner=4)
    state = run_pcg(A, lambda g: apply_v_cycle(h4, 4, g), f, params)
    assert len(state.residuals) == params.n_inner + 1
    assert state.residual is state.residuals[-1]
    for i, a in enumerate(state.residuals):
        assert not np.shares_memory(a, f)
        for b in state.residuals[i + 1:]:
            assert not np.shares_memory(a, b)
    r0 = state.residuals[0].copy()
    assert np.array_equal(r0, f)
    f[:] = 0.0
    assert np.array_equal(state.residuals[0], r0)


@pytest.mark.parametrize("kind", ["contiguous", "offset slice", "strided"])
def test_pcg_runs_on_f_and_copies_it_on_return(h4, kind):
    """r_0 is a contiguous f itself while the preconditioner runs, and a
    copy of a strided one; the returned state shares no memory with f and
    has the copying reference's bits."""
    A = h4.finest.A
    n = A.shape[0]
    base = np.random.default_rng(18).standard_normal(2 * n + 3)
    f = {"contiguous": base[:n].copy(), "offset slice": base[3:n + 3],
         "strided": base[::2][:n]}[kind]
    received = []

    def precond(g):
        received.append(g)
        return apply_v_cycle(h4, 4, g)
    params = CycleParams(n_inner=3)
    state = run_pcg(A, precond, f, params)
    assert np.shares_memory(received[0], f) == (kind != "strided")
    for r in state.residuals:
        assert not np.shares_memory(r, f)
    u, residuals, energies = reference_run_pcg(A, precond, f, params)
    assert [r.tobytes() for r in state.residuals] == \
        [r.tobytes() for r in residuals]
    assert state.iterate.tobytes() == u.tobytes()
    assert [e for _, _, e in state.directions] == energies
