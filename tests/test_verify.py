import functools

import numpy as np
import pytest
import scipy.sparse as sp

import mgbench.verify
from mgbench import (CycleParams, SmootherSpec, assemble_poisson, bind,
                     build_geometric, build_ua_amg, required_n,
                     spectral_radius)
from mgbench.verify import (CheckReport, check_approximation_constant,
                            check_comparison_suite,
                            check_error_representation,
                            check_smoothed_projection_bound,
                            check_two_grid_factor, rng_for, run_suite,
                            _coarse_projector, _pencil_top, _two_grid_model)
from test_hierarchy import with_parts


@pytest.fixture(scope="module")
def h4():
    return build_geometric("poisson", 4)


def test_projection_annihilates_coarse_vectors(h4):
    project = _coarse_projector(h4, 4)
    P = h4.level(3).P_to_finer
    rng = np.random.default_rng(0)
    vc = rng.standard_normal(P.shape[1])
    v = P @ vc
    assert np.linalg.norm(v - project(h4.level(4).A @ v)) <= 1e-11 * np.linalg.norm(v)


@pytest.mark.parametrize("build", [
    lambda: build_geometric("poisson", 4),
    lambda: build_geometric("jump", 4),
    lambda: build_ua_amg(assemble_poisson(5)[0]),
], ids=["poisson4", "jump4", "ua961"])
def test_two_grid_model_matches_closed_form(build):
    """On the finest level of each hierarchy family, S = A(I - Pi) built
    from the coarse projector equals the closed form A - (A P) Ac^-1 (P^t A),
    and F is I - R A column by column."""
    h = build()
    k = h.n_levels
    lv = h.level(k)
    A = lv.A.toarray()
    P = h.level(k - 1).P_to_finer.toarray()
    Ac = h.level(k - 1).A.toarray()
    reference = A - (A @ P) @ np.linalg.solve(Ac, P.T @ A)
    reference = (reference + reference.T) * 0.5
    A_out, S, F = _two_grid_model(h, k)
    assert np.array_equal(A_out, A)
    assert np.linalg.norm(S - reference) <= 1e-12 * np.linalg.norm(reference)
    for j, e in enumerate(np.eye(A.shape[0])):
        column = e - lv.smoother.apply(lv.A @ e)
        assert np.linalg.norm(F[:, j] - column) <= 1e-14 * np.linalg.norm(column)


def sandwich_two_grid_factor(h, k):
    """Reference ||E||_A = ||A^(1/2) E A^(-1/2)||_2, with the two-grid error
    propagator E = (I - R^t A)(I - Pi)(I - R A) built column by column from
    the smoother's apply and apply_transpose."""
    lv = h.level(k)
    A = lv.A.toarray()
    project = _coarse_projector(h, k)

    def two_grid_error(v):
        w = v - lv.smoother.apply(lv.A @ v)
        w = w - project(lv.A @ w)
        return w - lv.smoother.apply_transpose(lv.A @ w)

    E = np.column_stack([two_grid_error(e) for e in np.eye(A.shape[0])])
    evals, vecs = np.linalg.eigh(A)
    root = vecs @ np.diag(np.sqrt(evals)) @ vecs.T
    inv_root = vecs @ np.diag(1.0 / np.sqrt(evals)) @ vecs.T
    return float(np.linalg.norm(root @ E @ inv_root, 2))


_SMOOTHERS = {"jacobi": SmootherSpec("jacobi", 0.7),
              "gs2": SmootherSpec("gs", sweeps=2),
              "richardson": SmootherSpec("richardson")}


@functools.lru_cache(maxsize=None)
def _reference_hierarchy(name):
    """Hierarchy of the two-grid reference cases, built once per name."""
    if name == "jump5":
        return build_geometric("jump", 5)
    if name == "ua961":
        return build_ua_amg(assemble_poisson(5)[0])
    if name in _SMOOTHERS:
        return build_geometric("poisson", 4, smoother=_SMOOTHERS[name])
    return build_geometric("poisson", int(name[len("poisson"):]))


@pytest.mark.parametrize("name, k", [
    ("poisson2", 2), ("poisson3", 3), ("poisson4", 4), ("poisson5", 5),
    ("jump5", 2), ("jump5", 3), ("jump5", 4),
    ("ua961", 2), ("ua961", 3),
    ("jacobi", 4), ("gs2", 4), ("richardson", 4),
])
def test_two_grid_factor_matches_sandwich_reference(name, k):
    """The pencil value of ||E||_A equals the A^(1/2) sandwich 2-norm."""
    h = _reference_hierarchy(name)
    reference = sandwich_two_grid_factor(h, k)
    assert 0.0 < reference < 1.0
    assert abs(check_two_grid_factor(h, k) - reference) <= 1e-12 * reference


def test_two_grid_factor_rejects_non_spd_level():
    """An indefinite level matrix (the Poisson matrix minus 7 I; its
    spectrum lies in (0, 8)) raises ValueError."""
    h = build_geometric("poisson", 3)
    A = h.level(3).A
    A = (A - 7.0 * sp.identity(A.shape[0], format="csr")).tocsr()
    h = with_parts(h, 3, A=A, smoother=bind(A, SmootherSpec()))
    with pytest.raises(ValueError):
        check_two_grid_factor(h, 3)


def test_run_suite_rows_and_order(monkeypatch):
    """Which check runs at which level, and in which order: the per-level
    checks and the dense model are stubbed, so only run_suite's own
    bookkeeping runs.  The three dense checks of a level share one model,
    built at most once."""
    calls = []
    models = []

    def model(h, k):
        models.append(k)
        return ("model", k)

    def stub(name):
        def check(h, k, *args, **kwargs):
            calls.append((name, k, args, kwargs))
            return CheckReport(name="%s_l%d" % (name, k), passed=True)
        return check

    def dense_stub(name):
        def check(h, k, samples, seed, level_model):
            calls.append((name, k, (samples, seed, level_model()), {}))
            return CheckReport(name="%s_l%d" % (name, k), passed=True)
        return check

    def comparison(h, params, samples, seed):
        calls.append(("comparison", params.n_inner, samples, seed))
        return CheckReport(name="comparison_n%d" % params.n_inner, passed=True)

    for check, name in [("_approximation_constant", "approximation_constant"),
                        ("_smoothed_projection_bound", "smoothed_projection")]:
        monkeypatch.setattr(mgbench.verify, check, dense_stub(name))
    monkeypatch.setattr(mgbench.verify, "check_error_representation",
                        stub("error_representation"))
    monkeypatch.setattr(mgbench.verify, "_two_grid_model", model)
    monkeypatch.setattr(mgbench.verify, "_two_grid_factor", lambda m: m[1] / 10)
    monkeypatch.setattr(mgbench.verify, "check_comparison_suite", comparison)

    reports = run_suite(object(), [1, 2, 3, 4, 5, 6], samples=30, seed=9)
    assert [r.name for r in reports] == [
        "approximation_constant_l2", "smoothed_projection_l2",
        "error_representation_l2", "two_grid_factor_l2",
        "approximation_constant_l3", "smoothed_projection_l3",
        "error_representation_l3", "two_grid_factor_l3",
        "approximation_constant_l4", "smoothed_projection_l4",
        "two_grid_factor_l4",
        "approximation_constant_l5", "smoothed_projection_l5",
        "two_grid_factor_l5",
        "approximation_constant_l6", "smoothed_projection_l6",
        "comparison_n1", "comparison_n2"]
    assert models == [2, 3, 4, 5, 6]
    assert calls[-2:] == [("comparison", 1, 10, 9), ("comparison", 2, 10, 9)]
    assert ("approximation_constant", 4, (30, 9, ("model", 4)), {}) in calls
    assert ("smoothed_projection", 6, (30, 9, ("model", 6)), {}) in calls
    assert ("error_representation", 3, (), {"seed": 9}) in calls
    two_grid = reports[3]
    assert two_grid.passed and two_grid.samples == 0
    assert two_grid.measured == {"delta_bar": 0.2,
                                 "required_n": float(required_n(0.2))}


@pytest.mark.parametrize("samples", [0, -3])
def test_run_suite_needs_a_sample(samples):
    with pytest.raises(ValueError, match="samples must be >= 1"):
        run_suite(object(), [2], samples=samples)


def test_c1_uniform_across_poisson_levels():
    values = []
    for k in (3, 4, 5):
        h = build_geometric("poisson", k)
        values.append(check_approximation_constant(h, k).measured["c1_hat"])
    assert max(values) / min(values) < 2.0


def test_c1_jump_shows_regularity_loss():
    hp = build_geometric("poisson", 3)
    hj = build_geometric("jump", 3)
    cp = check_approximation_constant(hp, 3).measured["c1_hat"]
    cj = check_approximation_constant(hj, hj.n_levels).measured["c1_hat"]
    assert cj > 10.0 * cp


def test_smoothed_projection_delta_below_one(h4):
    rep = check_smoothed_projection_bound(h4, 4)
    assert rep.passed
    assert rep.measured["delta_hat"] < 1.0
    eta = rep.measured["eta_hat"]
    assert rep.measured["delta_hat"] == pytest.approx(eta / (1 + eta))


class CountingMatrix:
    """A level matrix that counts its products with vectors; spmv hands
    any type but csr_matrix and csc_matrix to `@`, so a_norm counts too."""

    def __init__(self, M):
        self.M, self.shape, self.products = M, M.shape, 0

    def __matmul__(self, x):
        self.products += 1
        return self.M @ x

    def toarray(self):
        return self.M.toarray()


def test_theory_checks_form_each_product_once(h4):
    """Per sample, c1 forms A v and A(v - Pi v) and eta forms A v, A vhat
    and A(vhat - Pi vhat); the dense two-grid model forms A e once per unit
    column.  Ten more samples cost exactly that many more products (the
    power iteration and the dense candidate cost the same at both sizes)."""
    def products(run):
        A = CountingMatrix(h4.level(4).A)
        run(with_parts(h4, 4, A=A))
        return A.products

    for check, per_sample in ((check_approximation_constant, 2),
                              (check_smoothed_projection_bound, 3)):
        counts = [products(lambda h: check(h, 4, samples=samples))
                  for samples in (10, 20)]
        assert counts[1] - counts[0] == 10 * per_sample, check.__name__
    assert products(lambda h: _two_grid_model(h, 4)) == h4.level(4).A.shape[0]


def test_eta_consistent_with_constant_ratio_richardson():
    """The bound's natural constant is eta = c1/c2.  The inequality chain
    behind it is modeled on a Richardson-type smoother, for which the
    measured eta agrees with c1/c2 within a factor of four."""
    spec = SmootherSpec("richardson", 1.0)
    h = build_geometric("poisson", 4, smoother=spec)
    c1 = check_approximation_constant(h, 4).measured["c1_hat"]
    c2 = _smoothing_constant(h, 4)
    eta = check_smoothed_projection_bound(h, 4).measured["eta_hat"]
    ratio = eta / (c1 / c2)
    assert 0.25 <= ratio <= 4.0


def _smoothing_constant(h, k):
    """c2 = rho(A) / lambda_max(A^2, A - F^t A F) on the two-grid model,
    F = I - R A.  As A - F^t A F = A (R + R^t - R^t A R) A, this is rho(A)
    times the least eigenvalue of R + R^t - R^t A R, which is that of the
    composite R + R^t - R A R^t when R is symmetric or, for Gauss-Seidel,
    when A's diagonal is constant (the two are R^t D R and R D R^t)."""
    A, _S, F = _two_grid_model(h, k)
    return spectral_radius(h.level(k).A) / _pencil_top(A @ A, A - F.T @ A @ F)[0]


@pytest.mark.parametrize("kind, weight", [("gs", 1.0), ("jacobi", 0.7)])
@pytest.mark.parametrize("k", [3, 4])
def test_smoothing_constant_matches_dense_composite(kind, weight, k):
    h = build_geometric("poisson", k, smoother=SmootherSpec(kind, weight))
    lv = h.level(k)
    eye = np.eye(lv.A.shape[0])
    R = np.column_stack([lv.smoother.apply(e) for e in eye])
    Rt = np.column_stack([lv.smoother.apply_transpose(e) for e in eye])
    composite = R + Rt - R @ lv.A.toarray() @ Rt
    lam_min = np.linalg.eigvalsh((composite + composite.T) * 0.5)[0]
    oracle = spectral_radius(lv.A) * lam_min
    assert _smoothing_constant(h, k) == pytest.approx(oracle, rel=1e-12)


def test_smoothing_constant_stable_across_levels():
    vals = [_smoothing_constant(build_geometric("poisson", k), k)
            for k in (3, 4, 5)]
    assert max(vals) / min(vals) < 1.5


@pytest.mark.parametrize("k", [2, 3])
def test_error_representation_identities(k, h4):
    rep = check_error_representation(h4, k)
    assert rep.passed, rep.measured
    assert rep.violation <= 1e-12


def test_error_representation_smoother_free_reduction():
    """With R = 0 the nonsymmetric operator reduces to the lifted coarse
    solve: Bhat_ns[v] = P Btilde_ns[P^t v]."""
    from mgbench import apply_amli_ns, nonlinear_pcg

    class ZeroSmoother:
        def apply(self, f):
            return np.zeros_like(f)

        def apply_transpose(self, f):
            return np.zeros_like(f)

    h = with_parts(build_geometric("poisson", 3), 3, smoother=ZeroSmoother())
    params = CycleParams(n_inner=1)
    P = h.level(2).P_to_finer
    rng = np.random.default_rng(1)
    v = rng.standard_normal(h.level(3).A.shape[0])
    lhs = apply_amli_ns(h, 3, v, params)
    rhs = P @ nonlinear_pcg(h.level(2).A,
                            lambda g: apply_amli_ns(h, 2, g, params),
                            P.T @ v, params)
    assert np.linalg.norm(lhs - rhs) <= 1e-13 * np.linalg.norm(rhs)


def test_two_grid_factor_exact_smoother_is_zero():
    from mgbench import DenseFactorization

    class ExactSmoother:
        def __init__(self, A):
            self.F = DenseFactorization(A)

        def apply(self, f):
            return self.F.solve(f)

        apply_transpose = apply

    h = build_geometric("poisson", 2)
    h = with_parts(h, 2, smoother=ExactSmoother(h.level(2).A))
    assert check_two_grid_factor(h, 2) <= 1e-10


def test_two_grid_factor_poisson_meets_n2_threshold():
    h = build_geometric("poisson", 3)
    factor = check_two_grid_factor(h, 3)
    assert factor < 0.5
    assert required_n(factor) == 2


def test_comparison_suite_passes_full(h4):
    rep = check_comparison_suite(h4, CycleParams(n_inner=1), samples=15)
    assert rep.passed, rep.measured
    assert rep.measured["tilde_vs_backslash_max_ratio"] < 1.0


def test_comparison_suite_truncated_records_identity_gap(h4):
    rep = check_comparison_suite(h4, CycleParams(n_inner=3, truncation="sd"),
                                 samples=10)
    # the nonsymmetric chain must still hold for steepest descent; the
    # quadratic-form identity is only recorded, not asserted
    assert rep.passed, rep.measured
    assert np.isfinite(rep.measured["identity_max_rel"])


def reference_comparison_measured(h, params, samples, seed):
    """check_comparison_suite's measured values as its loop computed them
    before it reused A v and A e_t: each energy norm forms its own product
    with a_norm."""
    from mgbench import (a_norm, apply_amli, apply_amli_ns, apply_amli_tilde,
                         apply_amli_tilde_ns, apply_backslash, apply_v_cycle)
    from mgbench.linalg import spmv

    rng = rng_for(seed, "comparison_suite")
    min_slack_sym = min_slack_ns = np.inf
    max_identity_rel = max_ratio = 0.0
    for k in range(2, h.n_levels + 1):
        A = h.level(k).A
        for _ in range(samples):
            v = rng.standard_normal(A.shape[0])
            nv2 = a_norm(A, v) ** 2
            if nv2 == 0.0:
                continue
            Av = spmv(A, v)
            e_t = v - apply_amli_tilde(h, k, Av, params)
            e_h = v - apply_amli(h, k, Av, params)
            e_v = v - apply_v_cycle(h, k, Av)
            q_t = float(spmv(A, e_t).dot(v))
            q_h = float(spmv(A, e_h).dot(v))
            q_v = float(spmv(A, e_v).dot(v))
            min_slack_sym = min(min_slack_sym, q_t / nv2,
                                (q_h - q_t) / nv2, (q_v - q_h) / nv2)
            r_t = a_norm(A, e_t)
            max_identity_rel = max(max_identity_rel, abs(r_t ** 2 - q_t) / nv2)
            r_tn = a_norm(A, v - apply_amli_tilde_ns(h, k, Av, params))
            r_hn = a_norm(A, v - apply_amli_ns(h, k, Av, params))
            r_bn = a_norm(A, v - apply_backslash(h, k, Av))
            nv = np.sqrt(nv2)
            min_slack_ns = min(min_slack_ns, (r_hn - r_tn) / nv,
                               (r_bn - r_hn) / nv)
            if r_bn > 0.0:
                max_ratio = max(max_ratio, r_t / r_bn)
    return {"sym_chain_min_slack": min_slack_sym,
            "ns_chain_min_slack": min_slack_ns,
            "identity_max_rel": max_identity_rel,
            "tilde_vs_backslash_max_ratio": max_ratio}


@pytest.mark.parametrize("params", [CycleParams(n_inner=1), CycleParams(n_inner=2),
                                    CycleParams(n_inner=2, truncation="sd")],
                         ids=["n1", "n2", "sd"])
@pytest.mark.parametrize("problem", ["poisson", "jump"])
def test_comparison_suite_matches_reference_loop(problem, params):
    h = build_geometric(problem, 4)
    rep = check_comparison_suite(h, params, samples=4, seed=7)
    reference = reference_comparison_measured(h, params, 4, 7)
    assert {key: float(x).hex() for key, x in rep.measured.items()} == \
        {key: float(x).hex() for key, x in reference.items()}


def test_zero_vector_maps_to_zero(h4):
    from mgbench import apply_amli_tilde

    z = np.zeros(h4.finest.A.shape[0])
    assert not apply_amli_tilde(h4, 4, z, CycleParams(n_inner=2)).any()


def test_checks_are_deterministic(h4):
    a = check_approximation_constant(h4, 4, samples=20, seed=42)
    b = check_approximation_constant(h4, 4, samples=20, seed=42)
    assert a.measured == b.measured
    c = check_comparison_suite(h4, CycleParams(n_inner=1), samples=5, seed=42)
    d = check_comparison_suite(h4, CycleParams(n_inner=1), samples=5, seed=42)
    assert c.measured == d.measured


def test_rng_for_is_name_sensitive():
    a = rng_for(1, "alpha").standard_normal(4)
    b = rng_for(1, "beta").standard_normal(4)
    assert not np.array_equal(a, b)


def test_csv_row_format(h4):
    rep = check_smoothed_projection_bound(h4, 4, samples=10)
    row = rep.csv_row()
    assert row.startswith("smoothed_projection_l4,")
    assert row.count(",") == 4
