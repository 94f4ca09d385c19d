"""Executable numeric checks for the convergence theory behind the cycles.

Each check samples random vectors from a seed derived from (global seed,
check name), measures the relevant identity/inequality, and returns a
CheckReport whose `passed` flag means `violation <= tolerance`.  Constants
estimated from samples are evidence, never certified suprema/infima.
"""
import functools
import zlib
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .amli import CycleParams, apply_amli, apply_amli_ns, apply_amli_tilde, \
    apply_amli_tilde_ns, apply_backslash, apply_v_cycle, required_n
from .linalg import DenseFactorization, a_norm, energy_norm, \
    spectral_radius, spmv

DEFAULT_SEED = 20240501
DEFAULT_SAMPLES = 100


def rng_for(seed, name):
    """Independent generator for one named check under a global seed."""
    return np.random.default_rng(
        np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


@dataclass
class CheckReport:
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    violation: float = 0.0
    tolerance: float = float("inf")
    samples: int = 0

    def csv_row(self):
        vals = ";".join("%s=%.6e" % (k, v) for k, v in self.measured.items())
        return "%s,%s,%s,%.3e,%d" % (self.name, str(self.passed).lower(),
                                     vals, self.tolerance, self.samples)


_CANDIDATE_LIMIT = 1500   # dense extremal candidates only below this size


def _coarse_projector(h, k):
    """A-orthogonal projection onto the next-coarser space at level k as a
    function of the formed product: A v -> P (P^t A P)^{-1} P^t A v, with a
    dense factorization of the coarse operator (within the dense limit)."""
    coarser = h.level(k - 1)
    P, R = coarser.P_to_finer, coarser.R
    coarse = DenseFactorization(coarser.A)

    def project(Av):
        return P @ coarse.solve(R @ Av)

    return project


def _two_grid_model(h, k):
    """Dense A, S = A(I - Pi) (symmetrized) and F = I - R A at level k, with
    R the level's smoother.  Every dense quantity here is a pencil of them:
    E = (I - R^t A)(I - Pi)(I - R A) is A-self-adjoint with A E = F^t S F."""
    lv = h.level(k)
    project = _coarse_projector(h, k)
    columns = [(e, lv.A @ e) for e in np.eye(lv.A.shape[0])]
    A = lv.A.toarray()
    S = A @ np.column_stack([e - project(Ae) for e, Ae in columns])
    F = np.column_stack([e - lv.smoother.apply(Ae) for e, Ae in columns])
    return A, (S + S.T) * 0.5, F


def _pencil_top(num, den, semidefinite=False):
    """Top eigenpair of num v = lambda den v, both symmetrized.  A semidefinite
    den is shifted by 1e-12 trace(den)/n; any other den that is not positive
    definite raises LinAlgError, a ValueError."""
    den = (den + den.T) * 0.5
    if semidefinite:
        den = den + 1e-12 * max(np.trace(den) / len(den), 1e-300) * np.eye(len(den))
    w, vecs = sla.eigh((num + num.T) * 0.5, den)
    return float(w[-1]), vecs[:, -1]


def _lazy_model(h, k):
    """A function that builds _two_grid_model(h, k) on its first call and
    returns that model on every call."""
    return functools.cache(functools.partial(_two_grid_model, h, k))


def check_approximation_constant(h, k, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """Estimate c1 in ||(I-Pi)v||_A^2 <= c1/rho(A) ||A v||^2 by sampling.

    The pool is random vectors plus, at dense-feasible sizes, the extremal
    Rayleigh candidate of the pencil (A(I-Pi), A^2); random sampling alone
    badly underestimates the supremum.  Still an estimate, not a certificate.
    """
    return _approximation_constant(h, k, samples, seed, _lazy_model(h, k))


def _approximation_constant(h, k, samples, seed, model):
    """check_approximation_constant, given _lazy_model(h, k)."""
    lv = h.level(k)
    n = lv.A.shape[0]
    project = _coarse_projector(h, k)
    rho = spectral_radius(lv.A)
    rng = rng_for(seed, "approximation_constant_l%d" % k)
    pool = [rng.standard_normal(n) for _ in range(samples)]
    if n <= _CANDIDATE_LIMIT:
        A, S, _F = model()
        pool.append(_pencil_top(S, A @ A, semidefinite=True)[1])
    c1 = 0.0
    for v in pool:
        Av = lv.A @ v
        den = float(np.dot(Av, Av))
        if den > 0.0:
            c1 = max(c1, rho * a_norm(lv.A, v - project(Av)) ** 2 / den)
    return CheckReport(name="approximation_constant_l%d" % k,
                       passed=np.isfinite(c1) and c1 > 0.0,
                       measured={"c1_hat": c1, "rho": rho},
                       violation=0.0, tolerance=float("inf"), samples=len(pool))


def check_smoothed_projection_bound(h, k, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """Estimate eta in ||(I-Pi)vhat||_A^2 <= eta (||v||_A^2 - ||vhat||_A^2).

    vhat = (I - R A)v with the level's own smoother.  As above the pool is
    random vectors plus a dense extremal candidate when feasible.
    Near-degenerate denominators (below 1e-14 ||v||_A^2) are skipped; a
    negative denominator means the smoother is not A-convergent and raises.
    """
    return _smoothed_projection_bound(h, k, samples, seed, _lazy_model(h, k))


def _smoothed_projection_bound(h, k, samples, seed, model):
    """check_smoothed_projection_bound, given _lazy_model(h, k)."""
    lv = h.level(k)
    n = lv.A.shape[0]
    project = _coarse_projector(h, k)
    rng = rng_for(seed, "smoothed_projection_l%d" % k)
    pool = [rng.standard_normal(n) for _ in range(samples)]
    if n <= _CANDIDATE_LIMIT:
        A, S, F = model()
        pool.append(_pencil_top(F.T @ S @ F, A - F.T @ A @ F,
                                semidefinite=True)[1])
    eta = 0.0
    used = 0
    for v in pool:
        Av = lv.A @ v
        vhat = v - lv.smoother.apply(Av)
        Avhat = lv.A @ vhat
        nv = energy_norm(Av, v) ** 2
        den = nv - energy_norm(Avhat, vhat) ** 2
        guard = 1e-14 * nv
        if den < -guard:
            raise RuntimeError("smoother not A-convergent: energy grew by %.3e" % -den)
        if den < guard:
            continue
        used += 1
        eta = max(eta, a_norm(lv.A, vhat - project(Avhat)) ** 2 / den)
    delta = eta / (1.0 + eta)
    return CheckReport(name="smoothed_projection_l%d" % k,
                       passed=delta < 1.0 and used > 0,
                       measured={"eta_hat": eta, "delta_hat": delta},
                       violation=max(0.0, delta - 1.0), tolerance=0.0,
                       samples=used)


def check_error_representation(h, k, params=None, samples=20, seed=DEFAULT_SEED):
    """Verify the error/operator decompositions of the AMLI cycles at level k.

    The two error forms (for the nonsymmetric and symmetric cycle) are
    compared column-by-column as dense operators; the two operator
    decompositions are compared on random vectors.  All four must agree to
    1e-12 relative.
    """
    if params is None:
        params = CycleParams(n_inner=1)
    lv = h.level(k)
    A = lv.A
    n = A.shape[0]
    P, restrict = h.level(k - 1).P_to_finer, h.level(k - 1).R
    R = lv.smoother.apply
    Rt = lv.smoother.apply_transpose

    # key order is the order of the measured values in the CSV row
    worst = dict.fromkeys(("error_form_ns", "operator_form_ns",
                           "error_form_sym", "operator_form_sym"), 0.0)
    scale = dict(worst)

    def record(key, lhs, rhs):
        worst[key] = max(worst[key], float(np.linalg.norm(lhs - rhs)))
        scale[key] = max(scale[key], float(np.linalg.norm(rhs)))

    for e in np.eye(n):
        Ae = A @ e
        vhat = e - R(Ae)
        record("error_form_ns", e - apply_amli_ns(h, k, Ae, params),
               vhat - P @ apply_amli_tilde_ns(h, k - 1, restrict @ (A @ vhat), params))
        w = vhat - P @ apply_amli_tilde(h, k - 1, restrict @ (A @ vhat), params)
        record("error_form_sym", e - apply_amli(h, k, Ae, params), w - Rt(A @ w))

    rng = rng_for(seed, "error_representation_l%d" % k)
    for _ in range(samples):
        v = rng.standard_normal(n)
        rv = R(v)
        record("operator_form_ns", apply_amli_ns(h, k, v, params),
               rv + P @ apply_amli_tilde_ns(h, k - 1, restrict @ (v - A @ rv), params))
        rbar = rv + Rt(v - A @ rv)
        w = P @ apply_amli_tilde(h, k - 1, restrict @ (v - A @ rv), params)
        record("operator_form_sym", apply_amli(h, k, v, params), rbar + w - Rt(A @ w))

    rel = {key: worst[key] / max(scale[key], 1e-300) for key in worst}
    violation = max(rel.values())
    return CheckReport(name="error_representation_l%d" % k,
                       passed=violation <= 1e-12,
                       measured=rel, violation=violation, tolerance=1e-12,
                       samples=n + samples)


def check_two_grid_factor(h, k):
    """A-norm of the symmetric two-grid error propagator E at level k (dense):
    E is A-self-adjoint and A-semidefinite, so ||E||_A is the top eigenvalue
    of the pencil (A E, A) = (F^t S F, A).  A non-SPD level raises ValueError."""
    return _two_grid_factor(_two_grid_model(h, k))


def _two_grid_factor(model):
    A, S, F = model
    return _pencil_top(F.T @ S @ F, A)[0]


def check_comparison_suite(h, params=None, samples=DEFAULT_SAMPLES,
                           seed=DEFAULT_SEED):
    """Sample the comparison chains between AMLI cycles and linear cycles.

    Measures, over random v at every level above the coarsest:
      - the symmetric chain 0 <= (v - Bt[Av], v)_A <= (v - Bh[Av], v)_A
        <= (v - B_V A v, v)_A  (slack normalized by ||v||_A^2),
      - the nonsymmetric chain ||v - Bt_ns[Av]||_A <= ||v - Bh_ns[Av]||_A
        <= ||v - B_ns A v||_A  (slack normalized by ||v||_A),
      - the quadratic-form identity ||v - Bt[Av]||_A^2 = (v - Bt[Av], v)_A
        (exact for the full PCG only; its violation is recorded either way),
      - the ratio ||v - Bt[Av]||_A / ||v - B_ns A v||_A (expected < 1).

    Only the nonsymmetric chain is asserted for truncated/steepest-descent
    runs; the symmetric chain and the identity rest on the residual
    orthogonality that the full version alone guarantees, so for truncated
    runs they are recorded without contributing to pass/fail.
    """
    if params is None:
        params = CycleParams(n_inner=1)
    rng = rng_for(seed, "comparison_suite")
    min_slack_sym = np.inf
    min_slack_ns = np.inf
    max_identity_rel = 0.0
    max_ratio = 0.0
    total = 0
    for k in range(2, h.n_levels + 1):
        A = h.level(k).A
        n = A.shape[0]
        for _ in range(samples):
            v = rng.standard_normal(n)
            Av = spmv(A, v)
            nv2 = energy_norm(Av, v) ** 2
            if nv2 == 0.0:
                continue
            total += 1

            e_t = v - apply_amli_tilde(h, k, Av, params)
            e_h = v - apply_amli(h, k, Av, params)
            e_v = v - apply_v_cycle(h, k, Av)
            Ae_t = spmv(A, e_t)
            q_t = float(Ae_t.dot(v))
            q_h = float(spmv(A, e_h).dot(v))
            q_v = float(spmv(A, e_v).dot(v))
            min_slack_sym = min(min_slack_sym, q_t / nv2,
                                (q_h - q_t) / nv2, (q_v - q_h) / nv2)

            # identity gap normalized by the input energy: the forms are
            # computed from O(||v||)-sized intermediates, so ||v||_A^2 is
            # the scale floating point can resolve against
            r_t = energy_norm(Ae_t, e_t)
            max_identity_rel = max(max_identity_rel, abs(r_t ** 2 - q_t) / nv2)

            e_tn = v - apply_amli_tilde_ns(h, k, Av, params)
            e_hn = v - apply_amli_ns(h, k, Av, params)
            e_bn = v - apply_backslash(h, k, Av)
            r_tn = a_norm(A, e_tn)
            r_hn = a_norm(A, e_hn)
            r_bn = a_norm(A, e_bn)
            nv = np.sqrt(nv2)
            min_slack_ns = min(min_slack_ns, (r_hn - r_tn) / nv,
                               (r_bn - r_hn) / nv)

            if r_bn > 0.0:
                max_ratio = max(max_ratio, r_t / r_bn)

    full = params.truncation == "full"
    pieces = [max(0.0, -min_slack_ns) / 1e-12]
    if full:
        pieces.append(max(0.0, -min_slack_sym) / 1e-12)
        pieces.append(max(0.0, max_ratio - 1.0) / 1e-12)
        pieces.append(max_identity_rel / 1e-10)
    violation = max(pieces)
    return CheckReport(
        name="comparison_suite_%s_n%d" % (str(params.truncation), params.n_inner),
        passed=violation <= 1.0,
        measured={"sym_chain_min_slack": min_slack_sym,
                  "ns_chain_min_slack": min_slack_ns,
                  "identity_max_rel": max_identity_rel,
                  "tilde_vs_backslash_max_ratio": max_ratio},
        violation=violation, tolerance=1.0, samples=total)


def require_samples(samples):
    """Raise ValueError unless samples >= 1, run_suite's rule."""
    if samples < 1:
        raise ValueError("samples must be >= 1, got %d" % samples)


def run_suite(h, levels, samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """The `mgbench verify` suite on hierarchy h, one report per CSV row:
    per hierarchy index k in `levels` (1 = coarsest, k < 2 skipped) c1, eta,
    the error representation at k <= 3 and the dense two-grid factor at
    k <= 5; then the comparison chains with n = 1 and 2 over all levels.
    Each level's dense two-grid model is built once, for all three of its
    dense checks."""
    require_samples(samples)
    reports = []
    for k in levels:
        if k < 2:
            continue
        model = _lazy_model(h, k)
        reports.append(_approximation_constant(h, k, samples, seed, model))
        reports.append(_smoothed_projection_bound(h, k, samples, seed, model))
        if k <= 3:
            reports.append(check_error_representation(h, k, seed=seed))
        if k <= 5:
            factor = _two_grid_factor(model())
            reports.append(CheckReport(
                name="two_grid_factor_l%d" % k,
                passed=factor < 1.0,
                measured={"delta_bar": factor,
                          "required_n": float(required_n(factor))},
                violation=max(0.0, factor - 1.0), tolerance=0.0, samples=0))
    for n_inner in (1, 2):
        reports.append(check_comparison_suite(h, CycleParams(n_inner=n_inner),
                                              samples=max(10, samples // 5),
                                              seed=seed))
    return reports
