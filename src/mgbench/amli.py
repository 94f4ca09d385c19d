"""Nonlinear PCG and the AMLI cycles built on it, plus the outer driver.

The nonlinear (flexible) PCG accepts an arbitrary nonlinear operator as a
preconditioner and explicitly A-orthogonalizes each new search direction
against stored ones: all of them (full version), a sliding window of the
most recent m+1 (window m), or none (preconditioned steepest descent).

The AMLI cycles replace the single coarse-grid solve of the linear cycles
by n_inner steps of this PCG, preconditioned by the coarser-level cycle.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import inner

RESIDUAL_EXIT_REL = 1e-14
BREAKDOWN_REL = 1e-30
DIVERGENCE_FACTOR = 1e6


class PCGBreakdownError(RuntimeError):
    pass


@dataclass(frozen=True)
class CycleParams:
    """Inner-iteration configuration for the nonlinear AMLI cycles.

    truncation is 'full', 'sd' (steepest descent, no orthogonalization),
    or a non-negative int m (orthogonalize against the m+1 most recent
    directions).
    """
    n_inner: int = 1
    truncation: object = "full"
    kind: str = "amli_symmetric"

    def __post_init__(self):
        if self.n_inner < 1:
            raise ValueError("n_inner must be >= 1, got %d" % self.n_inner)
        t = self.truncation
        if not (t == "full" or t == "sd" or (isinstance(t, int) and t >= 0)):
            raise ValueError("truncation must be 'full', 'sd' or an int m >= 0, "
                             "got %r" % (t,))
        if self.kind not in ("amli_symmetric", "amli_nonsymmetric"):
            raise ValueError("unknown cycle kind %r" % self.kind)


@dataclass
class PcgState:
    """Iterate, residual and stored search directions of one PCG invocation."""
    iterate: np.ndarray
    residual: np.ndarray
    directions: list = field(default_factory=list)   # (p, A p, (p, p)_A)
    residuals: list = field(default_factory=list)    # r_0 .. r_n


def run_pcg(A, precond, f, params):
    """Run n_inner nonlinear PCG steps for A u = f and return the full state.

    Step i computes p_i = precond(r_i) - sum_j beta_ij p_j over the
    truncation set, with beta_ij = (A precond(r_i), p_j)/(p_j, p_j)_A, then
    u_{i+1} = u_i + alpha_i p_i,  r_{i+1} = r_i - alpha_i A p_i,
    alpha_i = (r_i, p_i)/(p_i, p_i)_A.
    Exits early once ||r|| <= 1e-14 ||f||; a direction with vanishing energy
    raises PCGBreakdownError.
    """
    f = np.asarray(f, float)
    u = np.zeros_like(f)
    r = f.copy()
    state = PcgState(iterate=u, residual=r, residuals=[r.copy()])
    f_norm = np.linalg.norm(f)
    if f_norm == 0.0:
        return state

    trunc = params.truncation
    for _ in range(params.n_inner):
        p = np.asarray(precond(r), float)
        if trunc == "full":
            against = state.directions
        elif trunc == "sd":
            against = ()
        else:
            against = state.directions[-(trunc + 1):]
        if against:
            Ap0 = A @ p
            for pj, _apj, paj in against:
                p = p - (inner(Ap0, pj) / paj) * pj
        Ap = A @ p
        p_energy = inner(p, Ap)
        if p_energy <= BREAKDOWN_REL * inner(p, p):
            raise PCGBreakdownError("PCG breakdown: zero-energy direction")
        alpha = inner(r, p) / p_energy
        u = u + alpha * p
        r = r - alpha * Ap
        state.directions.append((p, Ap, p_energy))
        state.residuals.append(r.copy())
        state.iterate = u
        state.residual = r
        if np.linalg.norm(r) <= RESIDUAL_EXIT_REL * f_norm:
            break
    return state


def nonlinear_pcg(A, precond, f, params):
    """u_n after n_inner nonlinear PCG steps with the given preconditioner."""
    return run_pcg(A, precond, f, params).iterate


def apply_amli_ns(h, k, f, params):
    """Nonsymmetric nonlinear AMLI cycle (pre-smoothing only) at level k."""
    lv = h.level(k)
    if k == 1:
        return h.coarsest_solver.solve(f)
    u1 = lv.smoother.apply(f)
    P = h.level(k - 1).P_to_finer
    g = P.T @ (f - lv.A @ u1)
    coarse = nonlinear_pcg(h.level(k - 1).A,
                           lambda rr: apply_amli_ns(h, k - 1, rr, params),
                           g, params)
    return u1 + P @ coarse


def apply_amli(h, k, f, params):
    """Symmetric nonlinear AMLI cycle (pre- and post-smoothing) at level k."""
    lv = h.level(k)
    if k == 1:
        return h.coarsest_solver.solve(f)
    u1 = lv.smoother.apply(f)
    P = h.level(k - 1).P_to_finer
    g = P.T @ (f - lv.A @ u1)
    coarse = nonlinear_pcg(h.level(k - 1).A,
                           lambda rr: apply_amli(h, k - 1, rr, params),
                           g, params)
    u2 = u1 + P @ coarse
    return u2 + lv.smoother.apply_transpose(f - lv.A @ u2)


def apply_amli_tilde(h, k, f, params):
    """n_inner PCG steps at level k preconditioned by the symmetric AMLI cycle."""
    return nonlinear_pcg(h.level(k).A,
                         lambda rr: apply_amli(h, k, rr, params),
                         f, params)


def apply_amli_tilde_ns(h, k, f, params):
    """n_inner PCG steps at level k preconditioned by the nonsymmetric AMLI cycle."""
    return nonlinear_pcg(h.level(k).A,
                         lambda rr: apply_amli_ns(h, k, rr, params),
                         f, params)


def required_n(delta_bar):
    """Sufficient inner-iteration count for uniformity given a two-grid factor.

    Smallest integer n with n > 1/(1 - delta_bar); reporting aid only.
    """
    if not 0.0 <= delta_bar < 1.0:
        raise ValueError("two-grid factor must lie in [0, 1), got %g" % delta_bar)
    return math.floor(1.0 / (1.0 - delta_bar)) + 1


def _monotone(history):
    return all(b <= a * (1.0 + 1e-14) for a, b in zip(history, history[1:]))


@dataclass
class SolveReport:
    """Outcome of stationary_solve; status is 'converged', 'max_iter',
    'diverged' or 'nonfinite'."""
    iterations: int
    status: str
    residual_history: list
    energy_error_history: list = None
    measured_final_contraction: float = float("nan")
    residual_monotone: bool = True
    energy_monotone: bool = None

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def diverged(self):
        return self.status == "diverged"


def stationary_solve(operator, A, f, u0=None, tol=1e-6, tol_kind="rel_residual",
                     max_iter=2000, u_exact=None):
    """Iterate u <- u + operator(f - A u) until the stopping criterion holds.

    tol_kind 'rel_residual' stops when ||f - A u|| <= tol * ||f||; tol_kind
    'energy_error' stops when ||u - u_exact||_A <= tol (absolute) and
    requires u_exact.  The report's status names the exit: 'converged',
    'max_iter' (max_iter iterations without meeting tol), 'diverged' (the
    residual grew by 1e6 over its starting value) or 'nonfinite' (the
    residual or energy error became inf or NaN).
    """
    if tol_kind not in ("rel_residual", "energy_error"):
        raise ValueError("unknown tol_kind %r" % tol_kind)
    if tol_kind == "energy_error" and u_exact is None:
        raise ValueError("energy_error stopping requires u_exact")
    f = np.asarray(f, float)
    u = np.zeros_like(f) if u0 is None else np.asarray(u0, float).copy()
    if u.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch: matrix is %d, initial guess "
                         "has length %d" % (A.shape[0], u.shape[0]))

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
        if tol_kind == "rel_residual":
            return residual_history[-1] / f_scale
        return energy_history[-1]

    def status():
        """The status a stop now would report; the loop runs while it is 'max_iter'."""
        if not math.isfinite(residual_history[-1]) or not math.isfinite(monitored()):
            return "nonfinite"
        if residual_history[-1] > DIVERGENCE_FACTOR * max(start, f_scale):
            return "diverged"
        return "converged" if monitored() <= tol else "max_iter"

    iterations = 0
    while status() == "max_iter" and iterations < max_iter:
        u = u + operator(r)
        iterations += 1
        r = f - A @ u
        residual_history.append(float(np.linalg.norm(r)))
        if energy_history is not None:
            energy_history.append(energy_error(u))

    history = residual_history if tol_kind == "rel_residual" else energy_history
    contraction = float("nan")
    if len(history) >= 2 and history[-2] > 0.0:
        contraction = history[-1] / history[-2]
    return SolveReport(
        iterations=iterations,
        status=status(),
        residual_history=residual_history,
        energy_error_history=energy_history,
        measured_final_contraction=contraction,
        residual_monotone=_monotone(residual_history),
        energy_monotone=_monotone(energy_history) if energy_history else None,
    )
