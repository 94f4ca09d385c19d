"""The multigrid cycle engine, nonlinear PCG, and the outer driver.

The nonlinear (flexible) PCG accepts an arbitrary nonlinear operator as a
preconditioner and explicitly A-orthogonalizes each new search direction
against stored ones: all of them (full version), a sliding window of the
most recent m+1 (window m), or none (preconditioned steepest descent).

Every cycle is one recursion: apply_cycle checks its level and vector once,
and _visit recurses.  The linear \\- and V-cycles correct with the same
cycle one level down; the AMLI cycles replace that coarse-grid solve by
n_inner steps of this PCG, preconditioned by the coarser-level cycle.  On
level 2 that PCG would be preconditioned by the exact solve A_1^{-1}, and
its first step (alpha = 1) is A_1^{-1} g, so every cycle takes the coarsest
solve itself there, as the K-cycle does.  Restriction is the prolongator
transpose, which each level stores once (Level.R).

Iterates are updated in place: u += c makes the same additions in the same
order as u = u + c, so no result changes, and a cycle holds up to one
full-size vector fewer at its peak (run_pcg forms its iterate on return,
see there).  That relies on a contract: the smoother's apply and
apply_transpose and the coarsest solver's solve each return a new array
that shares no memory with its input.  Every BoundSmoother path and
DenseFactorization.solve does so, and so every cycle returns an array of
its own.  Nothing updates f, a residual or a search direction in place:
PcgState keeps them.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import spmv

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

    kind is validated but no cycle reads it: the cycle function called
    (apply_amli or apply_amli_ns, and their tilde forms) picks the symmetric
    or nonsymmetric form.  It stays because acceptance criterion 7 passes it.
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
    Exits before a step once ||r|| <= 1e-14 ||f||; a direction with
    vanishing energy raises PCGBreakdownError, and an f whose length is
    not A's raises ValueError.

    The AMLI cycles call this thousands of times on small levels, so its own
    work is kept low.  Residuals are stored uncopied: r is only ever rebound,
    never updated in place, and r_0 is a copy of f.  The iterate is formed
    on return from the stored directions: alpha_0 p_0, a new array, then
    each later alpha_i p_i added into it in place, the additions of
    u_{i+1} = u_i + alpha_i p_i in their order.  So no iterate is held
    while the preconditioner runs, where a cycle's own arrays and the
    sparse solver's workspace peak.  Starting from alpha_0 p_0 rather than
    0 + alpha_0 p_0 can differ only in the sign of an exact zero.  Inner
    products are x.dot(y), the kernel np.dot ends in without np.dot's
    dispatch, and norms sqrt(r.r), as np.linalg.norm computes them.  The
    state is built once, on return.
    """
    f = np.asarray(f, float)
    if f.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch: matrix is %d, right-hand side "
                         "has length %d" % (A.shape[0], f.shape[0]))
    r = f.copy()
    directions = []
    residuals = [r]
    f_norm = math.sqrt(r.dot(r))
    if f_norm == 0.0:
        return PcgState(np.zeros_like(f), r, directions, residuals)

    trunc = params.truncation
    alphas = []
    for i in range(params.n_inner):
        if i and math.sqrt(r.dot(r)) <= RESIDUAL_EXIT_REL * f_norm:
            break
        p = np.asarray(precond(r), float)
        if trunc == "full":
            against = directions
        elif trunc == "sd":
            against = ()
        else:
            against = directions[-(trunc + 1):]
        if against:
            Ap0 = spmv(A, p)
            for pj, _apj, paj in against:
                p = p - (float(Ap0.dot(pj)) / paj) * pj
        Ap = spmv(A, p)
        p_energy = float(p.dot(Ap))
        if p_energy <= BREAKDOWN_REL * float(p.dot(p)):
            raise PCGBreakdownError("PCG breakdown: zero-energy direction")
        alpha = float(r.dot(p)) / p_energy
        alphas.append(alpha)
        r = r - alpha * Ap
        directions.append((p, Ap, p_energy))
        residuals.append(r)
    u = alphas[0] * directions[0][0]
    for alpha, (p, _ap, _energy) in zip(alphas[1:], directions[1:]):
        u += alpha * p
    return PcgState(u, r, directions, residuals)


def nonlinear_pcg(A, precond, f, params):
    """u_n after n_inner nonlinear PCG steps with the given preconditioner."""
    return run_pcg(A, precond, f, params).iterate


def apply_cycle(h, k, f, symmetric, params=None):
    """One multigrid cycle at level k with a zero initial guess.

    Pre-smooth with R, restrict the residual with P^t, correct on the
    coarser level and prolongate; a symmetric cycle then post-smooths with
    R^t.  The coarse correction is this cycle one level down when params
    is None (the linear \\- and V-cycles), or params.n_inner nonlinear PCG
    steps preconditioned by it (the AMLI cycles).  The coarsest level is
    solved exactly, and on level 2 that solve is the correction.
    """
    A = h.level(k).A
    if f.shape[0] != A.shape[0]:
        raise ValueError("dimension mismatch at level %d: matrix is %d, "
                         "vector has length %d" % (k, A.shape[0], f.shape[0]))
    return _visit(h, k, f, symmetric, params)


def _visit(h, k, f, symmetric, params):
    """apply_cycle after its checks.  Every level below k is reached by
    index, and every vector handed down has that level's length by
    construction.  Each visit of level k >= 2 calls lv.smoother.apply once,
    each of level 1 h.coarsest_solver.solve, and each inner PCG goes
    through this module's run_pcg, so that a wrapper bound to that name
    sees it.  Level 2 corrects with one level-1 visit in every cycle; the
    module docstring says why that is the AMLI correction too.

    The pre-smoothed iterate u = R f is a new array (the module docstring
    states that contract), so the prolongated correction and the
    post-smoothing step are added into it: u += P c, then
    u += R^t (f - A u)."""
    if k == 1:
        return h.coarsest_solver.solve(f)
    lv = h.levels[k - 1]
    coarser = h.levels[k - 2]
    u = lv.smoother.apply(f)
    g = spmv(coarser.R, f - spmv(lv.A, u))
    if params is None or k == 2:
        coarse = _visit(h, k - 1, g, symmetric, None)
    else:
        def precond(rr):
            return _visit(h, k - 1, rr, symmetric, params)
        coarse = run_pcg(coarser.A, precond, g, params).iterate
    u += spmv(coarser.P_to_finer, coarse)
    if symmetric:
        u += lv.smoother.apply_transpose(f - spmv(lv.A, u))
    return u


def apply_backslash(h, k, f):
    """\\-cycle at level k: pre-smoothing only, linear coarse correction."""
    return apply_cycle(h, k, f, symmetric=False)


def apply_v_cycle(h, k, f):
    """V-cycle at level k: pre- and post-smoothing, linear coarse correction."""
    return apply_cycle(h, k, f, symmetric=True)


def apply_amli_ns(h, k, f, params):
    """Nonsymmetric nonlinear AMLI cycle (pre-smoothing only) at level k."""
    return apply_cycle(h, k, f, symmetric=False, params=params)


def apply_amli(h, k, f, params):
    """Symmetric nonlinear AMLI cycle (pre- and post-smoothing) at level k."""
    return apply_cycle(h, k, f, symmetric=True, params=params)


def apply_amli_tilde(h, k, f, params):
    """n_inner PCG steps at level k preconditioned by the symmetric AMLI cycle."""
    return nonlinear_pcg(h.level(k).A,
                         lambda rr: _visit(h, k, rr, True, params), f, params)


def apply_amli_tilde_ns(h, k, f, params):
    """n_inner PCG steps at level k preconditioned by the nonsymmetric AMLI cycle."""
    return nonlinear_pcg(h.level(k).A,
                         lambda rr: _visit(h, k, rr, False, params), f, params)


def required_n(delta_bar):
    """Sufficient inner-iteration count for uniformity given a two-grid factor.

    Smallest integer n with n > 1/(1 - delta_bar); reporting aid only.
    """
    if not 0.0 <= delta_bar < 1.0:
        raise ValueError("two-grid factor must lie in [0, 1), got %g" % delta_bar)
    return math.floor(1.0 / (1.0 - delta_bar)) + 1


@dataclass
class SolveReport:
    """Outcome of stationary_solve; status is 'converged', 'max_iter',
    'diverged', 'nonfinite' or 'breakdown'."""
    iterations: int
    status: str
    residual_history: list
    energy_error_history: list = None

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def diverged(self):
        return self.status == "diverged"


def require_stopping(tol, max_iter):
    """Raise ValueError unless tol > 0 and max_iter >= 1, stationary_solve's
    rule."""
    if not tol > 0.0:
        raise ValueError("tol must be > 0, got %g" % tol)
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1, got %d" % max_iter)


def stationary_solve(operator, A, f, u0=None, tol=1e-6, max_iter=2000,
                     u_exact=None):
    """Iterate u <- u + operator(f - A u) until the stopping criterion holds.

    Given u_exact, it stops when ||u - u_exact||_A <= tol (absolute);
    otherwise when ||f - A u|| <= tol * ||f||.  The report's status names
    the exit: 'converged', 'max_iter' (max_iter iterations without meeting
    tol), 'diverged' (the residual grew by 1e6 over its starting value),
    'nonfinite' (the residual or energy error became inf or NaN) or
    'breakdown' (the operator raised PCGBreakdownError; the iterate before
    that call stands).  tol and max_iter are checked first
    (require_stopping).  u is a copy of u0 (or zeros), so each correction is
    added into it in place; neither f nor u0 is changed.
    """
    require_stopping(tol, max_iter)
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
        if energy_history is None:
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

    return SolveReport(
        iterations=iterations,
        status=exit_status or status(),
        residual_history=residual_history,
        energy_error_history=energy_history,
    )
