"""The multigrid cycle engine, nonlinear PCG, and the outer driver.

The nonlinear (flexible) PCG accepts an arbitrary nonlinear operator as a
preconditioner and explicitly A-orthogonalizes each new search direction
against stored ones: all of them (full version), a sliding window of the
most recent m+1 (window m), or none (preconditioned steepest descent).

Every cycle is one recursion, built once per hierarchy and cycle form
(symmetric or not, and the inner-step parameters) as a table of per-level
visit functions: apply_cycle checks its level and vector, fetches the
table and calls level k's visit, which calls the next-coarser one.  The
linear \\- and V-cycles correct with the same cycle one level down; the
AMLI cycles replace that coarse-grid solve by n_inner steps of this PCG,
preconditioned by the coarser-level cycle.  On level 2 that PCG would be
preconditioned by the exact solve A_1^{-1}, and its first step (alpha = 1)
is A_1^{-1} g, so every cycle takes the coarsest solve itself there, as
the K-cycle does.  Restriction is the prolongator transpose (Level.R),
which a table binds once per level.

Iterates are updated in place: u += c makes the same additions in the same
order as u = u + c, so no result changes, and a cycle holds up to one
full-size vector fewer at its peak (run_pcg forms its iterate on return,
see there).  That relies on a contract: the smoother's apply and
apply_transpose and the coarsest solver's solve each return a new array
that shares no memory with its input.  Every BoundSmoother path and
DenseFactorization.solve does so, and so every cycle returns an array of
its own.  Nothing updates f, a residual or a search direction in place:
PcgState keeps them, and run_pcg takes f itself as its first residual
until it returns (see there), so no cycle may change its argument.
"""
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .linalg import _bound_matvec, _count, _vector, spmv

RESIDUAL_EXIT_REL = 1e-14
BREAKDOWN_REL = 1e-30
DIVERGENCE_FACTOR = 1e6


class PCGBreakdownError(RuntimeError):
    pass


@dataclass(frozen=True)
class CycleParams:
    """Inner-iteration configuration for the nonlinear AMLI cycles.

    truncation is 'full', 'sd' (steepest descent, no orthogonalization),
    or an integer m >= 0 (orthogonalize against the m+1 most recent
    directions); n_inner is an integer >= 1.  Python and numpy integers
    both pass (linalg._count), and equal values give equal, equally
    hashed params.

    kind is validated but no cycle reads it: the cycle function called
    (apply_amli or apply_amli_ns, and their tilde forms) picks the symmetric
    or nonsymmetric form.  It stays because acceptance criterion 7 passes it,
    and it takes no part in == or the hash, so params that differ only in
    kind share one visit table.
    """
    n_inner: int = 1
    truncation: object = "full"
    kind: str = field(default="amli_symmetric", compare=False)

    def __post_init__(self):
        _count("n_inner", self.n_inner)
        if self.truncation not in ("full", "sd"):
            _count("unless 'full' or 'sd', truncation", self.truncation, least=0)
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
    vanishing energy raises PCGBreakdownError, and an f that is not a
    vector of A's length raises ValueError before the first step.

    The AMLI cycles call this thousands of times on small levels, so its own
    work is kept low.  Residuals are stored uncopied: r is only ever rebound,
    never updated in place.  r_0 is f itself while the steps run (a strided
    f is copied to a contiguous one first), and it is copied once, on
    return, so that the state shares no memory with f.  This relies on a
    rule: precond must not change its argument, or it would write into the
    caller's f.  Every cycle of this module keeps it.  The iterate is formed
    on return from the stored directions: alpha_0 p_0, a new array, then
    each later alpha_i p_i added into it in place, the additions of
    u_{i+1} = u_i + alpha_i p_i in their order.  So neither an iterate nor
    a copy of f is held while the preconditioner runs, where a cycle's own
    arrays and the sparse solver's workspace peak.  Starting from
    alpha_0 p_0 rather than 0 + alpha_0 p_0 can differ only in the sign of
    an exact zero.  Inner products are x.dot(y), the kernel np.dot ends in
    without np.dot's dispatch, and norms sqrt(r.r), as np.linalg.norm
    computes them.  The state is built once, on return.
    """
    f = _vector(f, A.shape[0], "right-hand side")
    r = np.ascontiguousarray(f)
    directions = []
    residuals = [r]
    f_norm = math.sqrt(r.dot(r))
    if f_norm == 0.0:
        r = r.copy()
        return PcgState(np.zeros_like(f), r, directions, [r])

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
    residuals[0] = residuals[0].copy()
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
    solved exactly, and on level 2 that solve is the correction.  f must be
    a vector of level k's length (a ValueError names both lengths).
    """
    A = h.level(k).A
    f = _vector(f, A.shape[0], "right-hand side")
    return _visits(h, symmetric, params)[k - 1](f)


def _visits(h, symmetric, params):
    """h's visit table for one cycle form: the list whose entry k - 1 runs
    one visit of level k.  A table is built on the first apply of its form
    and kept in h._tables; a built hierarchy is immutable, so it never goes
    stale, and no table refers back to h."""
    form = (symmetric, params)
    visits = h._tables.get(form)
    if visits is None:
        visits = h._tables[form] = _build_visits(h, symmetric, params)
    return visits


def _build_visits(h, symmetric, params):
    """The visit functions of one cycle form, coarsest first.

    Level 1 calls h.coarsest_solver.solve, looked up on every call.  Level
    k >= 2 corrects with the level k - 1 visit on level 2 (the module
    docstring says why) and in the linear cycles, and otherwise with
    nonlinear_pcg preconditioned by that visit; nonlinear_pcg looks up
    run_pcg by name on every call, so that a wrapper bound to that name
    sees it.  Each visit of level k >= 2 calls lv.smoother.apply once and
    makes every product through lv.A, Level.R or P_to_finer, as the
    benchmark's tracing proxies expect.  The bound kernels do not check
    lengths, so the two vectors from outside the engine that they read, the
    smoother's and the coarsest solver's results, are checked.
    """
    solver = h.coarsest_solver
    n1 = h.levels[0].A.shape[0]

    def coarsest(f):
        u = solver.solve(f)
        if len(u) != n1:
            raise ValueError("dimension mismatch: coarsest solver returned "
                             "length %d on a level of %d unknowns" % (len(u), n1))
        return u

    visits = [coarsest]
    for k in range(2, h.n_levels + 1):
        coarser = h.levels[k - 2]
        below = visits[-1]
        if params is None or k == 2:
            correct = below
        else:
            correct = partial(nonlinear_pcg, coarser.A, below, params=params)
        visits.append(_level_visit(h.levels[k - 1], coarser, correct, symmetric))
    return visits


def _level_visit(lv, coarser, correct, symmetric):
    """One visit of lv: u = R f, a new array (the module docstring states
    that contract), then u += P c and, symmetric, u += R^t (f - A u)."""
    apply, apply_transpose = lv.smoother.apply, lv.smoother.apply_transpose
    A = _bound_matvec(lv.A)
    restrict = _bound_matvec(coarser.R)
    prolongate = _bound_matvec(coarser.P_to_finer)
    n = lv.A.shape[0]

    def visit(f):
        u = apply(f)
        if len(u) != n:
            raise ValueError("dimension mismatch: smoother returned length "
                             "%d on a level of %d unknowns" % (len(u), n))
        u += prolongate(correct(restrict(f - A(u))))
        if symmetric:
            u += apply_transpose(f - A(u))
        return u
    return visit


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
    A = h.level(k).A
    return nonlinear_pcg(A, _visits(h, True, params)[k - 1], f, params)


def apply_amli_tilde_ns(h, k, f, params):
    """n_inner PCG steps at level k preconditioned by the nonsymmetric AMLI cycle."""
    A = h.level(k).A
    return nonlinear_pcg(A, _visits(h, False, params)[k - 1], f, params)


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
    """Raise ValueError unless tol > 0 and max_iter is an integer >= 1,
    stationary_solve's rule."""
    if not tol > 0.0:
        raise ValueError("tol must be > 0, got %g" % tol)
    _count("max_iter", max_iter)


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
    (require_stopping), then that f, u0 and u_exact are vectors of A's
    length, before the first call of A or the operator (a ValueError names
    both lengths).  u is a copy of u0 (or zeros), so each correction is
    added into it in place; neither f nor u0 is changed.  Each pass forms
    the residual and the histories, then tests the exits in the order
    nonfinite, diverged, converged, max_iter, and applies the operator only
    when none holds.
    """
    require_stopping(tol, max_iter)
    n = A.shape[0]
    f = _vector(f, n, "right-hand side")
    u = np.zeros_like(f) if u0 is None else _vector(u0, n, "initial guess").copy()
    if u_exact is not None:
        u_exact = _vector(u_exact, n, "exact solution")

    f_scale = np.linalg.norm(f) or 1.0
    residual_history = []
    energy_history = None if u_exact is None else []
    iterations, status = 0, None
    while status is None:
        r = f - A @ u
        residual = float(np.linalg.norm(r))
        residual_history.append(residual)
        if energy_history is None:
            monitored = residual / f_scale
        else:
            e = u - u_exact
            monitored = float(np.sqrt(max(np.dot(A @ e, e), 0.0)))
            energy_history.append(monitored)
        if not (math.isfinite(residual) and math.isfinite(monitored)):
            status = "nonfinite"
        elif residual > DIVERGENCE_FACTOR * max(residual_history[0], f_scale):
            status = "diverged"
        elif monitored <= tol:
            status = "converged"
        elif iterations == max_iter:
            status = "max_iter"
        else:
            try:
                u += operator(r)
                iterations += 1
            except PCGBreakdownError:
                status = "breakdown"
    return SolveReport(iterations, status, residual_history, energy_history)
