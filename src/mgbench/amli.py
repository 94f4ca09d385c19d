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
which a table binds once per level.  A table is rebuilt when any object it
was built from is replaced on the hierarchy (see _visits).

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
import weakref
from dataclasses import dataclass, field

import numpy as np

from .linalg import _bound_matvec, spmv

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


def _vector(v, n, name):
    """v as a float vector of length n; ValueError naming both lengths."""
    v = np.asarray(v, float)
    if v.shape != (n,):
        got = ("length %d" % v.shape[0] if v.ndim == 1
               else "shape %s, not a vector" % (v.shape,))
        raise ValueError("dimension mismatch: matrix is %d, %s has %s"
                         % (n, name, got))
    return v


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
    f = _vector(f, A.shape[0], "right-hand side")
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
    solved exactly, and on level 2 that solve is the correction.  f must be
    a vector of level k's length (a ValueError names both lengths).
    """
    A = h.level(k).A
    f = _vector(f, A.shape[0], "right-hand side")
    return _visits(h, symmetric, params)[k - 1](f)


# id(h) -> (coarsest solver, [(A, P_to_finer, smoother) per level], {form:
# visits}): the objects h's visit tables were built from, and the tables.
# An entry goes when its hierarchy does (weakref.finalize in _visits).
_TABLES = {}


def _visits(h, symmetric, params):
    """h's visit table for one cycle form: the list whose entry k - 1 runs
    one visit of level k.  A table is built on the first apply of its form
    and kept while the coarsest solver and each level's A, P_to_finer and
    smoother are the objects it was built from; replacing any of them drops
    all of h's tables.  Objects are compared by identity, so what changes
    inside one goes unseen: a matrix whose index or data arrays are
    rebound, or a smoother whose apply is replaced after a table bound it
    (the coarsest solver's solve is looked up on every call).  The tables
    live in this module, not on h, so that Hierarchy stays a plain
    dataclass: its fields, repr, == and copies are unchanged, and no
    table refers back to h.
    """
    entry = _TABLES.get(id(h))
    if entry is None:
        weakref.finalize(h, _TABLES.pop, id(h), None)
    elif not _built_from(h, entry[0], entry[1]):
        entry = None
    if entry is None:
        entry = _TABLES[id(h)] = (
            h.coarsest_solver,
            [(lv.A, lv.P_to_finer, lv.smoother) for lv in h.levels], {})
    tables = entry[2]
    form = (symmetric, params)
    visits = tables.get(form)
    if visits is None:
        visits = tables[form] = _build_visits(h, symmetric, params)
    return visits


def _built_from(h, solver, parts):
    levels = h.levels
    if h.coarsest_solver is not solver or len(levels) != len(parts):
        return False
    for lv, (A, P, smoother) in zip(levels, parts):
        if lv.A is not A or lv.P_to_finer is not P or lv.smoother is not smoother:
            return False
    return True


def _build_visits(h, symmetric, params):
    """The visit functions of one cycle form, coarsest first.

    Level 1 calls h.coarsest_solver.solve, looked up on every call.  Level
    k >= 2 corrects with the level k - 1 visit on level 2 (the module
    docstring says why) and in the linear cycles, and otherwise with
    n_inner steps of run_pcg preconditioned by that visit; run_pcg is
    looked up by name on every call, so that a wrapper bound to that name
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
            correct = _pcg_correction(coarser.A, below, params)
        visits.append(_level_visit(h.levels[k - 1], coarser, correct, symmetric))
    return visits


def _pcg_correction(A, precond, params):
    """g -> the iterate of n_inner run_pcg steps on A c = g."""
    def correct(g):
        return run_pcg(A, precond, g, params).iterate
    return correct


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
    (require_stopping), then that f, u0 and u_exact are vectors of A's
    length, before the first call of A or the operator (a ValueError names
    both lengths).  u is a copy of u0 (or zeros), so each correction is
    added into it in place; neither f nor u0 is changed.
    """
    require_stopping(tol, max_iter)
    n = A.shape[0]
    f = _vector(f, n, "right-hand side")
    u = np.zeros_like(f) if u0 is None else _vector(u0, n, "initial guess").copy()
    if u_exact is not None:
        u_exact = _vector(u_exact, n, "exact solution")

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
