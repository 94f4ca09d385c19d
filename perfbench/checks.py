"""References that the benchmark computes apart from the program.

The program's outputs are compared with these, never with a stored copy of
an earlier run: the 5-point stencil and load built with scipy.sparse.kron,
a sparse-direct solution, the condition number of the stencil, the
benchmark's own energy forms for the comparison chains, and the cost model
of level visits.
"""
import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import mgbench

CHAIN_SLACK = 1e-12     # criteria 6 and 7
GALERKIN_REL = 1e-12    # criterion 11


def poisson_stencil(k):
    """5-point Laplacian (diagonal 4) and load h^2 * 1 on the (2^k - 1)^2
    interior grid of mesh level k, lexicographic with x fastest."""
    m = 2 ** k - 1
    T = sp.diags([-np.ones(m - 1), 2.0 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    I = sp.identity(m)
    A = sp.csr_matrix(sp.kron(I, T) + sp.kron(T, I))
    return A, np.full(m * m, 4.0 ** -k)


def poisson_condition(k):
    """Spectral condition number cot^2(pi h / 2) of the 5-point Laplacian."""
    return 1.0 / np.tan(np.pi * 2.0 ** -k / 2.0) ** 2


def relative_gap(A, B):
    """max |A - B| entrywise over max |B|."""
    D = abs(sp.csr_matrix(A) - sp.csr_matrix(B))
    return (D.max() if D.nnz else 0.0) / abs(B).max()


def stencil_problems(k, A, f, finest_A):
    """Differences between the program's Poisson system and the stencil."""
    A_ref, f_ref = poisson_stencil(k)
    problems = []
    if relative_gap(A, A_ref) > 1e-15:
        problems.append("assembled matrix differs from the 5-point stencil")
    if relative_gap(finest_A, A_ref) > 1e-15:
        problems.append("finest hierarchy matrix differs from the 5-point stencil")
    if np.max(np.abs(f - f_ref)) > 1e-14 * f_ref[0]:
        problems.append("load vector differs from h^2 * 1")
    return problems


def galerkin_problems(h):
    """Every coarse matrix must equal P^t A P of the next finer one."""
    problems = []
    for k in range(2, h.n_levels + 1):
        P = h.level(k - 1).P_to_finer
        product = P.T @ h.level(k).A @ P
        gap = relative_gap(product, h.level(k - 1).A)
        if gap > GALERKIN_REL:
            problems.append("level %d is not the Galerkin product of level %d "
                            "(gap %.2e)" % (k - 1, k, gap))
    return problems


def relative_residual(A, f, u):
    return float(np.linalg.norm(f - A @ u) / np.linalg.norm(f))


def direct_solution(A, f):
    """Sparse-direct solve; minimum-degree ordering on A + A^t keeps the
    factor about half the size of the default column ordering."""
    return splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A").solve(f)


def visits_per_apply(cycle, n, top):
    """Level visits {k: count} of one apply of `cycle` at level `top`.

    A visit is a pre-smoother call at k >= 2 and a coarse solve at k = 1.
    With n inner PCG steps, level k >= 2 is visited n^(top-k) times per
    AMLI apply; level 1 as often as level 2, because the PCG on level 1 is
    preconditioned by the exact solve and stops after one step.  A
    PCG-wrapped (tilde) apply runs n AMLI applies.
    """
    if cycle in ("v", "backslash") or top == 1:
        return {k: 1 for k in range(1, top + 1)}
    per = {k: n ** (top - max(k, 2)) for k in range(1, top + 1)}
    if cycle.startswith("amli-tilde"):
        per = {k: n * c for k, c in per.items()}
    return per


def add_visits(total, visits, times=1):
    for k, c in visits.items():
        total[k] = total.get(k, 0) + times * c
    return total


def _energy(A, x, y):
    return float(np.dot(A @ x, y))


def chain_problems(h, params, vectors, symmetric):
    """Recompute the comparison chains of criteria 6 and 7 for (k, v) pairs.

    Symmetric chain: 0 <= (e_tilde, v)_A <= (e_hat, v)_A <= (e_V, v)_A,
    slack over ||v||_A^2.  Nonsymmetric chain: ||e_tilde_ns||_A <=
    ||e_hat_ns||_A <= ||e_backslash||_A, slack over ||v||_A.  Here e_X is
    v - X[A v].  The symmetric chain holds for the full PCG only.
    """
    worst_sym = np.inf
    worst_ns = np.inf
    for k, v in vectors:
        A = h.level(k).A
        Av = A @ v
        nv2 = _energy(A, v, v)

        def err(apply, *extra):
            return v - apply(h, k, Av, *extra)

        if symmetric:
            q_t = _energy(A, err(mgbench.apply_amli_tilde, params), v)
            q_h = _energy(A, err(mgbench.apply_amli, params), v)
            q_v = _energy(A, err(mgbench.apply_v_cycle), v)
            worst_sym = min(worst_sym, q_t / nv2, (q_h - q_t) / nv2,
                            (q_v - q_h) / nv2)
        norms = [np.sqrt(max(_energy(A, e, e), 0.0)) for e in (
            err(mgbench.apply_amli_tilde_ns, params),
            err(mgbench.apply_amli_ns, params),
            err(mgbench.apply_backslash))]
        nv = np.sqrt(nv2)
        worst_ns = min(worst_ns, (norms[1] - norms[0]) / nv,
                       (norms[2] - norms[1]) / nv)
    problems = []
    if symmetric and worst_sym < -CHAIN_SLACK:
        problems.append("own symmetric chain slack %.2e" % worst_sym)
    if worst_ns < -CHAIN_SLACK:
        problems.append("own nonsymmetric chain slack %.2e" % worst_ns)
    return problems
