"""The benchmark's workloads: what each one sets up, runs and checks.

A workload offers:
  setups_per_round         how many times a round sets the workload up
  setup(k=None)            build what the timed phase needs (timed as setup_s)
  warm_up(seed)            run the workload once at k = 3, before any timing
  setup_problems(state)    independent checks of the setup's output
  operations(state, seed, tracer=None)
                           [(label, thunk)]; one round runs every thunk once
  round_problems(results, first)
                           {label: [problem]} for one round's results
  final_problems(state, first, seed)
                           {label: [problem]} from references too costly to
                           compute before the peak memory is read
  applies(result)          top-level cycle applications of one operation
  expected_visits(state, label, result)
                           {level: visits} the cost model predicts
  identical(a, b)          whether two results agree bit for bit
"""
import functools

import numpy as np

import mgbench
import mgbench.verify
import checks
from tracing import traced_hierarchy, traced_system_matrix

TOL = 1e-6
MAX_ITER = 2000
WARM_UP_K = 3


def gs_bytes(A, sweeps):
    """Computed bytes one Gauss-Seidel smoother call moves, ignoring caches.

    A sweep reads the triangle's CSR arrays (12 bytes per stored entry,
    4 per row pointer) and the right-hand side and writes the solution
    (8 + 8 bytes per row).  Each further sweep first forms f - A u (a pass
    over A's CSR arrays, then 8 bytes per row each for u, A u, f and the
    residual) and finally adds the correction (8 bytes per row each for
    u, the correction and the sum).
    """
    n = A.shape[0]
    tri = (A.nnz + n) // 2
    sweep = 12 * tri + 4 * (n + 1) + 16 * n
    extra = 12 * A.nnz + 4 * (n + 1) + 32 * n + 24 * n
    return sweeps * sweep + (sweeps - 1) * extra


class CellResult:
    def __init__(self, report, applies, iterate):
        self.iterations = report.iterations
        self.converged = report.converged
        self.applies = applies
        self.iterate = iterate


def solve_cell(h, A, f, cycle, n):
    """One table cell: stationary_solve with the cycle as the operator.

    The benchmark keeps its own iterate by summing the corrections the
    operator returns, the same sum stationary_solve forms from a zero start.
    """
    top = h.n_levels
    params = None if n is None else mgbench.CycleParams(n_inner=n)
    apply = {
        "v": lambda r: mgbench.apply_v_cycle(h, top, r),
        "amli": lambda r: mgbench.apply_amli(h, top, r, params),
        "amli-tilde": lambda r: mgbench.apply_amli_tilde(h, top, r, params),
    }[cycle]
    u = np.zeros_like(f)
    applies = 0

    def operator(r):
        nonlocal u, applies
        c = apply(r)
        u = u + c
        applies += 1
        return c

    report = mgbench.stationary_solve(operator, A, f, tol=TOL, max_iter=MAX_ITER)
    return CellResult(report, applies, u)


class TableState:
    def __init__(self, k, A, f, h):
        self.k, self.A, self.f, self.h = k, A, f, h


class TableWorkload:
    """An iteration-count table on the Poisson problem: solves to relative
    residual 1e-6 from a zero start, one per cell, on one hierarchy.  The
    inputs are fixed by the criterion's config, so the seed is unused."""

    setups_per_round = 1

    def __init__(self, k, sweeps, geometric, cells):
        self.k = k
        self.smoother = mgbench.SmootherSpec(kind="gs", sweeps=sweeps)
        self.geometric = geometric
        self.cells = cells      # (label, cycle, inner PCG steps or None)

    def setup(self, k=None):
        k = self.k if k is None else k
        A, f = mgbench.assemble_poisson(k)
        if self.geometric:
            h = mgbench.build_geometric("poisson", k, smoother=self.smoother)
        else:
            h = mgbench.build_ua_amg(A, theta=0.08, min_coarse=50,
                                     smoother=self.smoother)
        return TableState(k, A, f, h)

    def warm_up(self, seed):
        state = self.setup(WARM_UP_K)
        for _label, op in self.operations(state, seed):
            op()

    def setup_problems(self, state):
        return checks.stencil_problems(state.k, state.A, state.f, state.h.finest.A)

    def operations(self, state, seed, tracer=None):
        h, A = state.h, state.A
        if tracer is not None:
            fine = gs_bytes(h.finest.A, self.smoother.sweeps)
            h = traced_hierarchy(h, tracer, fine)
            A = traced_system_matrix(A, tracer, h.n_levels)
        return [(label, functools.partial(solve_cell, h, A, state.f, cycle, n))
                for label, cycle, n in self.cells]

    def round_problems(self, results, first):
        A_ref, f_ref = checks.poisson_stencil(self.k)
        out = {}
        for label, res in results.items():
            problems = out.setdefault(label, [])
            if res is None:
                continue
            if not res.converged:
                problems.append("did not converge in %d iterations" % MAX_ITER)
            if res.applies != res.iterations:
                problems.append("%d applies for %d iterations"
                                % (res.applies, res.iterations))
            relres = checks.relative_residual(A_ref, f_ref, res.iterate)
            if relres > TOL:
                problems.append("stencil residual %.3e > %g" % (relres, TOL))
            if first and first.get(label) is not None \
                    and not self.identical(first[label], res):
                problems.append("differs from the first round")
        v = results.get("V")
        if v is not None:
            # the comparison theorem: no AMLI cycle needs more iterations than V
            for label, res in results.items():
                if label != "V" and res is not None and res.iterations > v.iterations:
                    out[label].append("%d iterations > V's %d"
                                      % (res.iterations, v.iterations))
        return out

    def final_problems(self, state, first, seed):
        A_ref, f_ref = checks.poisson_stencil(self.k)
        u_direct = checks.direct_solution(A_ref, f_ref)
        kappa = checks.poisson_condition(self.k)
        out = {}
        for label, res in first.items():
            out[label] = []
            if res is None:
                continue
            err = np.linalg.norm(res.iterate - u_direct) / np.linalg.norm(u_direct)
            bound = kappa * checks.relative_residual(A_ref, f_ref, res.iterate)
            if not err <= bound:
                out[label].append("error to the sparse-direct solution %.3e "
                                  "> condition * residual %.3e" % (err, bound))
        return out

    def applies(self, result):
        return result.applies

    def expected_visits(self, state, label, result):
        cycle, n = {lab: (c, n) for lab, c, n in self.cells}[label]
        per = checks.visits_per_apply(cycle, n, state.h.n_levels)
        return checks.add_visits({}, per, result.applies)

    def identical(self, a, b):
        return a.iterations == b.iterations and np.array_equal(a.iterate, b.iterate)


class ChainWorkload:
    """check_comparison_suite on the k=6 geometric Poisson and jump
    hierarchies: random vectors from the seed, `samples` per level above the
    coarsest, six cycle applies per vector."""

    k = 6
    samples = 4
    configs = (("full", 1), ("full", 2), ("sd", 2))
    setups_per_round = 10   # one setup takes 30 to 40 ms

    def setup(self, k=None):
        k = self.k if k is None else k
        return {"poisson": mgbench.build_geometric("poisson", k),
                "jump": mgbench.build_geometric("jump", k)}

    def warm_up(self, seed):
        state = self.setup(WARM_UP_K)
        for h in state.values():
            mgbench.verify.check_comparison_suite(
                h, mgbench.CycleParams(n_inner=2), samples=1, seed=seed)

    def setup_problems(self, state):
        h = state["poisson"]
        A, f = mgbench.assemble_poisson(self.k)
        problems = checks.stencil_problems(self.k, A, f, h.finest.A)
        for hh in state.values():
            problems += checks.galerkin_problems(hh)
        return problems

    def _params(self, label):
        _problem, trunc, n = label.split("_")
        return mgbench.CycleParams(n_inner=int(n[1:]), truncation=trunc)

    def labels(self):
        return ["%s_%s_n%d" % (p, t, n) for p in ("poisson", "jump")
                for t, n in self.configs]

    def operations(self, state, seed, tracer=None):
        ops = []
        for label in self.labels():
            h = state[label.split("_")[0]]
            if tracer is not None:
                h = traced_hierarchy(h, tracer, gs_bytes(h.finest.A, 1))
            ops.append((label, functools.partial(
                mgbench.verify.check_comparison_suite, h, self._params(label),
                samples=self.samples, seed=seed)))
        return ops

    def round_problems(self, results, first):
        out = {}
        for label, rep in results.items():
            problems = out.setdefault(label, [])
            if rep is None:
                continue
            if not rep.passed:
                problems.append("suite failed: %s" % rep.csv_row())
            if first and first.get(label) is not None \
                    and not self.identical(first[label], rep):
                problems.append("differs from the first round")
        return out

    def final_problems(self, state, first, seed):
        out = {}
        for i, (problem, h) in enumerate(state.items()):
            rng = np.random.default_rng([seed, i])
            # one vector each on the smallest smoothed, a middle and the finest level
            levels = (2, (h.n_levels + 2) // 2, h.n_levels)
            vectors = [(k, rng.standard_normal(h.level(k).A.shape[0]))
                       for k in levels]
            for label in self.labels():
                if label.startswith(problem + "_"):
                    params = self._params(label)
                    out[label] = checks.chain_problems(
                        h, params, vectors, params.truncation == "full")
        return out

    def applies(self, result):
        return 6 * result.samples

    def expected_visits(self, state, label, result):
        h = state[label.split("_")[0]]
        n = self._params(label).n_inner
        total = {}
        for top in range(2, h.n_levels + 1):
            for cycle in ("amli", "amli-ns", "amli-tilde", "amli-tilde-ns",
                          "v", "backslash"):
                checks.add_visits(total, checks.visits_per_apply(cycle, n, top),
                                  self.samples)
        return total

    def identical(self, a, b):
        return a.samples == b.samples and a.measured == b.measured


WORKLOADS = {
    # criterion-3 config: UA-AMG, GS with 2 sweeps, theta 0.08, min_coarse 50
    "ua_table3": TableWorkload(
        k=8, sweeps=2, geometric=False,
        cells=(("Bhat_npcg2", "amli", 2), ("Btilde_npcg2", "amli-tilde", 2))),
    # criterion-1 config at its deepest row, k = 9, GS with 1 sweep
    "geo_table1": TableWorkload(
        k=9, sweeps=1, geometric=True,
        cells=(("V", "v", None), ("Bhat_npcg1", "amli", 1),
               ("Bhat_npcg2", "amli", 2), ("Btilde_npcg2", "amli-tilde", 2))),
    "comparison_chain": ChainWorkload(),
}
