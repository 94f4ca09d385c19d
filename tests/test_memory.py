"""Peak memory of the cycle engine, counted in fine-level vectors.

The engine updates its iterates in place (see mgbench.amli), so a cycle
holds fewer full-size arrays at its peak than an engine that makes a new
array for every update.  tracemalloc counts numpy's allocations; a count is
the peak of one call above what was allocated before it, over 8 n bytes,
n the finest level's size.  Coarser levels add about a third of a vector
on the geometric hierarchy.  tracemalloc does not see the sparse solver's
own workspace, so a process's resident peak need not move with these
counts.

Measured counts (numpy 2.4, scipy 1.17): test_amli's copying reference,
which makes a new array for every update (its PCG keeps no residuals and
no A p, so its Btilde count is the lowest), then the engine with run_pcg
copying f on entry, then copying it on return, as it does now:

  hierarchy               V            Bhat n=2          Btilde n=2         3 V iterations
  Poisson k = 7           4.51  3.02   4.54  3.75  3.51   8.60 10.05  9.05   6.55  5.05
  UA-AMG 65025, 2 sweeps  6.35  5.01   6.36  5.02        10.36 10.02  9.02   8.34  7.00

V and the 3 iterations run no PCG, and Bhat's peak on UA-AMG is not
inside its PCG, which runs one level down, so those have one figure for
both engines.
Each count may exceed its figure by SLACK, a tenth of a vector; the
copying reference's counts fail all of them but Btilde's on Poisson, and
copying f on entry fails both Btilde figures and Bhat's on Poisson.
"""
import tracemalloc

import pytest

from mgbench import (CycleParams, SmootherSpec, apply_amli, apply_amli_tilde,
                     apply_v_cycle, assemble_poisson, build_geometric,
                     build_ua_amg, stationary_solve)

P2 = CycleParams(n_inner=2)
SLACK = 0.1

IN_PLACE = {
    "poisson-k7": {"V": 3.02, "Bhat_n2": 3.51, "Btilde_n2": 9.05, "solve_3": 5.05},
    "ua-65025": {"V": 5.01, "Bhat_n2": 5.02, "Btilde_n2": 9.02, "solve_3": 7.00},
}


@pytest.fixture(scope="module", params=list(IN_PLACE))
def system(request):
    if request.param == "poisson-k7":
        A, f = assemble_poisson(7)
        return request.param, A, f, build_geometric("poisson", 7)
    A, f = assemble_poisson(8)
    return request.param, A, f, build_ua_amg(A, theta=0.08, min_coarse=50,
                                             smoother=SmootherSpec(sweeps=2))


def peak_vectors(call, n):
    """Peak allocation of call() above the memory held before it, in
    vectors of n doubles; a first call warms every cache."""
    call()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (8.0 * n)


def test_peak_fine_level_vectors(system):
    name, A, f, h = system
    k = h.n_levels
    calls = {
        "V": lambda: apply_v_cycle(h, k, f),
        "Bhat_n2": lambda: apply_amli(h, k, f, P2),
        "Btilde_n2": lambda: apply_amli_tilde(h, k, f, P2),
        "solve_3": lambda: stationary_solve(lambda r: apply_v_cycle(h, k, r),
                                            A, f, tol=1e-30, max_iter=3),
    }
    counts = {label: round(peak_vectors(call, A.shape[0]), 2)
              for label, call in calls.items()}
    over = {label: (c, IN_PLACE[name][label]) for label, c in counts.items()
            if c > IN_PLACE[name][label] + SLACK}
    assert not over, "%s: peak vectors (count, in-place figure): %s" % (name, over)
