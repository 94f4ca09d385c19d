"""The benchmark's outside-in tracing must see every level visit and change
no result.

perfbench/tracing.py wraps a built hierarchy in proxies on each level's
matrix, prolongator, smoother and coarse solver.  The cycle engine must
therefore reach each level only through those attributes (restriction goes
through Level.R, which is derived from P_to_finer); otherwise a traced run
would miss work or differ from the untraced one.
"""
import functools
import sys
from pathlib import Path

import numpy as np
import pytest

import mgbench
import mgbench.verify
from mgbench import (CycleParams, apply_amli, apply_amli_ns, apply_amli_tilde,
                     apply_amli_tilde_ns, apply_backslash, apply_v_cycle)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import checks  # noqa: E402
import tracing  # noqa: E402

K = 4


def _pcg_traced(tracer):
    """tracing.patched with run_pcg wrapped, as the benchmark's traced run has it."""
    pcg = (mgbench.amli.run_pcg, tracing.pcg_wrapper(tracer, mgbench.amli.run_pcg))
    return tracing.patched(tracer, extra=[pcg])


@pytest.fixture(scope="module")
def hierarchy():
    return mgbench.build_geometric("poisson", K)


SIX_CYCLES = {
    "v": lambda h, k, f, p: apply_v_cycle(h, k, f),
    "backslash": lambda h, k, f, p: apply_backslash(h, k, f),
    "amli": lambda h, k, f, p: apply_amli(h, k, f, p),
    "amli-ns": lambda h, k, f, p: apply_amli_ns(h, k, f, p),
    "amli-tilde": lambda h, k, f, p: apply_amli_tilde(h, k, f, p),
    "amli-tilde-ns": lambda h, k, f, p: apply_amli_tilde_ns(h, k, f, p),
}
LINEAR = ("v", "backslash")


@pytest.mark.parametrize("cycle,apply,n", [
    (cycle, apply, None if cycle in LINEAR else 2)
    for cycle, apply in SIX_CYCLES.items()])
def test_traced_hierarchy_is_bit_identical_and_sees_every_visit(hierarchy, cycle,
                                                                apply, n):
    _check_traced_apply(hierarchy, cycle, apply, n)


WIDE_CASES = [(name, cycle, n)
              for name in ("poisson", "jump", "ua")
              for cycle in SIX_CYCLES
              for n in ((None,) if cycle in LINEAR else (1, 2, 3))
              if not (name == "poisson" and n in (None, 2))]  # the test above


@pytest.mark.parametrize("name,cycle,n", WIDE_CASES)
def test_traced_cycles_on_every_hierarchy_and_inner_count(name, cycle, n):
    """The same contract on the jump and 2-sweep UA-AMG hierarchies and for
    n = 1, 2, 3 inner steps."""
    _check_traced_apply(_chain_hierarchy(name), cycle, SIX_CYCLES[cycle], n)


def _check_traced_apply(h, cycle, apply, n):
    """One apply at the top level is bit-identical traced and untraced, and
    the traced one makes exactly the level visits of the cost model."""
    top = h.n_levels
    params = None if n is None else CycleParams(n_inner=n)
    f = np.random.default_rng(10).standard_normal(h.finest.A.shape[0])
    plain = apply(h, top, f, params)

    tracer = tracing.Tracer()
    with _pcg_traced(tracer):
        traced = apply(tracing.traced_hierarchy(h, tracer), top, f, params)

    assert np.array_equal(traced, plain)
    seen = {k: tracer.counts.get("cycles.visits.L%d" % k, 0)
            for k in range(1, top + 1)}
    assert seen == checks.visits_per_apply(cycle, n, top)
    # every restriction and prolongation went through the proxies
    transfers = sum(tracer.counts.get("transfer.L%d" % k, 0) for k in range(1, top))
    assert transfers == 2 * sum(seen[k] for k in range(2, top + 1))


@pytest.mark.parametrize("cycle,apply,per_visit", [
    ("v", apply_v_cycle, 2),            # pre- and post-smoothing residuals
    ("backslash", apply_backslash, 1),  # the pre-smoothing residual only
])
def test_traced_linear_cycles_count_every_level_matvec(hierarchy, cycle, apply,
                                                       per_visit):
    # the residual products must reach the level-matrix proxies; a fast path
    # that unwrapped them would zero the per-level matvec metrics silently
    f = np.random.default_rng(11).standard_normal(hierarchy.finest.A.shape[0])
    plain = apply(hierarchy, K, f)
    tracer = tracing.Tracer()
    traced = apply(tracing.traced_hierarchy(hierarchy, tracer), K, f)

    assert np.array_equal(traced, plain)
    visits = checks.visits_per_apply(cycle, None, K)
    for k in range(2, K + 1):
        assert tracer.counts.get("cycles.visits.L%d" % k, 0) == visits[k]
        assert tracer.counts.get("linalg.matvec.L%d" % k, 0) == per_visit * visits[k]


CHAIN_SAMPLES = 2
CHAIN_CYCLES = ("amli", "amli-ns", "amli-tilde", "amli-tilde-ns", "v", "backslash")


@functools.lru_cache(maxsize=None)
def _chain_hierarchy(name):
    if name == "ua":
        return mgbench.build_ua_amg(mgbench.assemble_poisson(5)[0],
                                    smoother=mgbench.SmootherSpec(sweeps=2))
    return mgbench.build_geometric(name, K)


@pytest.mark.parametrize("truncation", ["full", "sd"])
@pytest.mark.parametrize("name", ["poisson", "jump", "ua"])
def test_traced_comparison_suite_matches_untraced_and_cost_model(name, truncation):
    """The comparison suite, the benchmark's comparison_chain traffic, gives
    the same report traced and untraced, and the traced run sees exactly
    the level visits of the cost model: six cycle applies per sample on
    every level above the coarsest.  The UA-AMG hierarchy smooths with two
    sweeps, so its smoother takes the multi-sweep path."""
    h = _chain_hierarchy(name)
    params = CycleParams(n_inner=2, truncation=truncation)
    suite = mgbench.verify.check_comparison_suite
    plain = suite(h, params, samples=CHAIN_SAMPLES, seed=12)

    tracer = tracing.Tracer()
    with _pcg_traced(tracer):
        traced = suite(tracing.traced_hierarchy(h, tracer), params,
                       samples=CHAIN_SAMPLES, seed=12)

    assert traced.measured == plain.measured
    assert traced.samples == plain.samples == CHAIN_SAMPLES * (h.n_levels - 1)
    expected = {}
    for top in range(2, h.n_levels + 1):
        for cycle in CHAIN_CYCLES:
            checks.add_visits(expected, checks.visits_per_apply(cycle, 2, top),
                              CHAIN_SAMPLES)
    seen = {k: tracer.counts.get("cycles.visits.L%d" % k, 0)
            for k in range(1, h.n_levels + 1)}
    assert seen == expected
    assert tracer.counts[tracing.COARSE_SPAN] == expected[1]
