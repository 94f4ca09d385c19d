"""Timed and traced runs of one workload.

An untraced run repeats rounds while the next one is predicted to end
within --seconds.  A round sets the workload up setups_per_round times
(each from scratch) and then runs every operation once.  Every setup and
every operation is timed between two runs of a speed probe (see
SpeedProbe), and its wall time is rescaled to the probe's nominal speed.
The run reports:
  setup_s        median over all setups of one setup's rescaled time
                 (assembly and every hierarchy build the workload uses);
  solve_s        the rescaled time of all operations of the run over its
                 number of rounds: a whole-phase total per round;
  cycle_applies  top-level cycle applications of one round;
  peak_rss_mb    peak resident size of this process at the end of the first
                 round, before later rounds and the costly references (the
                 sparse-direct solve) can raise it.
A traced run sets up under wrapped setup functions, runs one untraced and
one traced round and reports the per-layer metrics, in wall time.

Every operation's output is checked; a failed check, or an operation that
raised, counts as a failed operation.
"""
import functools
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import mgbench
import tracing

TRACE_SETUP_REPEATS = 3
PROBE_LOOPS = 100_000
PROBE_NOMINAL_S = 0.007

SETUP_SPANS = {
    mgbench.problems.assemble_poisson: "problems.assemble",
    mgbench.problems.assemble_jump: "problems.assemble",
    mgbench.hierarchy.aggregate: "hierarchy.aggregate",
    mgbench.hierarchy.geometric_prolongator: "hierarchy.prolongator",
    mgbench.hierarchy.piecewise_constant_prolongator: "hierarchy.prolongator",
    mgbench.linalg.rap: "linalg.rap",
    mgbench.smoothers.bind: "smoothers.bind",
    mgbench.linalg.DenseFactorization: "linalg.coarse_factor",
}
SOLVE_SELF_SPANS = ("smoothers.L", "linalg.matvec.L", "transfer.L",
                    tracing.COARSE_SPAN, tracing.PCG_SPAN)


def load_spec(root):
    with open(Path(root) / "BENCHMARK.json") as fh:
        return json.load(fh)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run(op):
    try:
        return op()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class SpeedProbe:
    """Rescales wall times by the machine's current speed.

    The machine switches between a fast and a slow state, about 1.45 times
    apart for a pure-Python loop, for seconds to tens of seconds at a time,
    and the program slows down with the loop.  `time(fn)` runs fn between
    two runs of a fixed loop of PROBE_LOOPS integer operations and returns
    fn's wall time multiplied by PROBE_NOMINAL_S over the mean of the two
    loop times.
    PROBE_NOMINAL_S is the loop's time between operations in the fast state,
    so in that state the rescaled time reads as the wall time.
    """

    def __init__(self):
        self.wall = []      # (wall time, rescaled time) of each timed call
        self.loops = []
        self._last = self._loop()

    def _loop(self):
        t0 = perf_counter()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i * i
        dt = perf_counter() - t0
        self.loops.append(dt)
        return dt

    def time(self, fn):
        before = self._last
        t0 = perf_counter()
        out = fn()
        wall = perf_counter() - t0
        self._last = self._loop()
        scaled = wall * 2.0 * PROBE_NOMINAL_S / (before + self._last)
        self.wall.append((wall, scaled))
        return out, scaled


def _returned(results):
    return {label: res is not None for label, res in results.items()}


def _timed_setups(workload, probe):
    """Set up workload.setups_per_round times; keep the last state."""
    times = []
    state = None
    for _ in range(workload.setups_per_round):
        state = None
        gc.collect()
        state, t = probe.time(workload.setup)
        times.append(t)
    return state, times


class Tally:
    """Attempted and failed operations, and whether every check passed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def add(self, returned, *problem_maps, common=()):
        """returned maps each operation's label to False if it raised."""
        for label, ok in returned.items():
            problems = list(common)
            for pm in problem_maps:
                problems += pm.get(label, [])
            self.attempted += 1
            if not ok or problems:
                self.failed += 1
            if problems:
                self.correct = False
                for p in problems:
                    print("CHECK FAILED %s: %s" % (label, p), file=sys.stderr)


def run_untraced(workload, seed, seconds):
    workload.warm_up(seed)
    rounds = []     # (which operations returned, problems of the round's
                    # setup, problems of its results)
    setup_times, solve_times = [], []
    first, rss = None, None
    probe = SpeedProbe()
    start = perf_counter()
    while True:
        state = ops = None
        t0 = perf_counter()
        state, times = _timed_setups(workload, probe)
        setup_times += times
        ops = workload.operations(state, seed)
        results = {}
        solve_times.append(0.0)
        for label, op in ops:
            gc.collect()
            results[label], t = probe.time(functools.partial(_run, op))
            solve_times[-1] += t
        if rss is None:
            rss = peak_rss_mb()
        rounds.append((_returned(results), workload.setup_problems(state),
                       workload.round_problems(results, first)))
        first = first or results
        if perf_counter() - start + (perf_counter() - t0) > seconds:
            break
    final = workload.final_problems(state, first, seed)

    tally = Tally()
    for returned, setup_problems, problems in rounds:
        tally.add(returned, problems, final, common=setup_problems)
    applies = sum(workload.applies(r) for r in first.values() if r is not None)
    metrics = {"setup_s": statistics.median(setup_times),
               "solve_s": statistics.fmean(solve_times),
               "cycle_applies": applies, "peak_rss_mb": rss}
    wall = sum(w for w, _ in probe.wall)
    print("setups %d, rounds %d, rescaled round times %s; wall %.3f s rescaled "
          "to %.3f s; probe loop median %.2f ms"
          % (len(setup_times), len(solve_times), ["%.3f" % t for t in solve_times],
             wall, sum(r for _, r in probe.wall),
             1e3 * statistics.median(probe.loops)), file=sys.stderr)
    return tally, metrics


def _traced_setups(workload):
    per_span = {}
    state = None
    for _ in range(TRACE_SETUP_REPEATS):
        state = None
        gc.collect()
        tracer = tracing.Tracer()
        with tracing.patched(tracer, SETUP_SPANS):
            state = workload.setup()
        for name in set(SETUP_SPANS.values()):
            per_span.setdefault(name, []).append(tracer.seconds.get(name, 0.0))
    return state, {name: statistics.median(v) for name, v in per_span.items()}


def run_traced(workload, seed, labels, levels):
    workload.warm_up(seed)
    state, setup = _traced_setups(workload)
    setup_problems = workload.setup_problems(state)

    plain, plain_times = {}, {}
    gc.collect()
    t0 = perf_counter()
    for label, op in workload.operations(state, seed):
        t1 = perf_counter()
        plain[label] = _run(op)
        plain_times[label] = perf_counter() - t1
    plain_wall = perf_counter() - t0

    tracer = tracing.Tracer()
    pcg = (mgbench.amli.run_pcg, tracing.pcg_wrapper(tracer, mgbench.amli.run_pcg))
    traced, visit_problems = {}, {}
    gc.collect()
    with tracing.patched(tracer, extra=[pcg]):
        t0 = perf_counter()
        for label, op in workload.operations(state, seed, tracer):
            before = tracer.snapshot()
            traced[label] = _run(op)
            after = tracer.snapshot()
            if traced[label] is None:
                continue
            seen = {k: after.get("cycles.visits.L%d" % k, 0)
                    - before.get("cycles.visits.L%d" % k, 0)
                    for k in range(1, levels + 1)}
            seen = {k: c for k, c in seen.items() if c}
            expected = workload.expected_visits(state, label, traced[label])
            if seen != expected:
                visit_problems[label] = ["visits %s, cost model %s" % (seen, expected)]
        traced_wall = perf_counter() - t0

    identity = {label: ["traced result differs from the untraced one"]
                for label in plain
                if plain[label] is not None and traced[label] is not None
                and not workload.identical(plain[label], traced[label])}
    final = workload.final_problems(state, plain, seed)
    tally = Tally()
    tally.add(_returned(plain), workload.round_problems(plain, None), final,
              common=setup_problems)
    tally.add(_returned(traced), visit_problems, identity)

    metrics = layer_metrics(tracer, setup, levels, traced_wall - plain_wall)
    solve_self = sum(s for name, s in tracer.seconds.items()
                     if name.startswith(SOLVE_SELF_SPANS))
    metrics["cycles.self_s"] = traced_wall - solve_self
    for label in labels:
        res = plain.get(label)
        metrics["cell.s." + label] = plain_times.get(label, 0.0)
        metrics["cell.applies." + label] = 0 if res is None else workload.applies(res)
    print("untraced round %.3f s, traced round %.3f s" % (plain_wall, traced_wall),
          file=sys.stderr)
    return tally, metrics


def layer_metrics(tracer, setup, levels, overhead):
    c, s = tracer.counts, tracer.seconds
    m = {"problems.assemble_s": setup["problems.assemble"],
         "hierarchy.aggregate_s": setup["hierarchy.aggregate"],
         "hierarchy.prolongator_s": setup["hierarchy.prolongator"],
         "linalg.rap_s": setup["linalg.rap"],
         "smoothers.bind_s": setup["smoothers.bind"],
         "linalg.coarse_factor_s": setup["linalg.coarse_factor"]}
    for k in range(1, levels + 1):
        m["smoothers.calls.L%d" % k] = c.get("smoothers.L%d" % k, 0)
        m["smoothers.s.L%d" % k] = s.get("smoothers.L%d" % k, 0.0)
        m["linalg.matvecs.L%d" % k] = c.get("linalg.matvec.L%d" % k, 0)
        m["linalg.matvec_s.L%d" % k] = s.get("linalg.matvec.L%d" % k, 0.0)
        if k < levels:
            m["transfer.calls.L%d" % k] = c.get("transfer.L%d" % k, 0)
            m["transfer.s.L%d" % k] = s.get("transfer.L%d" % k, 0.0)
        m["cycles.visits.L%d" % k] = c.get("cycles.visits.L%d" % k, 0)
    fine_s = s.get("smoothers.fine", 0.0)
    m["smoothers.gbps_computed.fine"] = (
        c.get("smoothers.fine_bytes", 0) / fine_s / 1e9 if fine_s else 0.0)
    m["linalg.coarse_solves"] = c.get(tracing.COARSE_SPAN, 0)
    m["linalg.coarse_solve_s"] = s.get(tracing.COARSE_SPAN, 0.0)
    m["amli.pcg_calls"] = c.get(tracing.PCG_SPAN, 0)
    m["amli.pcg_steps"] = c.get("amli.pcg_steps", 0)
    m["amli.pcg_self_s"] = s.get(tracing.PCG_SPAN, 0.0)
    m["amli.pcg_matvecs"] = c.get("amli.pcg_matvecs", 0)
    m["amli.solve_matvecs"] = c.get("amli.solve_matvecs", 0)
    m["trace.overhead_s"] = overhead
    return m
