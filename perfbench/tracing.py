"""Outside-in tracing of mgbench for the benchmark's per-layer metrics.

Nothing here changes the program.  A `Tracer` times calls as nested spans
and keeps per-span counts and self times (a span's duration minus the part
its child spans cover).  Two things feed it:

* `patched` replaces, for the duration of a `with` block, every binding of
  a given mgbench function or class in the loaded mgbench modules by a
  wrapper that runs it inside a span;
* `traced_hierarchy` copies a built Hierarchy into one whose level
  matrices, prolongators, smoothers and coarse solver are proxies that
  time each call and hand back the wrapped object's own result.

Since every proxy returns exactly what the wrapped call returned, a traced
solve does the same arithmetic as an untraced one and must give
bit-identical iterates; the benchmark checks that.

Span names double as metric stems: "smoothers.L3" becomes
smoothers.calls.L3 (its count) and smoothers.s.L3 (its self time).
"""
import functools
import operator
import sys
from time import perf_counter

from mgbench import Hierarchy, Level

PCG_SPAN = "amli.pcg"
PRECOND_SPAN = "cycles.precond"
COARSE_SPAN = "linalg.coarse_solve"


class Tracer:
    """Counts and self times of nested spans, keyed by span name."""

    def __init__(self):
        self.counts = {}
        self.seconds = {}
        self._stack = []    # open spans: [name, seconds covered by children]

    def add(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][0] if self._stack else None

    def call(self, name, fn, *args, alias=None, **kwargs):
        """Run fn(*args, **kwargs) as span `name`; alias gets the same self time."""
        frame = [name, 0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += dt
            own = dt - frame[1]
            self.seconds[name] = self.seconds.get(name, 0.0) + own
            if alias is not None:
                self.seconds[alias] = self.seconds.get(alias, 0.0) + own
            self.add(name)

    def snapshot(self):
        return dict(self.counts)


def _mgbench_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "mgbench" or name.startswith("mgbench."))]


def _bindings(targets):
    """(module, attribute, original, replacement) for every mgbench binding
    of an object in `targets`, a list of (original, replacement) pairs."""
    by_id = {id(orig): (orig, repl) for orig, repl in targets}
    found = []
    for mod in _mgbench_modules():
        for attr, value in list(vars(mod).items()):
            hit = by_id.get(id(value))
            if hit is not None and hit[0] is value:
                found.append((mod, attr, value, hit[1]))
    return found


class patched:
    """Context manager: wrap mgbench functions in spans, restore on exit.

    `spans` maps each original function or class to a span name; `extra`
    is a list of (original, replacement) pairs for wrappers that do more
    than time the call.
    """

    def __init__(self, tracer, spans=None, extra=()):
        targets = [(orig, _span_wrapper(tracer, orig, name))
                   for orig, name in (spans or {}).items()]
        self._bindings = _bindings(targets + list(extra))

    def __enter__(self):
        for mod, attr, _orig, repl in self._bindings:
            setattr(mod, attr, repl)
        return self

    def __exit__(self, *exc):
        for mod, attr, orig, _repl in self._bindings:
            setattr(mod, attr, orig)
        return False


def _span_wrapper(tracer, fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)
    return wrapper


def pcg_wrapper(tracer, run_pcg):
    """Replacement for mgbench.amli.run_pcg.

    The preconditioner runs in its own span, so the PCG span's self time
    excludes the preconditioner and (through the level-matrix proxies) the
    matvecs.  Steps are the stored search directions of the returned state.
    """
    @functools.wraps(run_pcg)
    def wrapper(A, precond, f, params):
        def timed_precond(r):
            return tracer.call(PRECOND_SPAN, precond, r)
        state = tracer.call(PCG_SPAN, run_pcg, A, timed_precond, f, params)
        tracer.add("amli.pcg_steps", len(state.directions))
        return state
    return wrapper


class _Proxy:
    """Forward every attribute that is not traced to the wrapped object."""

    def __init__(self, tracer, inner):
        self._tracer = tracer
        self._inner = inner

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def _transpose_matmul(M, x):
    return M.T @ x


class MatrixProxy(_Proxy):
    """Times `M @ x` and `M.T @ x` (the transpose is formed inside the span).

    `counter`, if given, is one more count to bump per product; products
    made directly by a PCG invocation also count as amli.pcg_matvecs.
    """

    def __init__(self, tracer, inner, span, counter=None):
        super().__init__(tracer, inner)
        self._span = span
        self._counter = counter

    def _count(self):
        if self._tracer.current() == PCG_SPAN:
            self._tracer.add("amli.pcg_matvecs")
        if self._counter is not None:
            self._tracer.add(self._counter)

    def __matmul__(self, x):
        self._count()
        return self._tracer.call(self._span, operator.matmul, self._inner, x)

    @property
    def T(self):
        return _TransposeProxy(self)


class _TransposeProxy:
    def __init__(self, of):
        self._of = of

    def __matmul__(self, x):
        of = self._of
        of._count()
        return of._tracer.call(of._span, _transpose_matmul, of._inner, x)


class SmootherProxy(_Proxy):
    """Times apply/apply_transpose at level k; apply at k >= 2 is a visit.

    On a finest level, fine_bytes is the computed traffic of one call, and
    the call's time also goes to the "smoothers.fine" alias.
    """

    def __init__(self, tracer, inner, k, fine_bytes=None):
        super().__init__(tracer, inner)
        self._k = k
        self._span = "smoothers.L%d" % k
        self._fine_bytes = fine_bytes

    def _run(self, fn, f):
        if self._fine_bytes is None:
            return self._tracer.call(self._span, fn, f)
        self._tracer.add("smoothers.fine_bytes", self._fine_bytes)
        return self._tracer.call(self._span, fn, f, alias="smoothers.fine")

    def apply(self, f):
        if self._k >= 2:
            self._tracer.add("cycles.visits.L%d" % self._k)
        return self._run(self._inner.apply, f)

    def apply_transpose(self, f):
        return self._run(self._inner.apply_transpose, f)


class CoarseProxy(_Proxy):
    """Times the coarsest-level solve; each solve is a visit of level 1."""

    def solve(self, f):
        self._tracer.add("cycles.visits.L1")
        return self._tracer.call(COARSE_SPAN, self._inner.solve, f)


def traced_hierarchy(h, tracer, fine_bytes=None):
    """A copy of h whose per-level objects are tracing proxies."""
    levels = []
    for k in range(1, h.n_levels + 1):
        lv = h.level(k)
        P = lv.P_to_finer
        levels.append(Level(
            A=MatrixProxy(tracer, lv.A, "linalg.matvec.L%d" % k),
            P_to_finer=None if P is None else MatrixProxy(tracer, P, "transfer.L%d" % k),
            smoother=SmootherProxy(tracer, lv.smoother, k,
                                   fine_bytes if k == h.n_levels else None)))
    return Hierarchy(levels=levels,
                     coarsest_solver=CoarseProxy(tracer, h.coarsest_solver),
                     mesh_levels=h.mesh_levels)


def traced_system_matrix(A, tracer, k):
    """Proxy for the matrix handed to stationary_solve (level k, the finest)."""
    return MatrixProxy(tracer, A, "linalg.matvec.L%d" % k,
                       counter="amli.solve_matvecs")
