"""mgbench command line: experiment tables, verification suite, hierarchy info.

Subcommands:
  run        solve a problem family over a level/size range for a set of
             cycles and print the iteration-count table (csv or markdown)
  verify     run the numeric theory checks and print one CSV row per check
  hierarchy  build a hierarchy and print its level/size/complexity report

A config file of `key = value` lines (# comments) can pre-set any flag of
the subcommand; its values are converted and checked like the flag's, and
explicit command-line flags override it.
"""
import argparse
import sys

import numpy as np

from .amli import CycleParams, apply_amli, apply_amli_ns, apply_amli_tilde, \
    apply_amli_tilde_ns, apply_backslash, apply_v_cycle, require_stopping, \
    stationary_solve
from .hierarchy import DEFAULT_MAX_LEVELS, DEFAULT_MIN_COARSE, DEFAULT_THETA, \
    CoarseningStagnation, build_geometric, build_ua_amg, require_coarsening
from .linalg import DENSE_LIMIT
from .problems import MAX_LEVEL, assemble, load_vector
from .smoothers import SmootherSpec
from .verify import DEFAULT_SAMPLES, DEFAULT_SEED, require_samples, rng_for, \
    run_suite

# token -> (column label, cycle function, takes inner PCG steps)
CYCLES = {
    "v": ("V", apply_v_cycle, False),
    "backslash": ("backslash", apply_backslash, False),
    "amli": ("Bhat", apply_amli, True),
    "amli-ns": ("Bhat_ns", apply_amli_ns, True),
    "amli-tilde": ("Btilde", apply_amli_tilde, True),
    "amli-tilde-ns": ("Btilde_ns", apply_amli_tilde_ns, True),
}

# --problem -> (matrix, coarsened by UA-AMG: rows keyed by size, from level 1)
FAMILIES = {
    "poisson": ("poisson", False),
    "jump": ("jump", False),
    "ua_poisson": ("poisson", True),
}


def parse_int_list(text):
    """'5..9' -> [5..9]; '3,5,9' -> [3, 5, 9]; an empty list is an error."""
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..")
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise argparse.ArgumentTypeError("empty list %r" % text)
    return values


def parse_cycles(text):
    """'v,amli' -> ['v', 'amli']; an unknown token or an empty list is an error."""
    cycles = [tok.strip() for tok in str(text).split(",") if tok.strip()]
    for cycle in cycles:
        if cycle not in CYCLES:
            raise argparse.ArgumentTypeError("unknown cycle %r (expected one of %s)"
                                             % (cycle, "|".join(CYCLES)))
    if not cycles:
        raise argparse.ArgumentTypeError("empty list %r" % text)
    return cycles


def parse_truncation(text):
    text = str(text).strip()
    if text in ("full", "sd"):
        return text
    return int(text)


def size_to_level(size):
    for k in range(1, MAX_LEVEL + 1):
        if (2 ** k - 1) ** 2 == size:
            return k
    raise ValueError("size %d is not an interior-grid size (2^k - 1)^2 with "
                     "1 <= k <= %d" % (size, MAX_LEVEL))


def load_config(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("bad config line (expected key = value): %r"
                                 % raw.rstrip())
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _columns(cycles, npcg, truncation):
    """(label, cycle function, extra arguments) for each table column."""
    cols = []
    for cycle in cycles:
        label, fn, inner_steps = CYCLES[cycle]
        if not inner_steps:
            cols.append((label, fn, ()))
            continue
        for n in npcg:
            params = CycleParams(n_inner=n, truncation=truncation)
            cols.append(("%s_npcg%d" % (label, n), fn, (params,)))
    return cols


def build_problem(problem, k, smoother=None, theta=DEFAULT_THETA,
                  min_coarse=DEFAULT_MIN_COARSE, max_levels=DEFAULT_MAX_LEVELS):
    """System matrix A, right-hand side f and hierarchy of one FAMILIES
    entry at mesh level k; theta, min_coarse and max_levels shape only a
    UA-AMG hierarchy.  The geometric families assemble A once, as the
    finest level of their hierarchy."""
    matrix, ua = FAMILIES[problem]
    if ua:
        A, f = assemble(matrix, k)
        return A, f, build_ua_amg(A, theta=theta, min_coarse=min_coarse,
                                  max_levels=max_levels, smoother=smoother)
    h = build_geometric(matrix, k, smoother=smoother)
    return h.finest.A, load_vector(matrix, k), h


def run_experiment(config):
    """Execute the configured table of solves; returns (row_labels, col_labels,
    grid of SolveReport)."""
    smoother = SmootherSpec(kind=config["smoother"], weight=config["weight"],
                            sweeps=config["sweeps"])
    cols = _columns(config["cycles"], config["npcg"], config["truncation"])
    problem = config["problem"]
    tol = config["tol"]
    max_iter = config["max_iter"]
    seed = config["seed"]
    coarsening = {key: config[key] for key in ("theta", "min_coarse", "max_levels")
                  if key in config}

    if FAMILIES[problem][1]:
        row_keys = [(size_to_level(s), s) for s in config["sizes"]]
    else:
        row_keys = [(k, k) for k in config["k_range"]]

    rows = []
    for k, label in row_keys:
        A, f, h = build_problem(problem, k, smoother, **coarsening)
        u0, u_exact = None, None
        if not f.any():
            # f = 0, so u* = 0: a random start, whose energy sets the decades to
            # traverse; the stream keeps the jump name so tables stay byte-identical
            u0 = rng_for(seed, "jump_u0_k%d" % k).standard_normal(A.shape[0])
            u_exact = np.zeros(A.shape[0])

        row = []
        for _name, fn, extra in cols:
            def op(r):
                return fn(h, h.n_levels, r, *extra)
            try:
                report = stationary_solve(op, A, f, u0=u0, tol=tol,
                                          max_iter=max_iter, u_exact=u_exact)
            except Exception as exc:
                raise RuntimeError("solve failed at row %s, column %s: %s"
                                   % (label, _name, exc)) from exc
            row.append(report)
        rows.append((label, row))
    return rows, [name for name, _, _ in cols]


def emit_table(rows, col_labels, fmt, max_iter, row_header="k"):
    """Render the iteration-count grid as csv or a markdown pipe table.

    A converged cell shows its iteration count, a cell that ran out of
    iterations shows >max_iter, and any other exit (diverged, nonfinite,
    breakdown) shows its status name.
    """
    def cell(report):
        if report.status == "converged":
            return str(report.iterations)
        if report.status == "max_iter":
            return ">%d" % max_iter
        return report.status

    if fmt == "csv":
        lines = [",".join([row_header] + list(col_labels))]
        for label, row in rows:
            lines.append(",".join([str(label)] + [cell(r) for r in row]))
        return "\n".join(lines)
    if fmt == "markdown":
        header = [row_header] + list(col_labels)
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        for label, row in rows:
            lines.append("| " + " | ".join([str(label)] + [cell(r) for r in row]) + " |")
        return "\n".join(lines)
    raise ValueError("unknown format %r" % fmt)


def _add_common(p, handler):
    p.add_argument("--config", default=None, help="key = value config file")
    # main re-parses with the file's values as defaults of this parser, and
    # commands report usage errors through it
    p.set_defaults(handler=handler, parser=p)


def _add_problem(p):
    p.add_argument("--problem", choices=list(FAMILIES), default="poisson")
    p.add_argument("--levels", type=parse_int_list, default=None,
                   help="e.g. 5..9 or 5,7")
    p.add_argument("--size", type=parse_int_list, default=None,
                   help="sizes, for the UA-AMG families (%s), e.g. 3969,16129"
                   % ", ".join(f for f, (_, ua) in FAMILIES.items() if ua))
    p.add_argument("--theta", type=float, default=DEFAULT_THETA)
    p.add_argument("--min-coarse", type=int, default=DEFAULT_MIN_COARSE)
    p.add_argument("--max-levels", type=int, default=DEFAULT_MAX_LEVELS)


def build_parser():
    ap = argparse.ArgumentParser(prog="mgbench")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve experiment tables")
    _add_common(run, cmd_run)
    _add_problem(run)
    run.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run.add_argument("--cycle", type=parse_cycles, default="v,amli,amli-tilde",
                     help="comma list of " + "|".join(CYCLES))
    run.add_argument("--npcg", type=parse_int_list, default="1,2",
                     help="inner PCG steps, e.g. 1,2")
    run.add_argument("--truncate", type=parse_truncation, default="full",
                     help="full|sd|m (window size)")
    run.add_argument("--smoother", choices=["gs", "jacobi", "richardson"],
                     default="gs")
    run.add_argument("--weight", type=float, default=1.0)
    run.add_argument("--sweeps", type=int, default=1)
    run.add_argument("--tol", type=float, default=1e-6)
    run.add_argument("--max-iter", type=int, default=2000)
    run.add_argument("--format", choices=["csv", "markdown"], default="csv")

    ver = sub.add_parser("verify", help="run theory checks, CSV per check")
    _add_common(ver, cmd_verify)
    ver.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ver.add_argument("--levels", type=parse_int_list, default="2..5",
                     help="e.g. 2..5; at most 7 (dense coarse projector)")
    ver.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)

    hi = sub.add_parser("hierarchy", help="print a hierarchy report")
    _add_common(hi, cmd_hierarchy)
    _add_problem(hi)
    return ap


def row_levels(args, default, ua_default):
    """Mesh levels of the rows: --size (UA-AMG families only), else --levels,
    else the family's default.  --size with --levels, a size other than
    (2^k - 1)^2 and a level the family cannot build are usage errors."""
    _, ua = FAMILIES[args.problem]
    if args.size is not None and not ua:
        args.parser.error("--size applies only to the UA-AMG families, not "
                          "to problem %s" % args.problem)
    if args.size is not None and args.levels is not None:
        args.parser.error("--levels and --size both given; give one of them")
    levels = args.levels if args.levels is not None else \
        (ua_default if ua else default)
    if args.size is not None:
        levels = [_usage(args, size_to_level, s) for s in args.size]
    lowest = 1 if ua else 2
    for k in levels:
        if not lowest <= k <= MAX_LEVEL:
            args.parser.error("level %d is not in %d..%d for problem %s"
                              % (k, lowest, MAX_LEVEL, args.problem))
    return levels


def _usage(args, check, *values):
    """check(*values), with a ValueError or a CoarseningStagnation (settings
    under which aggregation stops shrinking) reported as a usage error
    (exit 2)."""
    try:
        return check(*values)
    except (ValueError, CoarseningStagnation) as exc:
        args.parser.error(str(exc))


def cmd_run(args):
    # UA-AMG default: sizes 3969, 16129, 65025
    levels = row_levels(args, [5, 6, 7, 8, 9], [6, 7, 8])
    # the settings run_experiment builds, built once first to check them
    _usage(args, SmootherSpec, args.smoother, args.weight, args.sweeps)
    _usage(args, _columns, args.cycle, args.npcg, args.truncate)
    _usage(args, require_coarsening, args.theta, args.min_coarse, args.max_levels)
    _usage(args, require_stopping, args.tol, args.max_iter)
    config = dict(vars(args), truncation=args.truncate, cycles=args.cycle)
    if FAMILIES[args.problem][1]:
        config["sizes"] = [(2 ** k - 1) ** 2 for k in levels]
        row_header = "size"
    else:
        config["k_range"] = levels
        row_header = "k"

    # a hierarchy whose coarsest level is above the dense limit, or whose
    # coarsening stagnates, shows only when it is built; solve failures
    # come out as RuntimeError
    rows, col_labels = _usage(args, run_experiment, config)
    print(emit_table(rows, col_labels, args.format, args.max_iter, row_header))
    all_ok = all(rep.converged for _, row in rows for rep in row)
    return 0 if all_ok else 1


def cmd_verify(args):
    _usage(args, require_samples, args.samples)
    for k in args.levels:
        # the coarse projector at level k factors the level-(k-1) operator densely
        n_coarse = (2 ** (k - 1) - 1) ** 2
        if n_coarse > DENSE_LIMIT:
            args.parser.error("level %d needs a dense coarse operator of %d "
                              "unknowns, above the dense limit %d"
                              % (k, n_coarse, DENSE_LIMIT))
    _, _, h = build_problem("poisson", max(max(args.levels), 2))
    reports = run_suite(h, args.levels, args.samples, args.seed)
    print("name,passed,measured,tolerance,samples")
    for rep in reports:
        print(rep.csv_row())
    return 0 if all(r.passed for r in reports) else 1


def cmd_hierarchy(args):
    k, *rest = row_levels(args, [5], [6])
    if rest:
        args.parser.error("hierarchy takes one level or size, got %d" % (1 + len(rest)))
    _usage(args, require_coarsening, args.theta, args.min_coarse, args.max_levels)
    _, _, h = _usage(args, build_problem, args.problem, k, None, args.theta,
                     args.min_coarse, args.max_levels)
    print(h.report())
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        values = load_config(args.config)
        flags = {a.dest: a for a in args.parser._actions if a.option_strings}
        for key, value in values.items():
            if key not in flags:
                args.parser.error("config key %r names no flag" % key)
            if flags[key].choices and value not in flags[key].choices:
                args.parser.error("config key %r: %r is not one of %s"
                                  % (key, value, "|".join(flags[key].choices)))
        # argparse converts string defaults with the flag's own type (but
        # checks no choices), and flags given on the command line still win
        args.parser.set_defaults(**values)
        args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
