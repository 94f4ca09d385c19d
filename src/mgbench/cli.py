"""mgbench command line: experiment tables, verification suite, hierarchy info.

Subcommands:
  run        solve a problem family over a level/size range for a set of
             cycles and print the iteration-count table (csv or markdown)
  verify     run the numeric theory checks and print one CSV row per check
  hierarchy  build a hierarchy and print its level/size/complexity report

A config file of `key = value` lines (# comments) can pre-set any flag;
explicit command-line flags override it.
"""
import argparse
import sys

import numpy as np

from .amli import CycleParams, apply_amli, apply_amli_ns, apply_amli_tilde, \
    apply_amli_tilde_ns, required_n, stationary_solve
from .cycles import apply_backslash, apply_v_cycle
from .hierarchy import DEFAULT_MAX_LEVELS, DEFAULT_MIN_COARSE, DEFAULT_THETA, \
    build_geometric, build_ua_amg
from .problems import assemble_jump, assemble_poisson
from .smoothers import SmootherSpec
from .verify import CheckReport, check_approximation_constant, \
    check_comparison_suite, check_error_representation, \
    check_smoothed_projection_bound, check_two_grid_factor, rng_for

DEFAULT_SEED = 20240501

CYCLE_TOKENS = ("v", "backslash", "amli", "amli-ns", "amli-tilde", "amli-tilde-ns")
_LABELS = {"v": "V", "backslash": "backslash", "amli": "Bhat",
           "amli-ns": "Bhat_ns", "amli-tilde": "Btilde",
           "amli-tilde-ns": "Btilde_ns"}


def parse_int_list(text):
    """'5..9' -> [5..9]; '3,5,9' -> [3, 5, 9]."""
    text = str(text).strip()
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def parse_truncation(text):
    text = str(text).strip()
    if text in ("full", "sd"):
        return text
    return int(text)


def size_to_level(size):
    k = round(np.log2(np.sqrt(size) + 1.0))
    if (2 ** k - 1) ** 2 != size:
        raise ValueError("size %d is not an interior-grid size (2^k - 1)^2" % size)
    return int(k)


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
    cols = []
    for cycle in cycles:
        if cycle not in CYCLE_TOKENS:
            raise ValueError("unknown cycle %r (expected one of %s)"
                             % (cycle, "|".join(CYCLE_TOKENS)))
        if cycle in ("v", "backslash"):
            cols.append((_LABELS[cycle], cycle, None))
        else:
            kind = ("amli_nonsymmetric" if cycle.endswith("-ns")
                    else "amli_symmetric")
            for n in npcg:
                params = CycleParams(n_inner=n, truncation=truncation, kind=kind)
                cols.append(("%s_npcg%d" % (_LABELS[cycle], n), cycle, params))
    return cols


def _operator(cycle, h, params):
    top = h.n_levels
    return {
        "v": lambda r: apply_v_cycle(h, top, r),
        "backslash": lambda r: apply_backslash(h, top, r),
        "amli": lambda r: apply_amli(h, top, r, params),
        "amli-ns": lambda r: apply_amli_ns(h, top, r, params),
        "amli-tilde": lambda r: apply_amli_tilde(h, top, r, params),
        "amli-tilde-ns": lambda r: apply_amli_tilde_ns(h, top, r, params),
    }[cycle]


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

    if problem == "ua_poisson":
        row_keys = [(size_to_level(s), s) for s in config["sizes"]]
    else:
        row_keys = [(k, k) for k in config["k_range"]]

    rows = []
    for k, label in row_keys:
        if problem == "poisson":
            A, f = assemble_poisson(k)
            h = build_geometric("poisson", k, smoother=smoother)
            u0, u_exact, tol_kind = None, None, "rel_residual"
        elif problem == "jump":
            A, f = assemble_jump(k)
            h = build_geometric("jump", k, smoother=smoother)
            # random start with u* = 0; the energy of the start sets the
            # decades the solver must traverse before |u|_A <= tol
            u0 = rng_for(seed, "jump_u0_k%d" % k).standard_normal(A.shape[0])
            u_exact = np.zeros(A.shape[0])
            tol_kind = "energy_error"
        elif problem == "ua_poisson":
            A, f = assemble_poisson(k)
            h = build_ua_amg(A, theta=config["theta"],
                             min_coarse=config["min_coarse"],
                             max_levels=config["max_levels"],
                             smoother=smoother)
            u0, u_exact, tol_kind = None, None, "rel_residual"
        else:
            raise ValueError("unknown problem %r" % problem)

        row = []
        for _name, cycle, params in cols:
            op = _operator(cycle, h, params)
            try:
                report = stationary_solve(op, A, f, u0=u0, tol=tol,
                                          tol_kind=tol_kind, max_iter=max_iter,
                                          u_exact=u_exact)
            except Exception as exc:
                raise RuntimeError("solve failed at row %s, column %s: %s"
                                   % (label, _name, exc)) from exc
            row.append(report)
        rows.append((label, row))
    return rows, [name for name, _, _ in cols]


def emit_table(rows, col_labels, fmt, max_iter, row_header="k"):
    """Render the iteration-count grid as csv or a markdown pipe table.

    A converged cell shows its iteration count, a cell that ran out of
    iterations shows >max_iter, and any other exit shows its status name.
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


def _add_common(p):
    p.add_argument("--config", default=None, help="key = value config file")
    p.add_argument("--seed", type=int, default=None)


def build_parser():
    ap = argparse.ArgumentParser(prog="mgbench")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="solve experiment tables")
    _add_common(run)
    run.add_argument("--problem", choices=["poisson", "jump", "ua_poisson"],
                     default=None)
    run.add_argument("--levels", default=None, help="e.g. 5..9 or 5,7")
    run.add_argument("--size", default=None, help="ua_poisson sizes, e.g. 3969,16129")
    run.add_argument("--cycle", default=None,
                     help="comma list of " + "|".join(CYCLE_TOKENS))
    run.add_argument("--npcg", default=None, help="inner PCG steps, e.g. 1,2")
    run.add_argument("--truncate", default=None, help="full|sd|m (window size)")
    run.add_argument("--smoother", choices=["gs", "jacobi", "richardson"],
                     default=None)
    run.add_argument("--weight", type=float, default=None)
    run.add_argument("--sweeps", type=int, default=None)
    run.add_argument("--theta", type=float, default=None)
    run.add_argument("--min-coarse", type=int, default=None)
    run.add_argument("--max-levels", type=int, default=None)
    run.add_argument("--tol", type=float, default=None)
    run.add_argument("--max-iter", type=int, default=None)
    run.add_argument("--format", choices=["csv", "markdown"], default=None)

    ver = sub.add_parser("verify", help="run theory checks, CSV per check")
    _add_common(ver)
    ver.add_argument("--suite", choices=["all"], default="all")
    ver.add_argument("--levels", default=None, help="e.g. 2..5")
    ver.add_argument("--samples", type=int, default=None)

    hi = sub.add_parser("hierarchy", help="print a hierarchy report")
    _add_common(hi)
    hi.add_argument("--problem", choices=["poisson", "jump", "ua_poisson"],
                    default=None)
    hi.add_argument("--levels", default=None)
    hi.add_argument("--size", default=None)
    hi.add_argument("--theta", type=float, default=None)
    hi.add_argument("--min-coarse", type=int, default=None)
    hi.add_argument("--max-levels", type=int, default=None)
    hi.add_argument("--report", action="store_true")
    return ap


def _setting(args, file_cfg, name, default, convert=None):
    cli = getattr(args, name, None)
    if cli is not None:
        return cli
    if name in file_cfg:
        raw = file_cfg[name]
        return convert(raw) if convert else raw
    return default


def cmd_run(args, file_cfg):
    cycles = _setting(args, file_cfg, "cycle", "v,amli,amli-tilde")
    npcg = _setting(args, file_cfg, "npcg", "1,2")
    config = {
        "problem": _setting(args, file_cfg, "problem", "poisson"),
        "cycles": [c.strip() for c in str(cycles).split(",") if c.strip()],
        "npcg": parse_int_list(npcg),
        "truncation": parse_truncation(_setting(args, file_cfg, "truncate", "full")),
        "smoother": _setting(args, file_cfg, "smoother", "gs"),
        "weight": float(_setting(args, file_cfg, "weight", 1.0)),
        "sweeps": int(_setting(args, file_cfg, "sweeps", 1)),
        "theta": float(_setting(args, file_cfg, "theta", DEFAULT_THETA)),
        "min_coarse": int(_setting(args, file_cfg, "min_coarse", DEFAULT_MIN_COARSE)),
        "max_levels": int(_setting(args, file_cfg, "max_levels", DEFAULT_MAX_LEVELS)),
        "tol": float(_setting(args, file_cfg, "tol", 1e-6)),
        "max_iter": int(_setting(args, file_cfg, "max_iter", 2000)),
        "seed": int(_setting(args, file_cfg, "seed", DEFAULT_SEED)),
    }
    fmt = _setting(args, file_cfg, "format", "csv")
    levels = _setting(args, file_cfg, "levels", None)
    sizes = _setting(args, file_cfg, "size", None)
    if config["problem"] == "ua_poisson":
        if sizes is None and levels is not None:
            config["sizes"] = [(2 ** k - 1) ** 2 for k in parse_int_list(levels)]
        else:
            config["sizes"] = parse_int_list(sizes if sizes is not None
                                             else "3969,16129,65025")
        row_header = "size"
    else:
        config["k_range"] = parse_int_list(levels if levels is not None else "5..9")
        row_header = "k"
    if not config["k_range" if config["problem"] != "ua_poisson" else "sizes"]:
        raise ValueError("empty level/size range")

    rows, col_labels = run_experiment(config)
    print(emit_table(rows, col_labels, fmt, config["max_iter"], row_header))
    all_ok = all(rep.converged for _, row in rows for rep in row)
    return 0 if all_ok else 1


def cmd_verify(args, file_cfg):
    levels = parse_int_list(_setting(args, file_cfg, "levels", "2..5"))
    samples = int(_setting(args, file_cfg, "samples", 100))
    seed = int(_setting(args, file_cfg, "seed", DEFAULT_SEED))
    k_max = max(max(levels), 2)
    h = build_geometric("poisson", k_max)

    reports = []
    for k in levels:
        if k < 2:
            continue
        reports.append(check_approximation_constant(h, k, samples, seed))
        reports.append(check_smoothed_projection_bound(h, k, samples, seed))
        if k <= 3:
            reports.append(check_error_representation(h, k, seed=seed))
        if k <= 5:
            factor = check_two_grid_factor(h, k)
            reports.append(CheckReport(
                name="two_grid_factor_l%d" % k,
                passed=factor < 1.0,
                measured={"delta_bar": factor,
                          "required_n": float(required_n(factor))},
                violation=max(0.0, factor - 1.0), tolerance=0.0, samples=0))
    reports.append(check_comparison_suite(h, CycleParams(n_inner=1),
                                          samples=max(10, samples // 5), seed=seed))
    reports.append(check_comparison_suite(h, CycleParams(n_inner=2),
                                          samples=max(10, samples // 5), seed=seed))

    print("name,passed,measured,tolerance,samples")
    for rep in reports:
        print(rep.csv_row())
    return 0 if all(r.passed for r in reports) else 1


def cmd_hierarchy(args, file_cfg):
    problem = _setting(args, file_cfg, "problem", "poisson")
    sizes = _setting(args, file_cfg, "size", None)
    levels = _setting(args, file_cfg, "levels", None)
    if problem == "ua_poisson":
        if sizes is not None:
            k = size_to_level(parse_int_list(sizes)[0])
        else:
            k = parse_int_list(levels)[0] if levels is not None else 6
        A, _ = assemble_poisson(k)
        h = build_ua_amg(
            A,
            theta=float(_setting(args, file_cfg, "theta", DEFAULT_THETA)),
            min_coarse=int(_setting(args, file_cfg, "min_coarse", DEFAULT_MIN_COARSE)),
            max_levels=int(_setting(args, file_cfg, "max_levels", DEFAULT_MAX_LEVELS)))
    else:
        k = parse_int_list(levels)[0] if levels is not None else 5
        h = build_geometric(problem, k)
    print(h.report())
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    file_cfg = load_config(args.config) if args.config else {}
    if args.command == "run":
        return cmd_run(args, file_cfg)
    if args.command == "verify":
        return cmd_verify(args, file_cfg)
    return cmd_hierarchy(args, file_cfg)


if __name__ == "__main__":
    sys.exit(main())
