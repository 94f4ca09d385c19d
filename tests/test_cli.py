import subprocess
import sys

import pytest

import numpy as np

import mgbench.amli
import mgbench.cli
import mgbench.problems
from mgbench import (DENSE_LIMIT, PCGBreakdownError, SolveReport, assemble_jump,
                     assemble_poisson)
from mgbench.cli import (FAMILIES, build_parser, build_problem, emit_table,
                         main, parse_int_list, parse_truncation, run_experiment,
                         size_to_level)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_parse_int_list():
    assert parse_int_list("5..9") == [5, 6, 7, 8, 9]
    assert parse_int_list("3,5, 9") == [3, 5, 9]
    assert parse_int_list(7) == [7]


def test_parse_truncation():
    assert parse_truncation("full") == "full"
    assert parse_truncation("sd") == "sd"
    assert parse_truncation("2") == 2


def test_size_to_level():
    assert size_to_level(3969) == 6
    assert size_to_level(16129) == 7
    assert size_to_level(65025) == 8
    with pytest.raises(ValueError):
        size_to_level(4000)


def test_run_csv_shape_and_columns(capsys):
    code, out = run_cli(["run", "--problem", "poisson", "--levels", "2..4",
                         "--cycle", "v,amli,amli-tilde", "--npcg", "1,2"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "k,V,Bhat_npcg1,Bhat_npcg2,Btilde_npcg1,Btilde_npcg2"
    assert len(lines) == 4
    for line in lines[1:]:
        assert len(line.split(",")) == 6


def test_run_deterministic_output(capsys):
    args = ["run", "--problem", "jump", "--levels", "3..4", "--cycle",
            "v,amli-tilde", "--npcg", "2", "--seed", "20240501"]
    _, first = run_cli(args, capsys)
    _, second = run_cli(args, capsys)
    assert first == second


def test_markdown_and_csv_agree(capsys):
    base = ["run", "--problem", "poisson", "--levels", "3..3",
            "--cycle", "v", "--format"]
    _, csv_out = run_cli(base + ["csv"], capsys)
    _, md_out = run_cli(base + ["markdown"], capsys)
    csv_cells = csv_out.strip().splitlines()[1].split(",")
    md_cells = [c.strip() for c in
                md_out.strip().splitlines()[2].strip("|").split("|")]
    assert csv_cells == md_cells


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(
        "# poisson smoke config\n"
        "problem = poisson\n"
        "levels = 2..3\n"
        "cycle = v\n"
        "tol = 1e-6\n")
    _, from_file = run_cli(["run", "--config", str(cfg)], capsys)
    assert len(from_file.strip().splitlines()) == 3
    _, overridden = run_cli(["run", "--config", str(cfg),
                             "--levels", "2..2"], capsys)
    assert len(overridden.strip().splitlines()) == 2
    assert from_file.splitlines()[1] == overridden.splitlines()[1]


def test_verify_config_file_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "verify.cfg"
    cfg.write_text("levels = 2..3\nsamples = 10\nseed = 11\n")
    _, from_flags = run_cli(["verify", "--levels", "2..3", "--samples", "10",
                             "--seed", "7"], capsys)
    _, overridden = run_cli(["verify", "--config", str(cfg), "--seed", "7"],
                            capsys)
    _, from_file = run_cli(["verify", "--config", str(cfg)], capsys)
    assert overridden == from_flags
    assert from_file != from_flags


def test_hierarchy_config_file_matches_flags(tmp_path, capsys):
    cfg = tmp_path / "hierarchy.cfg"
    cfg.write_text("problem = ua_poisson\nsize = 961\ntheta = 0.1\n"
                   "min-coarse = 20\nmax-levels = 3\n")
    flags = ["hierarchy", "--problem", "ua_poisson", "--size", "961",
             "--theta", "0.1", "--min-coarse", "20", "--max-levels"]
    _, from_file = run_cli(["hierarchy", "--config", str(cfg)], capsys)
    _, overridden = run_cli(["hierarchy", "--config", str(cfg),
                             "--max-levels", "20"], capsys)
    assert from_file == run_cli(flags + ["3"], capsys)[1]
    assert overridden == run_cli(flags + ["20"], capsys)[1]
    assert overridden != from_file


def test_parsed_defaults(monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(mgbench.cli, "run_experiment",
                        lambda config: configs.append(config) or ([], []))
    assert main(["run"]) == 0
    assert main(["run", "--problem", "ua_poisson"]) == 0
    expected = {"problem": "poisson", "k_range": [5, 6, 7, 8, 9],
                "cycles": ["v", "amli", "amli-tilde"], "npcg": [1, 2],
                "truncation": "full", "smoother": "gs", "weight": 1.0,
                "sweeps": 1, "theta": 0.08, "min_coarse": 50,
                "max_levels": 20, "tol": 1e-6, "max_iter": 2000,
                "format": "csv", "seed": 20240501}
    assert {key: configs[0][key] for key in expected} == expected
    assert configs[1]["sizes"] == [3969, 16129, 65025]

    args = build_parser().parse_args(["verify"])
    assert (args.levels, args.samples, args.seed) == ([2, 3, 4, 5], 100,
                                                      20240501)

    class Report:
        def report(self):
            return ""

    built = []
    monkeypatch.setattr(mgbench.cli, "build_problem",
                        lambda problem, k, *rest: built.append((problem, k))
                        or (None, None, Report()))
    main(["hierarchy"])
    main(["hierarchy", "--problem", "ua_poisson"])
    assert built == [("poisson", 5), ("ua_poisson", 6)]


# a UA-AMG family at k = 5, so that it aggregates twice
@pytest.mark.parametrize("problem, k", [(problem, 5 if ua else 4)
                                        for problem, (_, ua) in FAMILIES.items()])
def test_build_problem_assembles_the_finest_matrix_once(problem, k, monkeypatch):
    # geometric hierarchies assemble every coarser mesh too; only the
    # finest mesh counts
    calls = []
    assemble = mgbench.problems._assemble
    monkeypatch.setattr(mgbench.problems, "_assemble",
                        lambda mesh, *args: calls.append(mesh.k)
                        or assemble(mesh, *args))
    A, f, h = build_problem(problem, k)
    assert calls.count(k) == 1
    assert np.shares_memory(h.finest.A.data, A.data)
    matrix, _ = FAMILIES[problem]
    A_ref, f_ref = (assemble_jump if matrix == "jump" else assemble_poisson)(k)
    for name in ("indptr", "indices", "data"):
        got, want = getattr(A, name), getattr(A_ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert f.dtype == f_ref.dtype and np.array_equal(f, f_ref)


def test_malformed_values_are_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--levels", "abc"])
    assert exc.value.code == 2
    assert "--levels" in capsys.readouterr().err
    cfg = tmp_path / "bad_samples.cfg"
    cfg.write_text("samples = ten\n")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_rejects_levels_above_dense_limit(monkeypatch, capsys):
    class Built(Exception):
        pass

    def build_geometric(*args, **kwargs):
        raise Built

    monkeypatch.setattr(mgbench.cli, "build_geometric", build_geometric)
    for levels in ["8", "2..9"]:
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--levels", levels])
        assert exc.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert "level 8" in error and str(DENSE_LIMIT) in error
    with pytest.raises(Built):       # level 7 passes the bound
        main(["verify", "--levels", "7"])
    proc = subprocess.run([sys.executable, "-m", "mgbench.cli", "verify",
                           "--levels", "8"], capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr


def test_bad_config_line_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("problem poisson\n")
    with pytest.raises(ValueError, match="key = value"):
        main(["run", "--config", str(cfg)])


def test_nonconverged_cells_and_exit_code(capsys):
    code, out = run_cli(["run", "--problem", "poisson", "--levels", "3..3",
                         "--cycle", "v", "--max-iter", "1"], capsys)
    assert code == 1
    assert ">1" in out


def test_table_names_failed_exits():
    reports = [SolveReport(iterations=3, status="converged", residual_history=[]),
               SolveReport(iterations=9, status="max_iter", residual_history=[]),
               SolveReport(iterations=1, status="nonfinite", residual_history=[]),
               SolveReport(iterations=2, status="diverged", residual_history=[]),
               SolveReport(iterations=0, status="breakdown", residual_history=[])]
    out = emit_table([(4, reports)], ["a", "b", "c", "d", "e"], "csv", 9)
    assert out.splitlines()[1] == "4,3,>9,nonfinite,diverged,breakdown"


def test_breakdown_cell_does_not_abort_table(capsys, monkeypatch):
    def broken_pcg(A, precond, f, params):
        raise PCGBreakdownError("PCG breakdown: zero-energy direction")

    monkeypatch.setattr(mgbench.amli, "run_pcg", broken_pcg)
    config = {"problem": "poisson", "k_range": [3, 4], "cycles": ["v", "amli"],
              "npcg": [1], "truncation": "full", "smoother": "gs",
              "weight": 1.0, "sweeps": 1, "tol": 1e-6, "max_iter": 50,
              "seed": 0}
    rows, cols = run_experiment(config)
    assert cols == ["V", "Bhat_npcg1"]
    assert [[r.status for r in row] for _, row in rows] == \
        [["converged", "breakdown"]] * 2
    code, out = run_cli(["run", "--problem", "poisson", "--levels", "3",
                         "--cycle", "v,amli", "--npcg", "1"], capsys)
    assert code == 1
    k, v_cell, amli_cell = out.strip().splitlines()[1].split(",")
    assert (k, amli_cell) == ("3", "breakdown") and v_cell.isdigit()


def test_ua_rows_keyed_by_size(capsys):
    code, out = run_cli(["run", "--problem", "ua_poisson", "--size", "961",
                         "--cycle", "amli-tilde", "--npcg", "2"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("size,")
    assert lines[1].startswith("961,")


# exact stdout of each family's table and hierarchy report; the jump run
# pins the seeded random start and the energy stop.  A FAMILIES row with no
# entry here fails test_family_golden_output
GOLDEN = {
    "poisson": {
        "run --problem poisson --levels 2..4":
            "k,V,Bhat_npcg1,Bhat_npcg2,Btilde_npcg1,Btilde_npcg2\n"
            "2,8,8,8,6,3\n"
            "3,10,9,9,7,3\n"
            "4,11,9,8,8,3\n",
        "hierarchy --problem poisson":
            "level  dimension  nonzeros\n"
            "    1          1         1\n"
            "    2          9        33\n"
            "    3         49       217\n"
            "    4        225      1065\n"
            "    5        961      4681\n"
            "operator complexity: 1.281\n",
    },
    "jump": {
        "run --problem jump --levels 3..4 --cycle v,amli,amli-tilde --npcg 2 "
        "--seed 20240501":
            "k,V,Bhat_npcg2,Btilde_npcg2\n"
            "3,21,21,5\n"
            "4,29,19,5\n",
        "hierarchy --problem jump":
            "level  dimension  nonzeros\n"
            "    1          9        33\n"
            "    2         49       217\n"
            "    3        225      1065\n"
            "    4        961      4681\n"
            "operator complexity: 1.281\n",
    },
    "ua_poisson": {
        "run --problem ua_poisson --size 961 --sweeps 2":
            "size,V,Bhat_npcg1,Bhat_npcg2,Btilde_npcg1,Btilde_npcg2\n"
            "961,57,33,33,18,8\n",
        "hierarchy --problem ua_poisson":
            "level  dimension  nonzeros\n"
            "    1         15        75\n"
            "    2         92       570\n"
            "    3        687      4537\n"
            "    4       3969     19593\n"
            "operator complexity: 1.264\n",
    },
}


@pytest.mark.parametrize("problem", list(FAMILIES))
def test_family_golden_output(problem, capsys):
    for command, expected in GOLDEN[problem].items():
        assert run_cli(command.split(), capsys) == (0, expected), command


def test_hierarchy_subcommand(capsys):
    code, out = run_cli(["hierarchy", "--problem", "ua_poisson",
                         "--size", "961"], capsys)
    assert code == 0
    assert "operator complexity" in out
    code, out = run_cli(["hierarchy", "--problem", "poisson",
                         "--levels", "4"], capsys)
    assert code == 0
    assert "225" in out


def test_verify_subcommand(capsys):
    code, out = run_cli(["verify", "--levels", "2..3", "--samples", "10"],
                        capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "name,passed,measured,tolerance,samples"
    assert any(ln.startswith("two_grid_factor_l3,") for ln in lines)
    assert any(ln.startswith("comparison_suite_full_n2,") for ln in lines)
    assert all(",true," in ln or ln == lines[0] for ln in lines)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "mgbench.cli", "run",
                           "--problem", "poisson", "--levels", "2..2",
                           "--cycle", "v"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("k,V")


def _forbid_building(monkeypatch):
    """Make every builder the subcommands reach raise, so a usage error is
    known to come before anything is built."""
    class Built(Exception):
        pass

    def built(*args, **kwargs):
        raise Built

    for name in ("run_experiment", "build_problem", "build_geometric"):
        monkeypatch.setattr(mgbench.cli, name, built)


def _usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err.strip().splitlines()[-1]


@pytest.mark.parametrize("line, named", [
    ("format = html", "'format'"),
    ("problem = foo", "'problem'"),
    ("smoother = bogus", "'smoother'"),
])
def test_config_value_outside_choices_is_usage_error(line, named, tmp_path,
                                                      monkeypatch, capsys):
    _forbid_building(monkeypatch)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("levels = 2\n%s\n" % line)
    error = _usage_error(["run", "--config", str(cfg)], capsys)
    assert named in error and line.split(" = ")[1] in error


def test_config_key_naming_no_flag_is_usage_error(tmp_path, monkeypatch,
                                                  capsys):
    _forbid_building(monkeypatch)
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("level = 2\n")       # --levels, mistyped
    assert "'level'" in _usage_error(["run", "--config", str(cfg)], capsys)
    cfg.write_text("samples = 10\n")    # a verify flag, not a run flag
    assert "'samples'" in _usage_error(["run", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("command, named", [
    ("run --levels 13", "level 13"),
    ("run --levels 1", "level 1"),
    ("run --levels 0..2", "level 0"),
    ("run --levels 5..13", "level 13"),
    ("run --problem jump --levels 1", "level 1"),
    ("run --problem ua_poisson --levels 13", "level 13"),
    ("run --problem ua_poisson --size 4000", "size 4000"),
    ("hierarchy --levels 13", "level 13"),
    ("hierarchy --levels 3,4", "one level or size, got 2"),
    ("hierarchy --problem ua_poisson --size 961,3969,16129",
     "one level or size, got 3"),
    ("run --levels 9..5", "'9..5'"),
    ("verify --levels 9..5", "'9..5'"),
    ("run --problem poisson --size 49", "--size applies only to the UA-AMG"),
    ("run --problem jump --size 961", "not to problem jump"),
    ("hierarchy --problem poisson --size 49", "not to problem poisson"),
    ("run --problem ua_poisson --levels 7 --size 961", "--levels and --size"),
    ("hierarchy --problem ua_poisson --levels 7 --size 961",
     "--levels and --size"),
])
def test_out_of_range_levels_and_sizes_are_usage_errors(command, named,
                                                         monkeypatch, capsys):
    _forbid_building(monkeypatch)
    assert named in _usage_error(command.split(), capsys)


@pytest.mark.parametrize("command", ["run", "hierarchy"])
def test_config_size_with_levels_flag_is_usage_error(command, tmp_path,
                                                     monkeypatch, capsys):
    _forbid_building(monkeypatch)
    cfg = tmp_path / "size.cfg"
    cfg.write_text("problem = ua_poisson\nsize = 961\n")
    error = _usage_error([command, "--config", str(cfg), "--levels", "7"],
                         capsys)
    assert "--levels and --size" in error


def test_ua_poisson_level_one_still_runs(capsys):
    code, out = run_cli(["run", "--problem", "ua_poisson", "--levels", "1",
                         "--cycle", "v"], capsys)
    assert code == 0
    assert out.splitlines() == ["size,V", "1,1"]


@pytest.mark.parametrize("argv", [
    ["run", "--cycle", "foo", "--levels", "2"],
    ["run", "--cycle", "v,foo", "--levels", "2"],
])
def test_unknown_cycle_is_usage_error(argv, monkeypatch, capsys):
    _forbid_building(monkeypatch)
    error = _usage_error(argv, capsys)
    assert "unknown cycle 'foo'" in error and "amli-tilde" in error


def test_unknown_cycle_in_config_is_usage_error(tmp_path, monkeypatch, capsys):
    _forbid_building(monkeypatch)
    cfg = tmp_path / "cycle.cfg"
    cfg.write_text("cycle = v, bogus\n")
    assert "unknown cycle 'bogus'" in _usage_error(["run", "--config", str(cfg)],
                                                   capsys)


def test_hierarchy_has_no_report_flag(capsys):
    with pytest.raises(SystemExit):
        main(["hierarchy", "--help"])
    assert "--report" not in capsys.readouterr().out
    _usage_error(["hierarchy", "--report"], capsys)


@pytest.mark.parametrize("command, named", [
    ("run --npcg 0", "n_inner must be >= 1, got 0"),
    ("run --truncate -1", "truncation must be"),
    ("run --sweeps 0", "sweeps must be >= 1, got 0"),
    ("run --smoother jacobi --weight 3", "jacobi weight must lie in (0, 2)"),
    ("run --smoother richardson --weight 0", "richardson weight must lie"),
    ("run --problem ua_poisson --min-coarse 0", "min_coarse must be >= 1"),
    ("run --problem ua_poisson --size 3969 --theta 1.5", "theta must lie"),
    ("run --problem ua_poisson --size 49 --theta 1.5", "theta must lie"),
    ("hierarchy --problem ua_poisson --theta 1.5", "theta must lie"),
    ("hierarchy --problem ua_poisson --min-coarse 0", "min_coarse must be"),
    ("verify --samples 0 --levels 6", "samples must be >= 1, got 0"),
    ("verify --samples -3", "samples must be >= 1, got -3"),
    ("run --tol -1", "tol must be > 0, got -1"),
    ("run --tol 0", "tol must be > 0, got 0"),
    ("run --max-iter 0", "max_iter must be >= 1, got 0"),
    ("run --max-levels 0", "max_levels must be >= 1, got 0"),
    ("run --problem ua_poisson --max-levels -2", "max_levels must be >= 1, got -2"),
    ("hierarchy --problem ua_poisson --max-levels 0", "max_levels must be >= 1"),
])
def test_bad_settings_are_usage_errors(command, named, monkeypatch, capsys):
    """Each setting is checked by the library rule that owns it, before
    anything is built, and reported as a usage error (exit 2)."""
    _forbid_building(monkeypatch)
    assert named in _usage_error(command.split(), capsys)


@pytest.mark.parametrize("command", [
    "hierarchy --problem ua_poisson --size 16129 --max-levels 1",
    "run --problem ua_poisson --size 16129 --max-levels 1 --cycle v",
])
def test_coarsest_level_above_dense_limit_is_usage_error(command, capsys):
    """A one-level 16129-unknown hierarchy would factor its only level
    densely; build_ua_amg rejects it before binding any smoother, and the
    CLI reports that as a usage error."""
    named = "the coarsest of 1 levels has 16129 unknowns, above the dense limit 4096"
    assert named in _usage_error(command.split(), capsys)


@pytest.mark.parametrize("command", ["hierarchy --levels 3 --seed 5",
                                     "verify --suite all"])
def test_removed_flags_are_usage_errors(command, monkeypatch, capsys):
    _forbid_building(monkeypatch)
    assert "unrecognized arguments" in _usage_error(command.split(), capsys)


def test_both_builders_assemble_through_one_lookup(monkeypatch):
    # a wrapper bound to mgbench.problems.assemble_poisson, as the
    # benchmark's setup spans bind theirs, sees every level of a geometric
    # build and the finest matrix of a UA-AMG one
    calls = []
    assemble = mgbench.problems.assemble_poisson
    monkeypatch.setattr(mgbench.problems, "assemble_poisson",
                        lambda k: calls.append(k) or assemble(k))
    build_problem("poisson", 4)
    assert calls == [1, 2, 3, 4]
    build_problem("ua_poisson", 5)
    assert calls == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="unknown problem 'aniso'"):
        mgbench.problems.assemble("aniso", 4)
