import subprocess
import sys

import pytest

from mgbench import SolveReport
from mgbench.cli import (emit_table, main, parse_int_list, parse_truncation,
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
               SolveReport(iterations=2, status="diverged", residual_history=[])]
    out = emit_table([(4, reports)], ["a", "b", "c", "d"], "csv", 9)
    assert out.splitlines()[1] == "4,3,>9,nonfinite,diverged"


def test_ua_rows_keyed_by_size(capsys):
    code, out = run_cli(["run", "--problem", "ua_poisson", "--size", "961",
                         "--cycle", "amli-tilde", "--npcg", "2"], capsys)
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0].startswith("size,")
    assert lines[1].startswith("961,")


def test_hierarchy_subcommand(capsys):
    code, out = run_cli(["hierarchy", "--problem", "ua_poisson",
                         "--size", "961", "--report"], capsys)
    assert code == 0
    assert "operator complexity" in out
    code, out = run_cli(["hierarchy", "--problem", "poisson",
                         "--levels", "4"], capsys)
    assert code == 0
    assert "225" in out


def test_verify_subcommand(capsys):
    code, out = run_cli(["verify", "--suite", "all", "--levels", "2..3",
                         "--samples", "10"], capsys)
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
