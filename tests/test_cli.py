"""End-to-end CLI behavior: subcommands, outputs, exit codes."""

import numpy as np
import pytest

from cosattn.bench import CSV_HEADER
from cosattn.cli import main
from cosattn.matio import write_matrix


def _stochastic(tmp_path, name, m):
    path = tmp_path / name
    write_matrix(np.asarray(m), path)
    return str(path)


def test_check_passes(capsys):
    assert main(["check", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "equivalence suite" in out
    assert "FAIL" not in out


def test_check_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    assert main(["check", "--trials", "4", "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert text.endswith("\n")
    assert text.rstrip("\n") == capsys.readouterr().out.rstrip("\n")


def test_check_mutation_fails(capsys):
    code = main(["check", "--trials", "25", "--mutation", "dropped_sin_branch"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_rejects_jobs_below_one(capsys):
    assert main(["check", "--trials", "1", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_bench_stdout(capsys):
    code = main(["bench", "--variants", "linear", "--lengths", "8",
                 "--d-model", "4", "--repeats", "3"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 2 and lines[1].startswith("linear,8,4,3,")


def test_bench_csv_file(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code = main(["bench", "--variants", "linear", "cosformer",
                 "--lengths", "8", "16", "--d-model", "4",
                 "--repeats", "3", "--out", str(out_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = out_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 5


def test_bench_rejects_unsorted_lengths(capsys):
    code = main(["bench", "--variants", "linear", "--lengths", "16", "8",
                 "--d-model", "4", "--repeats", "3"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bench_rejects_unknown_variant():
    # argparse choices reject before our handler runs
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--variants", "flash"])
    assert exc.value.code == 2


def test_viz_prints_matrix(tmp_path, capsys):
    path = _stochastic(tmp_path, "a.txt", [[0.9, 0.1], [0.2, 0.8]])
    assert main(["viz", path, "--threshold", "0.5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "2 2"
    assert lines[1].split() == ["1", "0"]
    assert lines[2].split() == ["0", "1"]


def test_viz_demo_writes_pgm(tmp_path, capsys):
    out_path = tmp_path / "cov.pgm"
    assert main(["viz", "--demo", "--seed", "1", "--out", str(out_path)]) == 0
    assert "wrote 48x48" in capsys.readouterr().out
    header = out_path.read_text().splitlines()[:3]
    assert header == ["P2", "48 48", "255"]


def test_viz_without_input_is_usage_error(capsys):
    assert main(["viz"]) == 2
    assert "error:" in capsys.readouterr().err


def test_viz_bad_threshold(tmp_path, capsys):
    path = _stochastic(tmp_path, "a.txt", [[1.0]])
    assert main(["viz", path, "--threshold", "1.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_viz_non_stochastic_input(tmp_path, capsys):
    path = _stochastic(tmp_path, "bad.txt", [[0.9, 0.9], [0.2, 0.8]])
    assert main(["viz", path]) == 2
    assert "must sum to 1" in capsys.readouterr().err


def test_viz_missing_file(tmp_path, capsys):
    assert main(["viz", str(tmp_path / "nope.txt")]) == 3
    assert "error:" in capsys.readouterr().err


def test_viz_malformed_file(tmp_path, capsys):
    path = tmp_path / "mangled.txt"
    path.write_text("2 2\n0.9 0.1\n0.2\n")
    assert main(["viz", str(path)]) == 3
    assert "line 3" in capsys.readouterr().err


def test_train_toy_short_run(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code = main(["train-toy", "--variant", "softmax", "--steps", "2",
                 "--seed", "5", "--out", str(out_path)])
    assert code == 0
    assert "variant=softmax" in capsys.readouterr().out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "step,loss" and lines[-1].startswith("#")


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
