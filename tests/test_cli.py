"""End-to-end CLI behavior: subcommands, JSON output, exit codes."""

import json

import numpy as np
import pytest

import cosattn.bench as bench
from cosattn.bench import BenchmarkRecord, transient_scalars
from cosattn.cli import main
from cosattn.equivalence import VARIANTS
from cosattn.matio import write_matrix


def _stochastic(tmp_path, name, m):
    path = tmp_path / name
    write_matrix(np.asarray(m), path)
    return str(path)


def _refuse(token):
    raise ValueError(f"{token} is not strict JSON")


def _document(text):
    """The one JSON document text holds; a NaN or Infinity token, or a
    second document, fails the parse."""
    assert text.endswith("\n")
    return json.loads(text, parse_constant=_refuse)


def test_check_passes(capsys):
    assert main(["check", "--trials", "5"]) == 0
    report = _document(capsys.readouterr().out)
    assert report["seed"] == 0 and report["mutation"] is None
    assert [r["variant"] for r in report["results"]] == list(VARIANTS)
    for result in report["results"]:
        assert result["trials"] == 5 and result["failures"] == 0
        assert 0.0 <= result["max_rel_error"] <= result["threshold"]


def test_check_writes_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["check", "--trials", "4", "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    _document(out)
    assert out_path.read_bytes() == out.encode("ascii")


def test_check_mutation_fails(capsys):
    code = main(["check", "--trials", "25", "--mutation", "dropped_sin_branch"])
    assert code == 1
    report = _document(capsys.readouterr().out)
    assert report["mutation"] == "dropped_sin_branch"
    assert report["results"][0]["failures"] >= 1


def test_check_nan_error_prints_as_null(capsys):
    # the unfloored denominator turns a floored row into 0/0 in these 40
    # trials; the report still parses as strict JSON
    code = main(["check", "--trials", "40", "--mutation", "unfloored_denominator"])
    assert code == 1
    assert _document(capsys.readouterr().out)["results"][0]["max_rel_error"] is None


def test_check_rejects_jobs_below_one(capsys):
    assert main(["check", "--trials", "1", "--jobs", "0"]) == 2
    assert "jobs" in capsys.readouterr().err


def test_bench_stdout(capsys):
    code = main(["bench", "--variants", "linear", "--lengths", "8",
                 "--d-model", "4", "--repeats", "3"])
    assert code == 0
    (row,) = _document(capsys.readouterr().out)
    # one object per record, its fields in declaration order
    assert list(row) == ["variant", "seq_len", "d_model", "repeats", "mean_s",
                         "std_s", "median_s", "transient_scalars", "peak_mib",
                         "mode"]
    record = BenchmarkRecord(**row)  # every field round-trips
    record.validate()
    assert (record.variant, record.seq_len, record.d_model, record.repeats,
            record.mode) == ("linear", 8, 4, 3, "inference")
    assert record.mean_s > 0.0 and record.peak_mib > 0.0
    assert record.transient_scalars == transient_scalars("linear", 8, 4)


def test_bench_out_file(tmp_path, capsys):
    out_path = tmp_path / "bench.json"
    code = main(["bench", "--variants", "linear", "cosformer",
                 "--lengths", "8", "16", "--d-model", "4",
                 "--repeats", "3", "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert [(r["variant"], r["seq_len"]) for r in _document(out)] == [
        ("linear", 8), ("linear", 16), ("cosformer", 8), ("cosformer", 16)]
    assert out_path.read_bytes() == out.encode("ascii")


def test_bench_failed_cell_prints_as_null(monkeypatch, capsys):
    def boom(Q, K, V, config):
        raise MemoryError("simulated allocation failure")

    monkeypatch.setattr(bench, "attend", boom)
    code = main(["bench", "--variants", "linear", "--lengths", "8",
                 "--d-model", "4", "--repeats", "3"])
    assert code == 0
    (row,) = _document(capsys.readouterr().out)
    assert row["mean_s"] is row["std_s"] is row["median_s"] is row["peak_mib"] is None
    assert row["transient_scalars"] == transient_scalars("linear", 8, 4)


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
    assert _document(capsys.readouterr().out) == {
        "values": [[1.0, 0.0], [0.0, 1.0]], "threshold": 0.5, "n_matrices": 1}


def test_viz_demo_writes_pgm(tmp_path, capsys):
    out_path = tmp_path / "cov.pgm"
    assert main(["viz", "--demo", "--seed", "1", "--out", str(out_path)]) == 0
    cov = _document(capsys.readouterr().out)
    assert cov["n_matrices"] == 4 and np.shape(cov["values"]) == (48, 48)
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
    out_path = tmp_path / "report.json"
    code = main(["train-toy", "--variant", "softmax", "--steps", "2",
                 "--seed", "5", "--out", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    report = _document(out)
    assert (report["variant"], report["seed"], report["steps"]) == ("softmax", 5, 2)
    assert [step for step, _ in report["loss_curve"]] == [1, 2]
    assert report["final_loss"] == report["loss_curve"][-1][1] > 0.0
    assert out_path.read_bytes() == out.encode("ascii")


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
