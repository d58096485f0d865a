"""Text matrix and PGM file formats: round trips and parse errors."""

import numpy as np
import pytest

from cosattn.errors import MatrixParseError
from cosattn.matio import (
    matrix_text,
    read_matrix,
    read_pgm,
    write_matrix,
    write_pgm,
)
from cosattn.viz import visualize_attention


def test_matrix_text_layout():
    text = matrix_text(np.array([[1.0, 0.5], [0.25, -3.0]]))
    lines = text.splitlines()
    assert lines[0] == "2 2"
    assert lines[1].split() == ["1", "0.5"]
    assert lines[2].split() == ["0.25", "-3"]
    assert text.endswith("\n")


def test_matrix_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(41)
    m = rng.standard_normal((7, 3)) * np.exp(rng.uniform(-30, 30, (7, 3)))
    path = tmp_path / "m.txt"
    write_matrix(m, path)
    back = read_matrix(path)
    # 17 significant digits round-trip float64 exactly
    np.testing.assert_array_equal(back, m)
    assert back.dtype == np.float64


def _write(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    return path


@pytest.mark.parametrize("text,line,fragment", [
    ("", 1, "empty"),
    ("2\n1 2\n3 4\n", 1, "header"),
    ("two 2\n1 2\n3 4\n", 1, "header"),
    ("0 2\n", 1, "non-empty"),
    ("2 2\n1 2\n3\n", 3, "expected 2 values"),
    ("2 2\n1 2\n3 x\n", 3, "not a number"),
    ("2 2\n1 2\n3 inf\n", 3, "non-finite"),
    ("2 2\n1 2\n3 nan\n", 3, "non-finite"),
    ("3 2\n1 2\n3 4\n", 4, "ends before row 3"),
    ("2 2\n1 2\n3 4\n5 6\n", 4, "trailing"),
])
def test_matrix_parse_errors(tmp_path, text, line, fragment):
    path = _write(tmp_path, text)
    with pytest.raises(MatrixParseError) as err:
        read_matrix(path)
    assert err.value.line == line
    assert fragment in str(err.value)
    assert f"line {line}:" in str(err.value)


def test_matrix_blank_trailing_lines_are_fine(tmp_path):
    path = _write(tmp_path, "1 2\n1.5 2.5\n\n  \n")
    np.testing.assert_array_equal(read_matrix(path), [[1.5, 2.5]])


def test_pgm_layout_and_round_trip(tmp_path):
    cov = visualize_attention([np.eye(3)], threshold=0.5)
    path = tmp_path / "cov.pgm"
    write_pgm(cov, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "3 3"
    assert lines[2] == "255"
    assert len(lines) == 3 + 3
    pixels = read_pgm(path)
    np.testing.assert_array_equal(pixels, np.rint(cov.values * 255.0))


def test_pgm_accepts_plain_arrays_and_quantizes(tmp_path):
    values = np.array([[0.0, 0.5], [0.25, 1.0]])
    path = tmp_path / "vals.pgm"
    write_pgm(values, path)
    np.testing.assert_array_equal(read_pgm(path), [[0, 128], [64, 255]])


def test_pgm_rejects_out_of_range_values(tmp_path):
    with pytest.raises(ValueError):
        write_pgm(np.array([[1.5, 0.0]]), tmp_path / "x.pgm")
    with pytest.raises(ValueError, match="real"):  # not cast to its real part
        write_pgm(np.full((2, 2), 0.5 + 0.5j), tmp_path / "x.pgm")


@pytest.mark.parametrize("text,line", [
    ("P5\n2 2\n255\n0 0\n0 0\n", 1),
    ("P2\n2\n255\n0 0\n0 0\n", 2),
    ("P2\n2 2\n65535\n0 0\n0 0\n", 3),
    ("P2\n2 2\n255\n0 0 0\n0 0\n", 4),
    ("P2\n2 2\n255\n0 0\n0 q\n", 5),
    ("P2\n2 2\n255\n0 0\n0 300\n", 5),
    ("P2\n2 2\n255\n0 0\n", 5),
    ("P2\n-1 2\n255\n", 2),
    ("P2\n0 0\n255\n", 2),
    ("P2\n2 2\n255\n0 0\n0 0\n\n7\n", 7),
    ("P2\n2 2\n", 3),
])
def test_pgm_parse_errors(tmp_path, text, line):
    path = _write(tmp_path, text)
    with pytest.raises(MatrixParseError) as err:
        read_pgm(path)
    assert err.value.line == line
