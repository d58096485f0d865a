"""Plain-text matrix files and PGM coverage images.

A matrix file is "rows cols", then `rows` lines of `cols` decimals,
written with 17 significant digits so float64 round-trips exactly. A
coverage image is PGM P2: "P2", "cols rows", 255, then one line per image
row of round(255 * coverage). Readers name the 1-based line they fail on,
and refuse a count below 1 and anything but blank lines after the last row.
"""

from __future__ import annotations

import numpy as np

from .core import require_matrix
from .errors import MatrixParseError
from .viz import _require_unit_values


def matrix_text(m) -> str:
    m = require_matrix(m, "m")
    rows, cols = m.shape
    lines = [f"{rows} {cols}"]
    for row in m:
        lines.append(" ".join("%.17g" % v for v in row))
    return "\n".join(lines) + "\n"


def write_matrix(m, path) -> None:
    text = matrix_text(m)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def _dims(line: str, line_no: int, names: str) -> tuple[int, int]:
    """The two positive integers of a header line such as 'rows cols'."""
    try:
        first, second = (int(tok) for tok in line.split())
    except ValueError:
        raise MatrixParseError(
            f"header must be '{names}', got {line!r}", line_no) from None
    if first < 1 or second < 1:
        raise MatrixParseError(
            f"header must give a non-empty '{names}', got {line!r}", line_no)
    return first, second


def _real(tok: str, line_no: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise MatrixParseError(f"not a number: {tok!r}", line_no) from None
    if not np.isfinite(v):
        raise MatrixParseError(f"non-finite value: {tok!r}", line_no)
    return v


def _pixel(tok: str, line_no: int) -> int:
    try:
        v = int(tok)
    except ValueError:
        raise MatrixParseError(f"not a pixel value: {tok!r}", line_no) from None
    if not 0 <= v <= 255:
        raise MatrixParseError(f"pixel out of range: {v}", line_no)
    return v


def _rows(lines: list[str], header: int, shape: tuple[int, int], parse,
          dtype) -> np.ndarray:
    """The rows after the first `header` lines, each value read by parse;
    the file must hold exactly shape[0] rows of shape[1] values, then only
    blank lines."""
    rows, cols = shape
    out = np.empty(shape, dtype)
    for r in range(rows):
        line_no = header + r + 1
        if line_no > len(lines):
            raise MatrixParseError(
                f"file ends before row {r + 1} of {rows}", line_no)
        tokens = lines[line_no - 1].split()
        if len(tokens) != cols:
            raise MatrixParseError(
                f"expected {cols} values, found {len(tokens)}", line_no)
        out[r] = [parse(tok, line_no) for tok in tokens]
    for extra in range(header + rows, len(lines)):
        if lines[extra].strip():
            raise MatrixParseError("trailing content after the last row",
                                   extra + 1)
    return out


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixParseError("empty file", 1)
    return _rows(lines, 1, _dims(lines[0], 1, "rows cols"), _real, np.float64)


def write_pgm(cov, path) -> None:
    """8-bit ASCII grayscale image of a coverage matrix (or plain values)."""
    values = require_matrix(getattr(cov, "values", cov), "coverage values")
    _require_unit_values(values)
    pixels = np.rint(values * np.float64(255.0)).astype(np.int64)
    rows, cols = pixels.shape
    lines = ["P2", f"{cols} {rows}", "255"]
    for row in pixels:
        lines.append(" ".join(str(int(v)) for v in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_pgm(path) -> np.ndarray:
    """Parse a P2 image written by write_pgm back into integer pixels."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "P2":
        raise MatrixParseError("not a P2 image", 1)
    if len(lines) < 3:
        raise MatrixParseError("truncated P2 header", len(lines) + 1)
    cols, rows = _dims(lines[1], 2, "cols rows")
    if lines[2].strip() != "255":
        raise MatrixParseError(f"maxval must be 255, got {lines[2]!r}", 3)
    return _rows(lines, 3, (rows, cols), _pixel, np.int64)
