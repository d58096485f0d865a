"""Plain-text matrix files and PGM coverage images.

Matrix format: first line "rows cols", then exactly `rows` lines each
holding `cols` space-separated decimal reals. Values are written with 17
significant digits, which round-trips float64 bit-exactly. Parsers report
the 1-based line number of whatever they choke on.

Coverage images are PGM P2 (ASCII grayscale): "P2", then "cols rows",
then the maxval 255, then one image row per line, each pixel being
round(255 * coverage).
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


def _parse_reals(text: str, expected: int, line_no: int) -> list[float]:
    tokens = text.split()
    if len(tokens) != expected:
        raise MatrixParseError(
            f"expected {expected} values, found {len(tokens)}", line_no)
    values = []
    for tok in tokens:
        try:
            v = float(tok)
        except ValueError:
            raise MatrixParseError(f"not a number: {tok!r}", line_no) from None
        if not np.isfinite(v):
            raise MatrixParseError(f"non-finite value: {tok!r}", line_no)
        values.append(v)
    return values


def read_matrix(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MatrixParseError("empty file", 1)
    header = lines[0].split()
    if len(header) != 2:
        raise MatrixParseError(
            f"header must be 'rows cols', got {lines[0]!r}", 1)
    try:
        rows, cols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixParseError(
            f"header must be 'rows cols', got {lines[0]!r}", 1) from None
    if rows < 1 or cols < 1:
        raise MatrixParseError(f"matrix must be non-empty, got {rows}x{cols}", 1)
    out = np.empty((rows, cols), dtype=np.float64)
    for r in range(rows):
        line_no = r + 2
        if line_no > len(lines):
            raise MatrixParseError(
                f"file ends before row {r + 1} of {rows}", line_no)
        out[r] = _parse_reals(lines[line_no - 1], cols, line_no)
    for extra in range(rows + 1, len(lines)):
        if lines[extra].strip():
            raise MatrixParseError("trailing content after matrix", extra + 1)
    return out


def write_pgm(cov, path) -> None:
    """8-bit ASCII grayscale image of a coverage matrix (or plain values)."""
    values = np.asarray(getattr(cov, "values", cov), dtype=np.float64)
    values = require_matrix(values, "coverage values")
    _require_unit_values(values)
    pixels = np.rint(values * 255.0).astype(np.int64)
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
    dims = lines[1].split()
    if len(dims) != 2:
        raise MatrixParseError(f"expected 'cols rows', got {lines[1]!r}", 2)
    try:
        cols, rows = int(dims[0]), int(dims[1])
    except ValueError:
        raise MatrixParseError(f"expected 'cols rows', got {lines[1]!r}", 2) from None
    if lines[2].strip() != "255":
        raise MatrixParseError(f"maxval must be 255, got {lines[2]!r}", 3)
    pixels = np.empty((rows, cols), dtype=np.int64)
    for r in range(rows):
        line_no = r + 4
        if line_no > len(lines):
            raise MatrixParseError(
                f"file ends before row {r + 1} of {rows}", line_no)
        tokens = lines[line_no - 1].split()
        if len(tokens) != cols:
            raise MatrixParseError(
                f"expected {cols} pixels, found {len(tokens)}", line_no)
        for c, tok in enumerate(tokens):
            try:
                v = int(tok)
            except ValueError:
                raise MatrixParseError(f"not a pixel value: {tok!r}",
                                       line_no) from None
            if not 0 <= v <= 255:
                raise MatrixParseError(f"pixel out of range: {v}", line_no)
            pixels[r, c] = v
    return pixels
