"""No measured figure lives in the comments or docstrings of src/cosattn.

A time, a size, a speed-up or a fault count measured on one machine goes
stale as soon as the code or the machine changes; CHANGES.md keeps such
figures with the change that measured them.
"""

import ast
import io
import re
import tokenize

import pytest

from srclines import PACKAGE, docstrings

# A number followed by a duration, a size, a speed-up or a fault count.
FIGURE = re.compile(
    r"\d(?:[\d,]*\d)?(?:\.\d+)?\s*"
    r"(?:(?:µs|us|ms|s|KiB|MiB|GiB)\b"
    r"|(?:x|×|%)\s*(?:faster|slower|slow|fast|off)\b"
    r"|(?:page\s+)?faults\b)")


def prose(source: str):
    """(line, text) of every comment and docstring in one module's source."""
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string
    for _, first in docstrings(ast.parse(source)):
        yield first.lineno, first.value.value


def figures(source: str) -> list:
    """(line, figure) of every measured figure in one module's prose; a
    figure may wrap across lines."""
    return [(line, m.group()) for line, text in prose(source)
            for m in FIGURE.finditer(" ".join(text.split()))]


@pytest.mark.parametrize("text", [
    "took 1.45 s", "peaks at 6.58 MiB", "about 19 us", "2.1 ms", "30 µs",
    "128 KiB", "1 GiB", "about 10x slower", "8x faster", "2-2.5x slow",
    "about 40 % off", "10 % slower", "1500 faults a step", "4,688 page faults",
])
def test_the_pattern_finds_a_figure(text):
    assert figures(f"# {text}\n") == [(1, FIGURE.search(text).group())]


@pytest.mark.parametrize("text", [
    "n = 32 sequences", "a 2d x (d + 1) sum", "Theta(n * d_k * d_v)",
    "once every _BLOCK steps", "32 x 32 matrix", "1.3e-4 of the largest entry",
    "m >= 1", "at 99 % accuracy", "in seconds",
])
def test_the_pattern_passes_prose_without_a_figure(text):
    assert figures(f'"""{text}"""\n# {text}\n') == []


def test_docstrings_and_comments_hold_no_measured_figure():
    found = {path.name: figures(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert not {name: hits for name, hits in found.items() if hits}
