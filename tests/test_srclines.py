"""The src/ line counter and its docstring-blind code comparison."""

import shutil

import pytest

import srclines

SAMPLE = '''"""Module docstring,
two lines."""

# a comment
def f(x):
    """One line."""
    return x  # a trailing comment keeps the line code
'''


@pytest.fixture
def errors_copy(tmp_path):
    """(package copy, path of its errors.py)."""
    copy = tmp_path / "cosattn"
    shutil.copytree(srclines.PACKAGE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    return copy, copy / "errors.py"


def test_counts_split_lines_four_ways():
    assert srclines.counts(SAMPLE) == {
        "lines": 7, "docstring": 3, "comment": 1, "blank": 1, "code": 2}


def test_the_tree_matches_itself(capsys):
    assert srclines.main([str(srclines.PACKAGE)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:-1]
    assert rows and all(row.endswith("identical") for row in rows)


def test_docstrings_and_comments_do_not_count_as_code(errors_copy):
    copy, path = errors_copy
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace('"""Base class for all package-specific errors."""',
                                 '"""Reworded,\n    over two lines."""\n    # A comment.')
                    .replace("        self.line = line",
                             "        # Another.\n        self.line = line"),
                    encoding="utf-8")
    lines, same = srclines.report(srclines.PACKAGE, copy)
    assert same, lines


def test_a_changed_code_token_differs(errors_copy):
    copy, path = errors_copy
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("self.line = line", "self.line = None"), encoding="utf-8")
    lines, same = srclines.report(srclines.PACKAGE, copy)
    assert not same
    assert [row.split()[0] for row in lines[1:-1] if not row.endswith("identical")] \
        == ["errors.py"]
    assert any(row.endswith("differs in MatrixParseError.__init__") for row in lines)
