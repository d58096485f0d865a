"""Line counts of src/cosattn, and a code comparison with another tree.

    python tests/srclines.py [<rev-or-dir>]

prints, per module of the src/cosattn beside this script and in total,
its lines split four ways: docstring lines (every line of a module,
class or function docstring), comment-only lines, blank lines and code
lines (all the rest). Given a git revision or a package directory,
unpacked as bitident.py does, it also prints that tree's line count per
module and whether each module's code, the ast.dump of the module with
every docstring removed, is the same in both trees; for a module whose
code differs it names the functions whose code differs. The exit status
is 1 if any module's code differs or exists on one side only.
"""

from __future__ import annotations

import ast
import pathlib
import sys

import bitident

PACKAGE = bitident.REPO / "src" / "cosattn"
KINDS = ("lines", "docstring", "comment", "blank", "code")


def docstrings(tree):
    """(node, docstring statement) of every module, class and function."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                yield node, first


def counts(text: str) -> dict:
    """Lines of one module's source, by kind (see KINDS)."""
    doc = set()
    for _, first in docstrings(ast.parse(text)):
        doc.update(range(first.lineno, first.end_lineno + 1))
    got = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        kind = ("docstring" if number in doc else "blank" if not stripped
                else "comment" if stripped.startswith("#") else "code")
        got[kind] += 1
        got["lines"] += 1
    return got


def code(text: str) -> ast.Module:
    """One module's syntax tree with every docstring removed."""
    tree = ast.parse(text)
    for node, first in list(docstrings(tree)):
        node.body.remove(first)
    return tree


def _functions(node, prefix=""):
    """Qualified name -> ast.dump of every function inside node."""
    found = {}
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = prefix + child.name
            if not isinstance(child, ast.ClassDef):
                found[name] = ast.dump(child)
            found.update(_functions(child, name + "."))
    return found


def compare(text: str, base: str) -> str:
    """'identical', or which of the module's functions differ from base."""
    tree, base_tree = code(text), code(base)
    if ast.dump(tree) == ast.dump(base_tree):
        return "identical"
    ours, theirs = _functions(tree), _functions(base_tree)
    names = sorted(n for n in ours.keys() | theirs.keys() if ours.get(n) != theirs.get(n))
    return "differs in " + (", ".join(names) if names else "module-level code")


def _read(directory, name: str):
    """The text of directory/name, or None if there is no such file."""
    path = pathlib.Path(directory) / name
    return path.read_text(encoding="utf-8") if path.exists() else None


def report(package=PACKAGE, base=None) -> tuple[list[str], bool]:
    """The table's lines and whether every module's code matches base's
    (True without a base)."""
    package = pathlib.Path(package)
    names = {p.name for p in package.glob("*.py")}
    if base is not None:
        names |= {p.name for p in pathlib.Path(base).glob("*.py")}
    head = f"{'module':16s}" + "".join(f"{k:>10s}" for k in KINDS)
    lines = [head + ("  base lines  code vs base" if base is not None else "")]
    total = dict.fromkeys(KINDS, 0)
    base_total = 0
    same = True
    for name in sorted(names):
        text = _read(package, name)
        got = counts(text or "")
        for kind in KINDS:
            total[kind] += got[kind]
        row = f"{name:16s}" + "".join(f"{got[k]:10d}" for k in KINDS)
        if base is not None:
            base_text = _read(base, name)
            base_lines = counts(base_text or "")["lines"]
            base_total += base_lines
            if text is None or base_text is None:
                verdict = "only in " + ("base" if text is None else "this tree")
            else:
                verdict = compare(text, base_text)
            same = same and verdict == "identical"
            row += f"  {base_lines:10d}  {verdict}"
        lines.append(row)
    row = f"{'total':16s}" + "".join(f"{total[k]:10d}" for k in KINDS)
    lines.append(row + (f"  {base_total:10d}" if base is not None else ""))
    return lines, same


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) > 1:
        print(__doc__.strip().splitlines()[0]
              + "\n\nusage: srclines.py [<rev-or-dir>]", file=sys.stderr)
        return 2
    base = keep = None
    if argv:
        base, keep = bitident.unpack(argv[0])
    try:
        lines, same = report(PACKAGE, base)
    finally:
        if keep is not None:
            keep.cleanup()
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
