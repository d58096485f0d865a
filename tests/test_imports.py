"""No module of the package imports a name it never uses, and the package
exports exactly what it imports."""

import ast
from pathlib import Path

import cosattn

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cosattn"

# Imported but not referenced, on purpose: perfbench/spans.py wraps these
# module attributes to trace the calls the benchmark makes, so they must
# resolve until the benchmark stops naming them.
ALLOWED = {
    ("train", "cosformer_attention"),
    ("train", "cosformer_backward"),
}


def _unused_imports(path: Path) -> set:
    """Names path imports and never references. A noqa comment is not
    honoured: ast never sees comments."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    unused = {(path.stem, name)
              for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
              for name in _unused_imports(path)}
    # Equality, so an allowance goes once its import does.
    assert unused == ALLOWED


def test_all_lists_each_imported_name_once():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {a.asname or a.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for a in node.names}
    assert len(cosattn.__all__) == len(set(cosattn.__all__))
    assert set(cosattn.__all__) == imported
