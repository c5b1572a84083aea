"""The package's source: no line longer than 120 characters, no import that
its module never reads, and no export that nothing uses or documents."""
import ast
import re
from pathlib import Path

import hopfdeform

PACKAGE = Path(hopfdeform.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
MAX_LINE = 120


def test_no_source_line_is_longer_than_the_limit():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _imports(tree: ast.Module):
    """``(bound name, module)`` for every name an import statement binds, ``from __future__`` left out."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.asname or alias.name.split(".")[0], alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from ((alias.asname or alias.name, node.module) for alias in node.names)


def _bare_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def _read_names(tree: ast.Module) -> set:
    """Every name the code reads, bare or as an attribute (``hd.mul`` reads ``mul``)."""
    return _bare_names(tree) | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_every_import_of_a_package_module_is_read():
    unread = [
        f"{path.name}: {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        for tree in [_tree(path)]
        for name, _ in _imports(tree)
        if name not in _bare_names(tree)
    ]
    assert unread == []


def test_every_export_is_used_or_documented():
    # an export counts as used when a package module, a demo or a benchmark
    # script reads it, and as documented when the README names it in a code span
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]
    read = set().union(*(_read_names(_tree(path)) for path in sources))
    spans = re.findall(r"`+([^`]+?)`+", (ROOT / "README.md").read_text(encoding="utf-8"))
    documented = {name for span in spans for name in re.findall(r"[A-Za-z_]\w*", span)}
    unused = [
        f"{module}.{name}"
        for name, module in _imports(_tree(PACKAGE / "__init__.py"))
        if name not in read | documented
    ]
    assert unused == []
