"""Every module imports only names it uses.

A deletion can leave an import behind that nothing reads.  This check walks
the syntax tree of each module under src/ldscheme, tests and scripts with
the standard library's ast, so it needs no lint tool.  A name counts as used
when the module reads it anywhere, or lists it in __all__ (the package's
re-exports).
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/ldscheme", "tests", "scripts") for path in (ROOT / folder).glob("*.py")
)


def _imported(tree):
    """(name, line) for every name an import statement binds, outside __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name the module reads, and the strings of its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree)
    return [f"line {line}: {name}" for name, line in _imported(tree) if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import os\nfrom numpy import array, zeros as z\nfrom x import *\n__all__ = ['array']\nprint(os.sep)\n"
    assert unused_imports(source) == ["line 2: z"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_module_imports_only_names_it_uses(path):
    assert unused_imports(path.read_text()) == []
