"""Every module imports only names it uses, every private helper is used, only kernel reduces rows, only conjugate solves, the config reads through the library's readers, the cli binds no number, and a cold import loads only what building a model needs.

A deletion can leave an import or a helper behind that nothing reads.  These
checks walk the syntax tree of each module under src/ldscheme, tests and
scripts (and perfbench, for the second) with the standard library's ast, so
they need no lint tool.  An import counts as used when the module reads it
anywhere, or lists it in __all__ (the package's re-exports).  A private
top-level name of the package counts as used when some module reads it, by
name or as an attribute.  The row sums of squares, row norms and row dots
that price a step live in kernel alone, so that one function decides their
summation order: no other module of the package calls np.add.reduce,
np.einsum or np.linalg.norm along an axis.  A plain vector norm, with no
axis, goes through a BLAS dot and keeps its own bits.  Likewise the Newton
step's linear solve lives in conjugate alone, so that one module decides its
rounding: no other module of the package names np.linalg.solve or
np.linalg.inv (or scipy.linalg's), by attribute or by import.  Every cast
that cli and kernel pass to _Conf.take is the bare name of one of kernel's
_as_* readers, each of which takes the value and its name first, so the
config refuses a bad value with the library's words, no reader serves the
config alone and no reader factory stands between them.  The cli module
binds no number at module level, so no verdict gate of a verification suite
lives apart from the report that reads it.  Last, a fresh
interpreter imports the package and builds two models without loading the
solver, path and estimator modules, numpy.random, numpy.polynomial or csv;
each of their names resolves through its module on every access, and
ldscheme.action is the path module, not a function of that name.
"""

import ast
import importlib
import inspect
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in ("src/ldscheme", "tests", "scripts") for path in (ROOT / folder).glob("*.py")
)
PACKAGE = sorted((ROOT / "src/ldscheme").glob("*.py"))
READERS = MODULES + sorted((ROOT / "perfbench").glob("*.py"))


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


def _private_definitions(tree):
    """(name, line) for every private, non-dunder name the module body binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [(node.name, node.lineno)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [(t.id, node.lineno) for t in found if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, line) for name, line in targets if name.startswith("_") and not name.startswith("__"))


def _reads(tree):
    """Every name the module reads, bare or as an attribute."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)} | {
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    }


def unused_private_names(source: str, read: set) -> list:
    """The private top-level names of source that neither source nor the names in read include."""
    tree = ast.parse(source)
    read = read | _reads(tree)
    return [f"line {line}: {name}" for name, line in _private_definitions(tree) if name not in read]


def test_the_check_finds_an_unused_private_name():
    source = "def _dead(): pass\ndef _helper(): pass\n_A = _helper()\n_B: int = 1\nclass _C: pass\n__all__ = []\n"
    read = _reads(ast.parse("from m import _C\nprint(_C(), m._B)\n"))
    assert unused_private_names(source, read) == ["line 1: _dead", "line 3: _A"]


def test_every_private_name_of_the_package_is_used():
    read = set().union(*(_reads(ast.parse(path.read_text())) for path in READERS))
    dead = {str(path.relative_to(ROOT)): unused_private_names(path.read_text(), read) for path in PACKAGE}
    assert {path: names for path, names in dead.items() if names} == {}


def row_reductions(source: str) -> list:
    """The calls of source to np.add.reduce, np.einsum, or np.linalg.norm along an axis, under any module alias."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")
            along_axis = len(node.args) > 2 or any(kw.arg == "axis" for kw in node.keywords)
            if name[-1] == "einsum" or name[-2:] == ["add", "reduce"] or (name[-2:] == ["linalg", "norm"] and along_axis):
                found.append(f"line {node.lineno}: {'.'.join(name)}")
    return found


def test_the_check_finds_a_row_reduction():
    source = (
        "s = np.add.reduce(v * v, axis=1)\n"
        "d = numpy.einsum('ij,ij->i', u, v)\n"
        "t = np.sum(v) + np.add(u, v)\n"
        "f = np.add.reduce\n"
        "r = np.linalg.norm(v, axis=1)\n"
        "q = numpy.linalg.norm(v, None, -1)\n"
        "n = np.linalg.norm(v) + np.linalg.norm(v, 2)\n"
    )
    assert row_reductions(source) == [
        "line 1: np.add.reduce", "line 2: numpy.einsum", "line 5: np.linalg.norm", "line 6: numpy.linalg.norm"
    ]


def test_only_kernel_reduces_rows():
    found = {str(path.relative_to(ROOT)): row_reductions(path.read_text()) for path in PACKAGE if path.name != "kernel.py"}
    assert {path: calls for path, calls in found.items() if calls} == {}


def linear_solves(source: str) -> list:
    """The references of source to linalg.solve or linalg.inv, under any module alias, and their imports by name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("solve", "inv"):
            if ast.unparse(node.value).split(".")[-1] == "linalg":
                found.append((node.lineno, ast.unparse(node)))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "linalg":
            found.extend((node.lineno, f"{node.module}.{a.name}") for a in node.names if a.name in ("solve", "inv"))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_a_linear_solve():
    source = (
        "p = np.linalg.solve(h, g)\n"
        "q = numpy.linalg.inv(h) @ g\n"
        "from scipy.linalg import null_space, solve\n"
        "f = np.linalg.solve\n"
        "n = np.linalg.norm(g) + sp.linalg.lu_factor(h)[0]\n"
        "e = np.linalg.LinAlgError\n"
    )
    assert linear_solves(source) == [
        "line 1: np.linalg.solve", "line 2: numpy.linalg.inv", "line 3: scipy.linalg.solve", "line 4: np.linalg.solve"
    ]


def test_only_conjugate_solves_linear_systems():
    found = {str(path.relative_to(ROOT)): linear_solves(path.read_text()) for path in PACKAGE if path.name != "conjugate.py"}
    assert {path: refs for path, refs in found.items() if refs} == {}
    assert linear_solves((ROOT / "src/ldscheme/conjugate.py").read_text())  # the solve the rule keeps in one place


def config_casts(source: str, readers: set) -> list:
    """The casts passed to .take(...) in source that are not the bare name of a reader in readers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "take"):
            continue
        cast = node.args[1] if len(node.args) > 1 else None
        if not (isinstance(cast, ast.Name) and cast.id in readers):
            found.append(f"line {node.lineno}: {ast.unparse(cast) if cast else 'no cast'}")
    return found


def test_the_check_finds_a_config_only_cast():
    source = (
        "x = c.take('x', _as_array((dim,)))\n"
        "n = c.take('n', _as_count, 1, least=1)\n"
        "y = c.take('y', lambda v, path: [float(u) for u in v])\n"
        "z = c.take('z', _own_reader)\n"
        "w = c.take('w', cast=_as_count)\n"
        "class _Conf:\n"
        "    def sub(self, key):\n"
        "        return self.take(key, lambda v, path: v)\n"
    )
    assert config_casts(source, {"_as_array", "_as_count"}) == [
        "line 1: _as_array((dim,))", "line 3: lambda v, path: [float(u) for u in v]", "line 4: _own_reader",
        "line 5: no cast", "line 8: lambda v, path: v",
    ]


def _kernel_readers() -> dict:
    from ldscheme import kernel

    return {name: value for name, value in vars(kernel).items() if name.startswith("_as_") and callable(value)}


def test_config_values_are_read_only_by_the_librarys_readers():
    readers = set(_kernel_readers())
    for name in ("cli.py", "kernel.py"):
        source = (ROOT / "src/ldscheme" / name).read_text()
        assert ".take(" in source  # the check reads the module's takes
        assert config_casts(source, readers) == [], name


def test_every_reader_takes_the_value_and_its_name_first():
    # a reader factory, such as one taking a shape and returning a cast, would take neither
    readers = _kernel_readers()
    assert {"_as_count", "_as_counts", "_as_real", "_as_reals", "_as_knots"} <= set(readers)
    heads = {name: list(inspect.signature(reader).parameters)[:2] for name, reader in readers.items()}
    assert {name: head for name, head in heads.items() if head != ["value", "name"]} == {}


def _is_number(expr) -> bool:
    """Whether expr is arithmetic on number literals alone, such as 0.15, -0.05 or 2 * 0.5."""
    nodes = list(ast.walk(expr))
    arithmetic = all(isinstance(node, (ast.Constant, ast.UnaryOp, ast.BinOp, ast.unaryop, ast.operator)) for node in nodes)
    return arithmetic and all(type(node.value) in (int, float) for node in nodes if isinstance(node, ast.Constant))


def module_numbers(source: str) -> list:
    """The names that the body of source binds to a number, such as a verdict gate."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _is_number(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend(f"line {node.lineno}: {ast.unparse(target)}" for target in targets)
    return found


def test_the_check_finds_a_module_number():
    source = (
        "MAX_REL_GAP = 0.15\n"
        "MAX_ODE_SLOPE: float = -0.05\n"
        "LIMIT = TOL = 2 * 0.5\n"
        "NAME = 'rate'\n"
        "FLAG = True\n"
        "SEP = os.sep\n"
        "WIDTH: int\n"
        "def run():\n"
        "    gate = 0.15\n"
    )
    assert module_numbers(source) == [
        "line 1: MAX_REL_GAP", "line 2: MAX_ODE_SLOPE", "line 3: LIMIT", "line 3: TOL"
    ]


def test_the_cli_binds_no_module_number():
    # the verification suites' gates live in rare_event, beside the reports that read them
    assert module_numbers((ROOT / "src/ldscheme/cli.py").read_text()) == []


_COLD_IMPORT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
lazy = {"ldscheme.conjugate", "ldscheme.scheme", "ldscheme.action", "ldscheme.rare_event", "csv", "numpy.random",
        "numpy.polynomial"} - set(sys.modules)
import ldscheme
ldscheme.preset_model("gaussian-ou")
ldscheme.affine_model(1, ldscheme.linear_drift(np.array([[-1.0]])), lambda y: np.eye(1), ldscheme.gaussian_base())
loaded = sorted(lazy & set(sys.modules))
names = {}
exec("from ldscheme import *", names)
import json
print(json.dumps({
    "loaded": loaded,
    "unresolved": [name for name in ldscheme.__all__ if getattr(ldscheme, name, None) is None],
    "star": sorted(set(names) - {"__builtins__"}),
    "undir": sorted(set(ldscheme.__all__) - set(dir(ldscheme))),
    "all": sorted(ldscheme.__all__),
    "same": ldscheme.mc_probability is ldscheme.rare_event.mc_probability,
}))
"""


def test_a_cold_import_loads_only_what_building_a_model_needs():
    # a bare numpy import may load numpy.random and numpy.polynomial itself (numpy < 2 does)
    run = subprocess.run([sys.executable, "-c", _COLD_IMPORT, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    assert report["loaded"] == []
    assert report["unresolved"] == [] and report["undir"] == []
    assert report["star"] == report["all"] and len(report["all"]) == 50
    assert report["same"]


@pytest.mark.parametrize("module,name", [
    ("conjugate", "fenchel_rows"), ("scheme", "simulate"), ("action", "minimize_action"), ("rare_event", "verify_rate"),
])
def test_a_lazy_name_follows_its_rebinding_in_its_module(monkeypatch, module, name):
    import ldscheme

    home = importlib.import_module(f"ldscheme.{module}")
    assert getattr(ldscheme, name) is getattr(home, name)  # a first access keeps no copy in the package
    marker = object()
    monkeypatch.setattr(home, name, marker)
    assert getattr(ldscheme, name) is marker
    assert name not in vars(ldscheme)


_NAME_CLASH = """
import sys, types
sys.path.insert(0, sys.argv[1])
import ldscheme
seen = [isinstance(ldscheme.action, types.ModuleType)]
import ldscheme.action
from ldscheme import action, rare_event
seen.append(ldscheme.action is action is sys.modules["ldscheme.action"])
print(seen, callable(ldscheme.path_cost) and ldscheme.path_cost is ldscheme.action.path_cost,
      sorted({"conjugate", "scheme", "action", "rare_event"} - set(dir(ldscheme))))
"""


def test_ldscheme_action_is_the_module_and_path_cost_the_function():
    # the module ldscheme.action was once shadowed by a function of the same name
    run = subprocess.run([sys.executable, "-c", _NAME_CLASH, str(ROOT / "src")],
                         capture_output=True, text=True, check=True)
    assert run.stdout.split("\n")[0] == "[True, True] True []"
