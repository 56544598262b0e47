"""Public API guard: every name the package exports imports and is used by
at least one test module, so no dead or untested name stays exported; and
every error the package defines or raises comes from sumfree.errors."""

import ast
import importlib
import pathlib
import re

import sumfree
from sumfree import errors

TESTS = pathlib.Path(__file__).parent
SRC = pathlib.Path(sumfree.__file__).parent


def test_every_exported_name_imports_and_is_tested():
    sources = [
        p.read_text() for p in TESTS.glob("test_*.py") if p.name != "test_api.py"
    ]
    for name in sumfree.__all__:
        assert getattr(sumfree, name) is not None
        pattern = re.compile(rf"\b{re.escape(name)}\b")
        assert any(pattern.search(src) for src in sources), f"{name} is untested"


def test_errors_come_from_one_module():
    hierarchy = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.SumfreeError)
    }
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"sumfree.{path.stem}") if path.stem != "__init__" else sumfree
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ClassDef) and path.name != "errors.py":
                cls = getattr(module, node.name)
                assert not issubclass(cls, BaseException), f"{where} defines {node.name}"
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = ast.unparse(exc)
                assert raised in hierarchy or raised == "argparse.ArgumentTypeError", (
                    f"{where} raises {raised}"
                )
            if isinstance(node, ast.ExceptHandler):
                caught = ast.unparse(node.type) if node.type else "everything"
                assert caught not in ("everything", "Exception", "BaseException"), (
                    f"{where} catches {caught}"
                )


def test_fft_only_in_the_grid_layer():
    # the grid layer transforms; mps.hilbert is the one multiplier applied
    # on top of it
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.fft":
                fn = owner.get(id(node))
                assert path.name == "fourier.py" or (path.name, fn) == ("mps.py", "hilbert"), (
                    f"{path.name}:{node.lineno} calls np.fft in {fn}"
                )


def test_one_scatter_path_in_the_sieve():
    # the sieve scatters (np.<ufunc>.at) in three places only: the arithmetic
    # table, the left side's singleton table and the one dilation
    tree = ast.parse((SRC / "sieve.py").read_text())
    owner = {
        id(node): fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
    }
    scatters = [
        (owner.get(id(node)), node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "at"
        and ast.unparse(node.value).startswith("np.")
    ]
    assert {fn for fn, _ in scatters} == {"_table", "_lhs_table", "_dilate"}, scatters


def _defined_names(node) -> list[str]:
    """The names a module-level statement defines: a function, a class, or
    the plain names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else []
    if isinstance(node, ast.AnnAssign):
        targets = [node.target]
    names = (t for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return [t.id for t in names if isinstance(t.ctx, ast.Store)]


def test_every_public_definition_is_used_or_exported():
    # a public module-level function, class or constant that no src/ code
    # reads and that __all__ does not export is dead API
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    referred = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    for name, tree in trees.items():
        for node in tree.body:
            for defined in _defined_names(node):
                if not defined.startswith("_"):
                    assert defined in referred or defined in sumfree.__all__, (
                        f"{name}:{node.lineno} defines {defined}, which src/ never uses"
                    )
