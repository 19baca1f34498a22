import ast
from pathlib import Path

import preproj

PACKAGE = Path(preproj.__file__).parent

# exported names with no reference in the package yet; this set may only shrink
UNCALLED_EXPORTS = {"frobenius_cyc", "ghost"}

# functions, classes and methods with no reference in the package; this set
# may only shrink
UNCALLED_HELPERS = {
    "frobenius_cyc",     # the p-th power map of the abstract (ROADMAP item 7)
    "ghost",             # the ghost map of its Witt interpretation (ROADMAP item 7)
    "substitute_power",  # the per-factor reference of the Euler product tests
}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references():
    """Every name read and attribute taken in the package's other modules,
    the CLI included; docstrings and comments are no references."""
    refs = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def _definitions():
    """Every function, class and method defined in the package, nested ones
    included, but for dunder methods."""
    defs = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.add(node.name)
    return defs


def test_every_export_has_a_caller():
    """No helper without a caller: every public name is used inside the
    package, but for the listed ones, which tests alone use so far."""
    assert _exports() - _references() == UNCALLED_EXPORTS


def test_every_helper_has_a_caller():
    """No helper without a caller, below the exports too: every function,
    class and method the package defines is used inside it, but for the
    listed ones."""
    assert _definitions() - _references() == UNCALLED_HELPERS
