import ast
from pathlib import Path

import preproj

PACKAGE = Path(preproj.__file__).parent

# exported names with no reference in the package yet; this set may only shrink
UNCALLED_EXPORTS = {"double_derivative", "find_extended_dynkin_subquiver", "frobenius_cyc",
                    "ghost", "ncci_check", "omega", "partial_derivative", "zeta"}


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


def test_every_export_has_a_caller():
    """No helper without a caller: every public name is used inside the
    package, but for the listed ones, which tests alone use so far."""
    assert _exports() - _references() == UNCALLED_EXPORTS
