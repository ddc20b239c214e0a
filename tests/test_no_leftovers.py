"""No leftovers in the library: every name a module imports is used by it, and
every module-level private name is referenced somewhere in the package.

A refactor that deletes a helper's last caller can leave the helper, or its
import, behind; these checks read each module's syntax tree, so they need no
linter. ``__init__.py`` imports to re-export, so its imports are not checked.
"""

import ast
from pathlib import Path

import pytest

import qentropy

PACKAGE = Path(qentropy.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(tree):
    """Every name a module reads: loaded names, attribute names, and the names
    in a string that is an expression (a string annotation, an ``__all__``
    entry); a docstring is not one, so naming a helper there is no use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                names |= _reads(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _imported(tree):
    """The names a module's top-level imports bind, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _private_definitions(tree):
    """The private names a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = sorted(set(_imported(tree)) - _reads(tree))
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_referenced(path):
    references = set().union(*(_reads(_tree(p)) for p in PACKAGE.glob("*.py")))
    unused = sorted(set(_private_definitions(_tree(path))) - references)
    assert unused == [], f"{path.name} defines private names nothing in the package reads: {unused}"
