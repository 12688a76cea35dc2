"""Every module of the package uses every name it imports.

A name a module imports but never reads is left over from code that moved or
went; a name listed in the module's `__all__` is re-exported, so it counts
as used."""

from __future__ import annotations

import ast
from importlib import resources

import pytest

MODULES = sorted(
    path.name for path in resources.files("islander").iterdir()
    if path.name.endswith(".py") and path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by an import and never reads, in source
    order; `from __future__` imports and names in `__all__` do not count."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`.
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read and name not in exported]


def test_every_module_is_checked():
    assert {"cli.py", "dsl.py", "interrogation.py", "model.py", "semantics.py",
            "solver.py"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    source = (resources.files("islander") / module).read_text(encoding="utf-8")
    assert unused_imports(source) == []


def test_an_unused_import_is_found():
    source = "from __future__ import annotations\nimport math\nimport os.path\n" \
             "from re import compile as c, escape\n__all__ = ['escape']\nos.sep\n"
    assert unused_imports(source) == ["math", "c"]
