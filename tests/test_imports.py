"""Every top-level import in the package's modules is used by that module,
and every private top-level name the package defines is read in it.

``__init__.py`` is exempt from the import check: its imports are the
package's exports.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hyperbell"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing else in it reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_check_sees_an_unused_import():
    source = "import re\nimport numpy as np\nfrom .pauli import Observable, PauliOp\nx = np.zeros(1)\ny: PauliOp\n"
    assert unused_imports(source) == ["re", "Observable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` of each private top-level name that no module reads.

    ``sources`` maps module names to their source.  A name counts as read
    where its module reads it, or where another module imports it by a
    relative import; the import check above makes sure that import is read.
    """
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add((module, node.id))
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                read |= {(node.module, a.name) for a in node.names}
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            unread += [
                f"{module}.{name}"
                for name in names
                if name.startswith("_") and not name.startswith("__") and (module, name) not in read
            ]
    return unread


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "_A, _B = 1, 2\n_C: int = 3\n__version__ = '1'\ndef _f():\n    return _A\nclass _K: ...\n",
        "b": "from .a import _C\nprint(_C)\ndef _g(): ...\nx = _g\n",
    }
    assert unread_private_names(sources) == ["a._B", "a._f", "a._K"]


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []
