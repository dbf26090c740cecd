"""Every top-level import in the package's modules is used by that module,
every private top-level name the package defines is read in it, and every
public one is read in it, in the tests, in the benchmark or in README's code.

``__init__.py`` is exempt from the import check: its imports are the
package's exports.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperbell"
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


def top_level_names(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level functions, classes and assignments."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return names


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
    return [
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in top_level_names(tree)
        if name.startswith("_") and not name.startswith("__") and (module, name) not in read
    ]


def test_the_check_sees_an_unread_private_name():
    sources = {
        "a": "_A, _B = 1, 2\n_C: int = 3\n__version__ = '1'\ndef _f():\n    return _A\nclass _K: ...\n",
        "b": "from .a import _C\nprint(_C)\ndef _g(): ...\nx = _g\n",
    }
    assert unread_private_names(sources) == ["a._B", "a._f", "a._K"]


def test_every_private_name_is_read():
    assert unread_private_names({p.stem: p.read_text() for p in SRC.glob("*.py")}) == []


def unread_public_names(sources: dict[str, str], readers: list[str], readme: str) -> list[str]:
    """``module.name`` of each public top-level name that nothing reads.

    ``sources`` maps the package's module names to their source; ``readers``
    are the sources of the tests and the benchmark.  A name counts as read
    where its own module loads it; where another module, save
    ``__init__`` (whose imports are the exports), or a reader imports it
    from the package or reads an attribute of that name; or where it is a
    word of README's code, its fenced blocks and inline spans.  Outside its
    own module a name is matched by name alone, not by module.
    """

    def package_reads(tree: ast.Module) -> set[str]:
        # names imported from the package, and every attribute name read
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and (node.level == 1 or (node.module or "").startswith("hyperbell")):
                names |= {a.name for a in node.names}
        return names

    read = set(re.findall(r"\w+", " ".join(re.findall(r"```.*?```|`[^`\n]+`", readme, re.S))))
    trees = {module: ast.parse(source) for module, source in sources.items()}
    for tree in [tree for module, tree in trees.items() if module != "__init__"] + [ast.parse(r) for r in readers]:
        read |= package_reads(tree)
    unread = []
    for module, tree in trees.items():
        seen = read | {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{module}.{name}" for name in top_level_names(tree) if not name.startswith("_") and name not in seen]
    return unread


def test_the_check_sees_an_unread_public_name():
    sources = {
        "__init__": "from .a import A, B, C, D, E, F, G\n",
        "a": "A = 1\nB = 2\nC = 3\nD = A\ndef E(): ...\nclass F: ...\ndef G(): ...\n_H = 4\n",
    }
    readers = ["from hyperbell.a import B\nimport hyperbell\nhyperbell.a.E()\nD = 5\nprint(D)\n"]
    readme = "The `C` constant, and F in prose.\n\n```python\nG()\n```\n"
    assert unread_public_names(sources, readers, readme) == ["a.D", "a.F"]


def test_every_public_name_is_read():
    readers = [p.read_text() for folder in ("tests", "perfbench") for p in (ROOT / folder).glob("*.py")]
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_public_names(sources, readers, (ROOT / "README.md").read_text("utf-8")) == []
