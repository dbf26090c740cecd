"""Every import in the package's modules is used where it binds, only
``pauli`` imports ``operator`` (for the one integer check), every private
top-level name the package defines is read in it, and every public one is
read in it, in the tests, in the benchmark or in README's code.
Importing the package, and every command that makes no array, leaves numpy
and ctypes unloaded, and importing it leaves dataclasses and the source tools
it pulls in unloaded.

``__init__.py`` is exempt from the import check: its imports are the
package's exports.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hyperbell import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperbell"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that nothing in their scope reads.

    An import's scope is the innermost function around it, or the module for
    one outside every function (an ``if TYPE_CHECKING:`` block included).  A
    scope's reads are the names in its body, nested functions included; a
    function's own signature belongs to the scope around it.
    """
    tree = ast.parse(source)
    functions = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    scope_of = {}
    for scope in [tree, *functions]:  # outer scopes first, so the innermost one wins
        for stmt in scope.body:
            scope_of.update((node, scope) for node in ast.walk(stmt))
    imports = [n for n in scope_of if isinstance(n, (ast.Import, ast.ImportFrom)) and getattr(n, "module", "") != "__future__"]
    unused = []
    for node in sorted(imports, key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(node, ast.Import):
            bound = [a.asname or a.name.split(".")[0] for a in node.names]
        else:
            bound = [a.asname or a.name for a in node.names]
        read = {n.id for stmt in scope_of[node].body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unused += [name for name in bound if name not in read]
    return unused


def test_the_check_sees_an_unused_import():
    source = "import re\nimport numpy as np\nfrom .pauli import Observable, PauliOp\nx = np.zeros(1)\ny: PauliOp\n"
    assert unused_imports(source) == ["re", "Observable"]
    # inside a function an import must be read by that function: the module's
    # reads of np do not cover f's import, and k's signature is not its body
    source += (
        "def f():\n    import numpy as np\n    import math\n    return math.pi\n"
        "def g(a: np.ndarray):\n    import json as js\n    def h():\n        return js\n    return h\n"
        "def k(a: chain):\n    from itertools import chain\n    return a\n"
        "if x:\n    import os\n"
    )
    assert unused_imports(source) == ["re", "Observable", "np", "chain", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_only_pauli_imports_operator():
    # integer arguments go through pauli._check_integer, the one user of
    # operator.index; another module importing operator has its own check
    importers = [
        path.name
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Import) and any(a.name == "operator" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "operator"
    ]
    assert importers == ["pauli.py"]


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


# Each probe runs in a fresh interpreter, the package imported from src, and
# prints one JSON document: whether numpy, numpy.ctypeslib and ctypes are
# loaded, and the command's exit code and stdout.
CLI_PROBE = """
import contextlib, io, json, sys
from hyperbell import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[1:])
loaded = {name: name in sys.modules for name in ("numpy", "numpy.ctypeslib", "ctypes")}
print(json.dumps({**loaded, "exit": code, "stdout": out.getvalue()}))
"""

GOLDEN = json.loads((ROOT / "tests" / "data" / "cli_golden.json").read_text("utf-8"))


def probe(code: str, *argv: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key != "HYPERBELL_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    return json.loads(done.stdout)


def test_importing_the_package_leaves_numpy_unloaded():
    code = "import json, sys\nimport hyperbell\nfrom hyperbell import cli\ncli.build_parser()\nprint(json.dumps('numpy' in sys.modules))\n"
    assert probe(code) is False


def test_importing_the_package_leaves_dataclasses_and_source_tools_unloaded():
    # the records are named tuples: dataclasses, and the inspect, ast, dis and
    # tokenize it imports, cost a third of the set-up every command pays; the
    # sampler imports ctypes where it writes the PCG64 states, as numpy does
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize", "numpy", "ctypes"]
    code = (
        "import json, sys\nimport hyperbell\nfrom hyperbell import cli\ncli.build_parser()\n"
        f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))\n"
    )
    assert probe(code) == []


# the local bound is certified from the block-sum table at every N, so it
# makes no array either, up to the top of each range (verify --n 12, bounds --n 511)
@pytest.mark.parametrize(
    "command",
    [
        "verify --n 12",
        "verify --n 9",
        "verify --n 3",
        "verify --n 2",
        "verify --n 1",
        "min-n --eta 0.33",
        "sweep --n-max 64",
        "eta-threshold --n 6",
        "bounds --n 511",
        "bounds --n 6",
        "bounds --n 4",
        "bounds --n 3",
        "bounds --n 2",
        "bounds --n 1",
        "dump-terms --n 2",
    ],
)
def test_analytic_commands_leave_numpy_unloaded(command):
    run = probe(CLI_PROBE, *command.split())
    assert run["exit"] == 0
    assert run["numpy"] is run["ctypes"] is False
    if command in GOLDEN:
        assert run["stdout"] == GOLDEN[command]["stdout"]


@pytest.mark.parametrize(
    "command", ["simulate --n 2 --shots 1000 --seed 7", "simulate --n 7 --shots 20 --term-budget 64 --seed 5"]
)
def test_array_commands_load_numpy_and_keep_their_golden_bytes(command):
    # the sampler reaches numpy's C multinomial by addresses it reads from
    # __array_interface__, not through numpy.ctypeslib, whose import costs about 1 ms
    run = probe(CLI_PROBE, *command.split())
    assert run["numpy"] is True
    assert run["numpy.ctypeslib"] is False
    assert (run["exit"], run["stdout"]) == (GOLDEN[command]["exit"], GOLDEN[command]["stdout"])


def test_the_largest_exhaustive_bound_leaves_numpy_unloaded_and_matches_in_process(capsys):
    run = probe(CLI_PROBE, "bounds", "--n", "3")
    assert run["numpy"] is run["ctypes"] is False
    assert cli.main(["bounds", "--n", "3"]) == run["exit"] == 0
    assert capsys.readouterr().out == run["stdout"]
    assert json.loads(run["stdout"])["lhv"]["method"] == "brute_force"


@pytest.mark.parametrize("backend, loads", [("stabilizer", False), ("dense", True)])
def test_only_the_dense_quantum_value_loads_numpy(backend, loads):
    code = f"import json, sys\nfrom hyperbell import quantum_value\nv = quantum_value(3, backend={backend!r})\nprint(json.dumps([v, 'numpy' in sys.modules]))\n"
    assert probe(code) == [64, loads]
