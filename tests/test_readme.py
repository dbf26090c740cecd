"""README's examples, run as written.

Each line of the ```python block that ends in a ``# <value>`` comment is an
expression whose value the comment states; the test evaluates it and compares.
Each line of the CLI block must parse with the CLI's own parser, and the block
must show every subcommand.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from hyperbell import cli

README = Path(__file__).resolve().parents[1] / "README.md"

# the comment's leading literal: a quoted string or an integer
STATED = re.compile(r"#\s*('[^']*'|-?\d+\b)")


def test_library_example_states_true_values():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(block).body:
        stated = STATED.search(lines[stmt.end_lineno - 1])
        if isinstance(stmt, ast.Expr) and stated:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            want = ast.literal_eval(stated.group(1))
            assert value == want, ast.get_source_segment(block, stmt)
            checked.append(want)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert checked == ["21/21 perfect correlations hold", 65536, 4, 5]


def test_cli_block_matches_the_parser():
    blocks = re.findall(r"```\n(.*?)```", README.read_text("utf-8"), re.S)
    (block,) = [b for b in blocks if b.startswith("hyperbell ")]
    parser = cli.build_parser()
    shown = set()
    for line in block.splitlines():
        prog, *argv = line.split("#")[0].split()
        assert prog == "hyperbell", line
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README's CLI line does not parse: {line}")
        shown.add(argv[0])
    assert {name for name, *_ in cli.COMMANDS} <= shown
