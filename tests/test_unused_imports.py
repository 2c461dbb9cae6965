"""Every name a source module imports is used in that module.

An import statement whose first line carries ``# noqa: F401`` is kept on
purpose (a re-export that other code looks up on the module) and skipped.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "graphtopics")


def unused_imports(source):
    """(line, name) of every imported name that nothing in ``source`` reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if "# noqa: F401" in lines[node.lineno - 1] or getattr(node, "module", None) == "__future__":
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(SRC, "*.py"))), ids=os.path.basename
)
def test_no_unused_imports(path):
    with open(path, "r", encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_detects_unused_and_honours_noqa():
    source = (
        "import os\n"
        "from json import dumps, loads\n"
        "from re import (  # noqa: F401\n"
        "    sub,\n"
        ")\n"
        "def f():\n"
        "    from math import pi\n"
        "    return loads('1')\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "dumps"), (7, "pi")]
