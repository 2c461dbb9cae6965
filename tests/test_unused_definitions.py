"""Every function, class and method in a source module is used by the program.

A definition counts as used when ``src/`` or ``bench/`` refers to its name
outside its own body: as a name, as an attribute, or as an identifier string
(the benchmark tracer patches functions named by strings).  Tests do not
count, so a helper that only its own tests call is reported.  Dunder methods
are called by Python itself and are not checked.
"""

import ast
import glob
import os

ROOT = os.path.join(os.path.dirname(__file__), "..")

# definitions kept although no program path calls them, with the reason
ALLOWED = {
    "decoder.sample_generative": (
        "the model's generative process: acceptance criteria 5 and 6, the Geweke test "
        "and the synthetic datasets of the tests sample from it"
    ),
}


def _definitions(tree):
    """(qualified name, name, first line, last line) of every top-level
    function and class and of every method of a top-level class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every name, attribute and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def unreferenced(checked, others=()):
    """``module.qualname`` of every definition in the ``checked`` sources
    (module name -> source) that no checked or ``others`` source refers to
    outside the definition's own body."""
    trees = {module: ast.parse(source) for module, source in checked.items()}
    refs = {}
    for module, tree in [*trees.items(), *((None, ast.parse(source)) for source in others)]:
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    missing = []
    for module, tree in trees.items():
        for qualname, name, first, last in _definitions(tree):
            if all(at == module and first <= line <= last for at, line in refs.get(name, ())):
                missing.append(f"{module}.{qualname}")
    return missing


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_every_definition_is_used_by_the_program():
    checked = {
        os.path.basename(path)[: -len(".py")]: _read(path)
        for path in sorted(glob.glob(os.path.join(ROOT, "src", "graphtopics", "*.py")))
    }
    others = [_read(path) for path in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))]
    found = unreferenced(checked, others)
    assert [name for name in found if name not in ALLOWED] == []
    assert set(ALLOWED) <= set(found), "an allowed definition is now used; drop it from ALLOWED"


def test_detects_definitions_only_their_own_body_uses():
    checked = {
        "m": (
            "def used():\n"
            "    return 1\n"
            "def recursive(n):\n"
            "    return recursive(n - 1)\n"
            "def patched():\n"
            "    pass\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self.x = used()\n"
            "    def method(self):\n"
            "        return C\n"
            "    def called(self):\n"
            "        pass\n"
        )
    }
    others = ["import m\nm.C().called()\nTARGETS = [(m, 'patched')]\n"]
    assert unreferenced(checked, others) == ["m.recursive", "m.C.method"]
