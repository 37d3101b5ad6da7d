"""No module of the package keeps a module-level import it never reads.

The check is made on the syntax tree, so it needs no linter: a name bound by
an ``import`` at module level counts as used when any other node of the
module reads it, in code or in a quoted annotation.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "largen"


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of ``source`` that no other
    node reads, in the order they are bound."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                quoted = ast.parse(c.value, mode="eval")
                read |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_the_scan_sees_an_unused_import():
    source = (
        "from functools import cache, reduce\nfrom operator import or_\nimport math\n"
        "@cache\ndef f(x) -> 'math.Tau':\n    return x\n"
    )
    assert unused_imports(source) == ["reduce", "or_"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_keeps_an_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
