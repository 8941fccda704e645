"""Source checks that need no run: every module-level constant is read somewhere."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qst_control"
CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")


def _stored_names(target):
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _stored_names(elt)


def test_every_module_constant_is_read():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    defined = {}
    read = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for name in _stored_names(target):
                        if CONSTANT.match(name):
                            defined[name] = module
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert defined, f"no module constants found under {SRC}"
    unread = sorted(f"{module}: {name}" for name, module in defined.items() if name not in read)
    assert unread == []
