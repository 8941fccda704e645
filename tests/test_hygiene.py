"""Source checks that need no run: every module-level constant is read
somewhere, and every random draw comes from a keyed Philox generator."""

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


def _trees() -> dict:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_every_module_constant_is_read():
    trees = _trees()
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


def test_numpy_random_gives_only_keyed_generators():
    # np.random.Generator(np.random.Philox(key)) is the one way to draw: a
    # global or unkeyed generator (np.random.rand, default_rng()) cannot
    # get into a run
    used = set()
    for module, tree in _trees().items():
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "random"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")
            ):
                used.add(f"{module}: np.random.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                used.update(f"{module}: np.random.{alias.name}" for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                used.update(f"{module}: np.random" for alias in node.names if alias.name == "random")
    assert used, f"no np.random use found under {SRC}"
    assert {use.split(": ")[1] for use in used} <= {"np.random.Generator", "np.random.Philox"}, sorted(used)
