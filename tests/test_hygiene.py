"""Source checks that need no run: every module-level constant is read
somewhere, every import is used, and every random draw comes from a keyed
Philox generator."""

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


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def _used_names(tree):
    """Names read in code, in string annotations such as ``"int | RandomStream"``, or listed in ``__all__``."""
    annotations = {
        part
        for node in ast.walk(tree)
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None))
        if annotation is not None
        for part in ast.walk(annotation)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node in annotations:
            yield from _used_names(ast.parse(node.value, mode="eval"))
        elif isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["__all__"]:
            yield from ast.literal_eval(node.value)


def test_every_import_is_used():
    unused = []
    for module, tree in _trees().items():
        used = set(_used_names(tree))
        unused += [f"{module}: {name}" for name in _imported_names(tree) if name not in used]
    # chain re-exports the noise gate: the benchmark's tracer looks it up there
    assert unused == ["chain.py: sample_noise_gate"]


def test_the_package_pins_blas_threads_before_numpy_can_load():
    # OpenBLAS reads its thread count once, when numpy loads: a reordered
    # __init__.py that imports first would drop the pin without an error
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    pinned = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Import) and {alias.name for alias in stmt.names} <= {"os", "sys"}:
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__":
            break  # the first import that can load numpy
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        if (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) == "os.environ.setdefault"
            and [ast.literal_eval(arg) for arg in call.args][1:] == ["1"]
        ):
            pinned.add(ast.literal_eval(call.args[0]))
    else:
        raise AssertionError("__init__.py imports nothing after the pin")
    assert pinned == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}
