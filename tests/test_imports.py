"""Every module-level import in the package is used or re-exported,
every exported name is bound, every definition has a caller outside the
tests, and the README's library example runs."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fluidlb"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree):
    """(name, line) of every name bound by a module-level import."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    unused = [f"{path.name}:{line} {name}"
              for name, line in _imported_names(tree) if name not in used]
    assert not unused, f"module-level imports never used: {unused}"


def _bound_names(tree):
    """Every name a module-level statement binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id
    yield from (name for name, _ in _imported_names(tree))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_exported_name_is_bound(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unbound = sorted(_exported(tree) - set(_bound_names(tree)))
    assert not unbound, f"{path.name}: __all__ names never bound: {unbound}"


def test_every_private_module_name_is_used():
    # a helper left behind when its callers move away is dead code
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    imported = {name for tree in trees.values()
                for name, _ in _imported_names(tree)}
    unused = sorted(f"{module} {name}" for module, tree in trees.items()
                    for name in set(_bound_names(tree)) - imported
                    if name.startswith("_") and not name.startswith("__")
                    and name not in used)
    assert not unused, f"private module-level names never used: {unused}"


def _readme_example():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    return block


def _referenced(tree, strings=False):
    """Names a tree reads, attributes and imported names included; with
    `strings`, also its string constants."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif (strings and isinstance(node, ast.Constant)
                and isinstance(node.value, str)):
            yield node.value


def test_every_definition_has_a_caller():
    # callers are the package, the benchmark (which wraps some methods by
    # their name as a string) and the README example; a name that only
    # tests call is dead code the tests keep alive
    used = set(_referenced(ast.parse(_readme_example())))
    for path in PACKAGE.glob("*.py"):
        used.update(_referenced(ast.parse(path.read_text(encoding="utf-8"))))
    for path in (ROOT / "bench").glob("*.py"):
        used.update(_referenced(ast.parse(path.read_text(encoding="utf-8")),
                                strings=True))
    uncalled = sorted(
        f"{path.name} {node.name}" for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in used)
    assert not uncalled, f"definitions nothing calls: {uncalled}"


def test_readme_library_example_runs():
    exec(compile(_readme_example(), "README.md", "exec"), {})
