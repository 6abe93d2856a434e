"""The package's public surface is its modules: ``zvnav`` itself re-exports nothing,
and every public function or class in them serves the CLI, the evaluator or the
benchmark, not only the tests."""
import ast
import pkgutil
import types
from pathlib import Path

import zvnav
import zvnav.simulate


def test_submodule_attribute_is_the_module():
    assert isinstance(zvnav.simulate, types.ModuleType)
    assert callable(zvnav.simulate.simulate)


def test_package_binds_only_version_and_submodules():
    submodules = {m.name for m in pkgutil.iter_modules(zvnav.__path__)}
    public = {name for name in vars(zvnav) if not name.startswith("_")}
    assert public <= submodules, sorted(public - submodules)
    assert zvnav.__version__


SRC = Path(zvnav.__file__).resolve().parent
PERFBENCH = SRC.parents[1] / "perfbench"


def is_click_command(node) -> bool:
    """Decorated ``@<group>.command(...)`` or ``@<group>.group(...)``: click calls it."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def names_used(tree: ast.AST) -> set[str]:
    """Every name a module refers to: loaded or bound names, attributes, imported
    names, and strings that name a function (perfbench's span table is strings)."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_definition_has_a_caller_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in [*SRC.glob("*.py"), *PERFBENCH.glob("*.py")]}
    used = set().union(*map(names_used, trees.values()))
    unused = [f"{path.stem}.{node.name}" for path, tree in trees.items() if path.parent == SRC
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and not is_click_command(node)
              and node.name not in used]
    assert unused == [], f"public names that only tests use: {sorted(unused)}"
