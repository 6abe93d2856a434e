"""The benchmark names only what zvnav defines.

``perfbench/tracing.py`` binds a span around each (module, function) in its
``SPAN_TABLE`` and, for a name zvnav no longer defines, only reports it as
absent. This test turns such a name into a failure, so a change that deletes
or renames a traced function is caught here rather than in a benchmark run.
Each name must be a plain function: the tracer reads ``__name__``, which a
``functools.partial`` or other callable object need not have.
The table is read from the file without importing it as a package module and
without writing anything under ``perfbench/``.

``perfbench/workloads.py`` drives zvnav through its module attributes, such
as ``svm.NormStats.from_streams``; the second test parses it and resolves
every such chain, so deleting a name the benchmark uses fails here too.
"""
import ast
import importlib
import inspect
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")


def load_span_table():
    module = types.ModuleType("_perfbench_tracing")
    sys.modules[module.__name__] = module  # dataclasses resolve annotations through it
    try:
        exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module.SPAN_TABLE


def test_every_traced_function_exists():
    absent = [f"zvnav.{module}.{function}" for _, module, function, _ in load_span_table()
              if not inspect.isfunction(
                  getattr(importlib.import_module(f"zvnav.{module}"), function, None))]
    assert absent == [], ("perfbench SPAN_TABLE traces names zvnav does not define "
                          f"as plain functions: {absent}")


def zvnav_module_aliases(tree: ast.Module) -> dict:
    """Module-level names bound to zvnav modules: ``from zvnav import x as y``
    and ``y = importlib.import_module("zvnav.x")``."""
    aliases = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "zvnav":
            aliases.update({a.asname or a.name: f"zvnav.{a.name}" for a in node.names})
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and ast.unparse(node.value.func) == "importlib.import_module"):
            aliases.update({target.id: ast.literal_eval(node.value.args[0])
                            for target in node.targets})
    return aliases


def test_every_zvnav_name_the_workloads_use_exists():
    tree = ast.parse(WORKLOADS.read_text(), str(WORKLOADS))
    aliases = zvnav_module_aliases(tree)
    chains = set()
    for node in ast.walk(tree):
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            chains.add((node.id, *parts))
    assert chains, f"no zvnav attribute found in {WORKLOADS.name}"
    missing = []
    for alias, *attrs in sorted(chains):
        obj = importlib.import_module(aliases[alias])
        for depth, attr in enumerate(attrs, start=1):
            if not hasattr(obj, attr):
                missing.append(".".join([alias, *attrs[:depth]]))
                break
            obj = getattr(obj, attr)
    assert missing == [], f"perfbench/workloads.py uses names zvnav does not define: {missing}"
