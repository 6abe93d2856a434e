"""The benchmark's span table names only functions that zvnav defines.

``perfbench/tracing.py`` binds a span around each (module, function) in its
``SPAN_TABLE`` and, for a name zvnav no longer defines, only reports it as
absent. This test turns such a name into a failure, so a change that deletes
or renames a traced function is caught here rather than in a benchmark run.
Each name must be a plain function: the tracer reads ``__name__``, which a
``functools.partial`` or other callable object need not have.
The table is read from the file without importing it as a package module and
without writing anything under ``perfbench/``.
"""
import importlib
import inspect
import sys
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
