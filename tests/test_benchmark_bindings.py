"""Every emord binding the benchmark wraps by name still exists.

perfbench/workloads.py marks the return of each MARKS binding with
`vars(holder)[name]`, and perfbench/spans.py wraps each TARGETS function, so
a refactor that drops or moves one of them makes a benchmark run crash
rather than fail a test.  The two tables are read with `ast`, without
importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assigned_value(path: Path, name: str) -> ast.expr:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def marks() -> list[str]:
    return list(ast.literal_eval(assigned_value(PERFBENCH / "workloads.py", "MARKS")))


def targets() -> list[str]:
    table = assigned_value(PERFBENCH / "spans.py", "TARGETS")
    # each entry is (module, "function" or "Class.method", probe)
    return [".".join(ast.literal_eval(entry.elts[i]) for i in (0, 1)) for entry in table.elts]


def holder_and_name(binding: str):
    module_name, _, name = binding.partition(".")
    holder = importlib.import_module(f"emord.{module_name}")
    if "." in name:
        class_name, name = name.split(".")
        holder = vars(holder)[class_name]
    return holder, name


def test_both_tables_are_read():
    assert len(marks()) >= 10
    assert len(targets()) >= 20


@pytest.mark.parametrize("binding", marks())
def test_marked_binding_exists(binding):
    holder, name = holder_and_name(binding)
    assert callable(vars(holder).get(name)), f"{binding} is not a callable attribute"


@pytest.mark.parametrize("binding", targets())
def test_traced_binding_exists(binding):
    holder, name = holder_and_name(binding)
    assert callable(vars(holder).get(name)), f"{binding} is not a callable attribute"
