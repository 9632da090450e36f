"""The benchmark's tracer wraps library functions by module attribute
(perfbench/tracer.py, SITES) before a traced run; every name it lists
must resolve on the library, or the traced run fails before it starts."""
from __future__ import annotations

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_sites() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["SITES"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SITES assignment in {TRACER}")


def test_every_traced_site_resolves():
    sites = traced_sites()
    assert sites
    missing = []
    for mod_name, attrs in sites.items():
        module = importlib.import_module(f"frlstsvm.{mod_name}")
        missing += [f"frlstsvm.{mod_name}.{attr}" for attr in attrs
                    if not callable(getattr(module, attr, None))]
    assert missing == []
