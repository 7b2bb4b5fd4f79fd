"""The benchmark's tracer wraps mscs functions by name; they must still exist."""

import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_tracer_targets_exist():
    namespace = {"__name__": "tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    targets = [(module, name) for module, name, *_ in namespace["TARGETS"]]
    targets.append(("mscs.cli", "cmd_pmepr"))  # wrapped on its own for the CSV span
    for module, name in targets:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
