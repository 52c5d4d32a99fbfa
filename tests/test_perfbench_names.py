"""Every library name the benchmark reaches for must exist.

perfbench's tracer wraps functions by name and its workloads call the
library through a `lib` namespace of modules, so a rename or a deletion in
boxops would only show when the benchmark runs.  These tests read
perfbench's sources, and import nothing from perfbench but the tracer's
TARGETS table.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(f"boxops.{module}")
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        assert callable(_resolve(module, attr)), (module, attr)


def _is_lib_module(node):
    """node reads `lib.<module>`."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "lib")


def _lib_ref(node, modules):
    """(module, name) when node reads `lib.<module>.<name>` or
    `<alias>.<name>` for an alias in modules, else None."""
    if not isinstance(node, ast.Attribute):
        return None
    base = node.value
    if _is_lib_module(base):
        return base.attr, node.attr
    if isinstance(base, ast.Name) and base.id in modules:
        return modules[base.id], node.attr
    return None


def _library_uses(tree):
    """(module, name, call or None) for every library function a workload
    reads, directly as `lib.<module>.<name>`, through a module bound as
    `<alias> = lib.<module>`, or called through a local name bound to it
    (`check = lib.m.f if ... else lib.m.g`)."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        nodes = list(ast.walk(func))
        assigns = [(n.targets[0].id, n.value) for n in nodes
                   if isinstance(n, ast.Assign) and len(n.targets) == 1
                   and isinstance(n.targets[0], ast.Name)]
        modules = {name: value.attr for name, value in assigns if _is_lib_module(value)}
        functions = {}
        for name, value in assigns:
            picks = (value.body, value.orelse) if isinstance(value, ast.IfExp) else (value,)
            functions[name] = [r for r in (_lib_ref(p, modules) for p in picks) if r]
        calls = {id(n.func): n for n in nodes if isinstance(n, ast.Call)}
        for node in nodes:
            ref = _lib_ref(node, modules)
            if ref:
                yield (*ref, calls.get(id(node)))
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                for ref in functions.get(node.func.id, ()):
                    yield (*ref, node)


def test_workload_calls_resolve():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    seen = set()
    for module, name, call in _library_uses(tree):
        fn = _resolve(module, name)
        seen.add(f"{module}.{name}")
        if call is None or any(isinstance(a, ast.Starred) for a in call.args):
            continue
        # the call's arguments must still bind: a dropped parameter fails here
        inspect.signature(fn).bind(
            *call.args, **{kw.arg: kw.value for kw in call.keywords if kw.arg}
        )
    assert {"cubes.realizes_below_table", "cubes.brute_force_realizes_below",
            "contractibility.check_homotopy_initial"} <= seen
