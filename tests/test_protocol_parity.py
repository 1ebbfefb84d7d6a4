"""Static parity check: the execution protocol is single-sourced.

PR 5 extracted every shared state constant, trace kind, delivery fate,
verdict, and timing rule of the DES execution protocol into
:mod:`repro.engine.protocol`; the two engines must *bind* those
definitions, never re-declare them.  These tests introspect both engine
modules — at the AST level (no module-level re-declaration, no
string-literal trace kinds smuggled back in) and at runtime (every bound
name is the protocol's own object) — so a future edit that forks the
protocol fails CI before any bit-equality battery has to catch it.
A last check keeps the protocol module free of exports no code runs.
"""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import pytest

import repro.engine.protocol as protocol
import repro.resilience.faults as faults
import repro.solvers.des_array as des_array
import repro.solvers.des_solver as des_solver
from repro.engine.protocol import (
    ALL_TRACE_KINDS,
    DEFAULT_STALE_POLICY,
    PROTOCOL_CONSTANTS,
    TokenLayout,
)

ENGINE_MODULES = {
    "des_solver": des_solver,
    "des_array": des_array,
}


def _module_tree(module) -> ast.Module:
    return ast.parse(inspect.getsource(module))


def _module_level_bindings(tree: ast.Module) -> dict[str, str]:
    """Name → binding kind (``assign`` / ``import``) at module level."""
    bound: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        bound[leaf.id] = "assign"
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = (
                    f"import:{node.module or ''}"
                )
    return bound


# ---------------------------------------------------------------------------
# 1. No engine module re-declares a protocol constant.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mod_name", sorted(ENGINE_MODULES))
def test_engines_do_not_redeclare_protocol_constants(mod_name):
    bindings = _module_level_bindings(_module_tree(ENGINE_MODULES[mod_name]))
    offenders = {
        name: kind
        for name, kind in bindings.items()
        if name in PROTOCOL_CONSTANTS and kind == "assign"
    }
    assert not offenders, (
        f"{mod_name} re-declares protocol constant(s) {sorted(offenders)}; "
        "bind them from repro.engine.protocol instead"
    )


def test_des_array_imports_in_flight_cap_from_des_solver():
    # The monkeypatch contract: tests patch
    # ``des_solver.MESSAGES_IN_FLIGHT_PER_LINK`` and the array engine
    # must read that attribute at call time, not protocol's.
    src = inspect.getsource(des_array.execute_array)
    assert "from repro.solvers.des_solver import MESSAGES_IN_FLIGHT_PER_LINK" in src


# ---------------------------------------------------------------------------
# 2. Every name an engine binds resolves to the protocol's definition.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("mod_name", sorted(ENGINE_MODULES))
def test_engine_bindings_are_protocol_objects(mod_name):
    module = ENGINE_MODULES[mod_name]
    mismatched = []
    bound = 0
    for name, value in PROTOCOL_CONSTANTS.items():
        if not hasattr(module, name):
            continue
        bound += 1
        if getattr(module, name) != value:
            mismatched.append(name)
    assert not mismatched, f"{mod_name} binds forked values: {mismatched}"
    assert bound > 0, f"{mod_name} binds no protocol constants at all"


def test_engine_functions_are_protocol_functions():
    shared = (
        "delivery_action",
        "exhausted_delivery",
        "failure_victims",
        "remap_plan",
        "launch_times",
        "link_capacity",
        "wire_time",
    )
    for name in shared:
        proto_fn = getattr(protocol, name)
        for mod_name, module in ENGINE_MODULES.items():
            if hasattr(module, name):
                assert getattr(module, name) is proto_fn, (
                    f"{mod_name}.{name} is not protocol.{name}"
                )


def test_fate_constants_re_exported_not_redeclared():
    for name in ("FATE_DROP", "FATE_DELAY", "FATE_CORRUPT"):
        assert getattr(faults, name) is getattr(protocol, name)
    bindings = _module_level_bindings(_module_tree(faults))
    for name in ("FATE_DROP", "FATE_DELAY", "FATE_CORRUPT"):
        assert bindings.get(name, "").startswith("import"), (
            f"faults.{name} must be imported from the protocol core, "
            f"got binding kind {bindings.get(name)!r}"
        )


# ---------------------------------------------------------------------------
# 3. No string-literal trace kinds inside engine code.
# ---------------------------------------------------------------------------
def _string_constants(tree: ast.Module):
    """Every string constant that is *not* a docstring position."""
    docstring_nodes = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
            ):
                docstring_nodes.add(id(body[0].value))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstring_nodes
        ):
            yield node


@pytest.mark.parametrize("mod_name", sorted(ENGINE_MODULES))
def test_no_literal_trace_kinds_in_engine_code(mod_name):
    tree = _module_tree(ENGINE_MODULES[mod_name])
    kinds = set(ALL_TRACE_KINDS)
    literals = sorted(
        {
            node.value
            for node in _string_constants(tree)
            if node.value in kinds
        }
    )
    assert not literals, (
        f"{mod_name} hardcodes trace kind literal(s) {literals}; "
        "use the TRACE_* constants from repro.engine.protocol"
    )


# ---------------------------------------------------------------------------
# 4. The manifest itself is sound, and the compiled token shifts it pins.
# ---------------------------------------------------------------------------
def test_manifest_matches_protocol_module():
    for name, value in PROTOCOL_CONSTANTS.items():
        assert getattr(protocol, name) == value, name


def test_compiled_shift_widths_are_pinned():
    # des_array's hot loop compiles COMP_SHIFT / XFER_SHIFT into literal
    # ``>> 3`` / ``& 7`` / ``<< 3`` / ``& 3`` / ``>> 2`` operations for
    # speed.  Those literals are correct iff these widths hold; changing
    # either constant requires recompiling the hot loop.
    assert protocol.COMP_SHIFT == 3
    assert protocol.XFER_SHIFT == 2


def test_stale_constants_in_manifest():
    for name in ("TRACE_STALE_LAUNCH", "TRACE_VALIDATE", "TRACE_REPLAY"):
        assert name in PROTOCOL_CONSTANTS
        assert PROTOCOL_CONSTANTS[name] in ALL_TRACE_KINDS
    # The default policy is part of the cross-engine contract: both the
    # wake threshold and the replay ceiling must match everywhere.
    assert DEFAULT_STALE_POLICY.k == 1
    assert DEFAULT_STALE_POLICY.ceiling == 1e-12


def test_token_layout_round_trip():
    layout = TokenLayout.for_system(n=11, nnz=29)
    assert layout.local_base == 11 << protocol.COMP_SHIFT
    assert layout.xfer_base == layout.local_base + 29
    assert layout.failure_base == layout.xfer_base + (
        29 << protocol.XFER_SHIFT
    )
    # Every encoder lands in its own disjoint token range.
    comp = (5 << protocol.COMP_SHIFT) | protocol.COMP_SOLVE
    assert 0 <= comp < layout.local_base
    assert layout.local_base <= layout.local_base + 7 < layout.xfer_base
    xfer = layout.xfer_base + (
        (3 << protocol.XFER_SHIFT) | protocol.XFER_WIRE
    )
    assert layout.xfer_base <= xfer < layout.failure_base


# ---------------------------------------------------------------------------
# 5. Every public protocol name is something the program runs.
# ---------------------------------------------------------------------------
#: Manifests the tests read; the program itself need not.
_MANIFESTS = {"ALL_TRACE_KINDS", "PROTOCOL_CONSTANTS"}


def _referenced_names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` reads, imports, or looks up as attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
    return names


def test_every_public_protocol_name_is_used():
    """No declarative table, codec, or record that no code reads.

    A public name is live when some module under ``src/repro`` other
    than the protocol module and the ``repro.engine`` re-export refers
    to it, or when a live top-level definition of the protocol module
    does (``wire_time`` keeps ``MESSAGE_BYTES`` live).  The manifests
    are exempt and keep nothing live.
    """
    package = Path(protocol.__file__).resolve().parents[1]
    proto_file = Path(protocol.__file__).resolve()
    skip = {proto_file, proto_file.with_name("__init__.py")}
    outside = set()
    for path in package.rglob("*.py"):
        if path.resolve() not in skip:
            outside |= _referenced_names(ast.parse(path.read_text()))
    defs: dict[str, set[str]] = {}
    for node in _module_tree(protocol).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = _referenced_names(node) - {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            bound = {t.id for t in targets if isinstance(t, ast.Name)}
            for name in bound:
                defs[name] = _referenced_names(node) - bound
    live = outside & defs.keys()
    stack = sorted(live - _MANIFESTS)
    while stack:
        for name in defs[stack.pop()] & defs.keys():
            if name not in live:
                live.add(name)
                stack.append(name)
    unused = [
        name
        for name in protocol.__all__
        if name not in live and name not in _MANIFESTS
    ]
    assert not unused, (
        f"repro.engine.protocol exports {unused}, which no code runs; "
        "delete them or use them"
    )
