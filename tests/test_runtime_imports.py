"""The runtime's import graph: `import poet` loads poet's own modules and the stdlib, no generator.

Nor does it load `dataclasses`, the modules that build, compile or read source, or `uuid`: an AR
or interface UUID stays as its 16 wire bytes. `import poet.cli` leaves `poet.synth` to the one
command that synthesizes and loads no `logging`.

Also the module boundaries that the imports keep: only `dissect` knows a DCP option number,
only `models.ArTable` writes the AR and frame-id registries, and only `models` names a state
of the operation machines.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
import uuid

import poet
from poet.models import connection_fsm_table, device_fsm_table, system_fsm_table

# Only the modules that the import itself adds count, not those a site hook loaded first.
_PROBE = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _added_by_import(module: str) -> list[str]:
    """The modules that importing `module` adds in a fresh interpreter, with poet from this tree."""
    src = os.path.dirname(os.path.dirname(poet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = _PROBE.format(module=module)
    run = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 0, run.stderr
    return json.loads(run.stdout)


def test_import_poet_loads_only_the_runtime_and_the_stdlib():
    added = _added_by_import("poet")
    assert "poet.tracker" in added
    assert "poet.synth" not in added
    outside = [
        name
        for name in added
        if name.partition(".")[0] != "poet" and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


def test_import_poet_loads_no_code_generator_or_source_reader():
    """No module that builds, compiles or reads source loads; the records' `__init__`s use the builtin `compile`."""
    added = _added_by_import("poet")
    assert "poet.models" in added
    assert sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(added)) == []


def test_import_poet_loads_no_uuid():
    """The runtime keeps AR and interface UUIDs as their 16 wire bytes; `uuid` would bring in `platform`."""
    added = _added_by_import("poet")
    assert "poet.models" in added
    assert sorted({"uuid", "_uuid", "platform"} & set(added)) == []


def test_rpc_interfaces_are_the_pn_io_uuids_in_each_byte_order():
    """The interfaces a DCE/RPC header is matched against, as `uuid` lays them out in each drep order."""
    from poet.dissect import _RPC_BY_ORDER

    pn_io = [uuid.UUID("dea00001-6c97-11d1-8271-00a02442df7d"), uuid.UUID("dea00002-6c97-11d1-8271-00a02442df7d")]
    assert _RPC_BY_ORDER["<"][2] == {u.bytes_le for u in pn_io}
    assert _RPC_BY_ORDER[">"][2] == {u.bytes for u in pn_io}


def test_import_poet_cli_leaves_the_generator_to_poet_synth():
    added = _added_by_import("poet.cli")
    assert "poet.cli" in added
    assert "poet.synth" not in added


def test_import_poet_cli_loads_no_logging():
    # cli writes its INFO lines itself; `logging` would bring in `traceback` and `tokenize`.
    added = _added_by_import("poet.cli")
    assert "poet.cli" in added
    assert sorted({"logging", "traceback", "tokenize"} & set(added)) == []


def _names(tree: ast.AST):
    """Every identifier a module spells: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_only_dissect_names_a_dcp_option_constant():
    # synth is the encoder: it writes DCP blocks, so it names their options too.
    package = pathlib.Path(poet.__file__).parent
    naming = sorted(
        path.name
        for path in package.glob("*.py")
        if path.name != "synth.py"
        and any(
            name.startswith(("DCP_OPTION_", "DCP_SUBOPTION_"))
            for name in _names(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert naming == ["dissect.py"]


_REGISTRIES = {"ars", "frame_ids"}
_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def _registry_name(node: ast.AST) -> str | None:
    """The registry `node` spells, as `x.ars` or a bare `frame_ids`, else None."""
    name = node.attr if isinstance(node, ast.Attribute) else node.id if isinstance(node, ast.Name) else None
    return name if name in _REGISTRIES else None


def _outside_ar_table(tree: ast.AST):
    """Every node of `tree` except those of class ArTable."""
    for child in ast.iter_child_nodes(tree):
        if not (isinstance(child, ast.ClassDef) and child.name == "ArTable"):
            yield child
            yield from _outside_ar_table(child)


def _registry_writes(tree: ast.AST) -> list[str]:
    """Each line outside class ArTable that stores into, deletes from, rebinds or mutates a registry.

    An attribute of `self` that another class rebinds is its own, as synth's plan of frame ids is.
    """
    writes = []
    for node in _outside_ar_table(tree):
        if isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if _registry_name(node.value):
                writes.append(f"{node.lineno}: item of {_registry_name(node.value)}")
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            if _registry_name(node) and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
                writes.append(f"{node.lineno}: rebinds {node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS and _registry_name(node.func.value):
                writes.append(f"{node.lineno}: {_registry_name(node.func.value)}.{node.func.attr}()")
    return writes


def test_only_the_ar_table_writes_its_registries():
    package = pathlib.Path(poet.__file__).parent
    writes = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if (found := _registry_writes(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert writes == {}
    # The check sees the table's own writes once the class is renamed, so it is not vacuous.
    models = (package / "models.py").read_text(encoding="utf-8")
    assert len(_registry_writes(ast.parse(models.replace("class ArTable", "class Renamed")))) == 2
    # Each kind of write that the check names, as another module would spell it.
    probe = """
tracker.ar_table.ars[ar] = reg
del ctx.ar_table.frame_ids[frame_id]
table.frame_ids.pop(frame_id)
ars.clear()
tracker.ar_table.ars = {}
"""
    assert len(_registry_writes(ast.parse(probe))) == 5


_STATES = frozenset().union(
    *(table().states for table in (device_fsm_table, connection_fsm_table, system_fsm_table))
)


def _state_names(tree: ast.AST) -> list[str]:
    """Each string constant of `tree` that equals a state of the device, connection or system machine."""
    return [
        f"{node.lineno}: {node.value}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in _STATES
    ]


def test_only_models_names_a_machine_state():
    # Another module reads a state's meaning from the tables, e.g. its operation.
    package = pathlib.Path(poet.__file__).parent
    spelled = {
        path.name: found
        for path in sorted(package.glob("*.py"))
        if path.name != "models.py" and (found := _state_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert spelled == {}
    # The check finds every state in the tables' own module, so it is not vacuous.
    models = ast.parse((package / "models.py").read_text(encoding="utf-8"))
    assert {line.partition(": ")[2] for line in _state_names(models)} == _STATES
    probe = """
if created and tracker.fleet.system.current_state == "DataExchange":
    warn("ConnectionCreation", state="Inactive")
"""
    assert len(_state_names(ast.parse(probe))) == 3
