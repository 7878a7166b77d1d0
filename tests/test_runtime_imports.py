"""The runtime's import graph: `import poet` loads poet's own modules and the stdlib, no generator.

Also the module boundaries that the imports keep: only `dissect` knows a DCP option number.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys

import poet

# Only the modules that `import poet` itself adds count, not those a site hook loaded first.
_PROBE = """
import json, sys
before = set(sys.modules)
import poet
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_import_poet_loads_only_the_runtime_and_the_stdlib():
    src = os.path.dirname(os.path.dirname(poet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    added = json.loads(run.stdout)
    assert "poet.tracker" in added
    assert "poet.synth" not in added
    outside = [
        name
        for name in added
        if name.partition(".")[0] != "poet" and name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []


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
