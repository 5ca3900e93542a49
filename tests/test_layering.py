"""Import layering: the simulator and the shard farm sit below the hub.

``SessionOptions`` lives in ``repro.options``, which imports nothing from
``repro``, so building a simulator or a shard session must never load
``repro.hub``.  Checked in a fresh interpreter, where ``sys.modules``
shows exactly what those constructors import.
"""

import ast
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

_PROBE = """
import sys
import repro
from repro.shard import ShardSession
from repro.sim import Simulator
from tests.helpers import Counter

d = repro.compile(Counter())
Simulator(d.low).step(2)
ShardSession(d).close()
print(",".join(sorted(m for m in sys.modules if m.startswith("repro.hub"))))
"""


def test_sim_and_shard_do_not_import_hub():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", _PROBE],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == ""


def test_options_module_imports_nothing_from_repro():
    import repro.options

    tree = ast.parse(pathlib.Path(repro.options.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and node.module.split(".")[0] != "repro"
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "repro" for a in node.names)
