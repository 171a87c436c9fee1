"""Startup stays dependency-free.

Every ``python -m repro`` command pays for ``import repro.cli`` before it
does any work, so heavy third-party packages must stay off the default
paths.  Each check runs in a fresh interpreter: the test process itself
may already hold numpy (test oracles import it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: Packages no default command may load.
HEAVY_DEPS = ("numpy", "scipy", "networkx", "matplotlib")


def loaded_heavy_deps(code: str, cwd: Path) -> list:
    """Run ``code`` in a fresh interpreter; the heavy deps it left loaded."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {HEAVY_DEPS!r} if m in sys.modules]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def cli_probe(argv) -> str:
    """Code running ``repro.cli.main(argv)`` with its output discarded."""
    return (
        "import contextlib, io, repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert repro.cli.main({list(argv)!r}) == 0\n"
    )


def test_import_cli_loads_no_heavy_deps(tmp_path):
    assert loaded_heavy_deps("import repro.cli", tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["fleet", "run", "fleet-smoke", "--seed", "1", "--out", "fleet.jsonl"],
    ["fig8", "--apps", "16"],
])
def test_command_loads_no_heavy_deps(tmp_path, argv):
    assert loaded_heavy_deps(cli_probe(argv), tmp_path) == []
