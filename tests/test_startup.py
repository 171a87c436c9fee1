"""Startup stays dependency-free and each command loads only its own chain.

Every ``python -m repro`` command pays for ``import repro.cli`` before it
does any work, so heavy third-party packages must stay off the default
paths, and the package ``__init__``s export lazily: a short command loads
only the modules its handler imports.  Each check runs in a fresh
interpreter: the test process itself may already hold numpy (test oracles
import it) and most of ``repro``.
"""

import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Every module of the package, as ``sys.modules`` names it.
REPRO_MODULES = tuple(sorted(
    ".".join(path.relative_to(SRC).with_suffix("").parts[:-1]
             if path.name == "__init__.py"
             else path.relative_to(SRC).with_suffix("").parts)
    for path in (SRC / "repro").rglob("*.py")
))

#: Every package of ``repro`` (each has a lazily resolved ``__all__``).
REPRO_PACKAGES = tuple(sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
))

#: Packages no default command may load.
HEAVY_DEPS = ("numpy", "scipy", "networkx", "matplotlib")

#: Stdlib pool machinery the forked-worker backend replaced.
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def loaded_modules(code: str, cwd: Path, modules=HEAVY_DEPS) -> list:
    """Run ``code`` in a fresh interpreter; which ``modules`` it left loaded."""
    probe = (
        f"{code}\n"
        "import json, sys\n"
        f"print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], cwd=cwd, env=fresh_env(),
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
    assert loaded_modules("import repro.cli", tmp_path) == []


def test_import_cli_module_budget(tmp_path):
    # The parser is built from the standard library and the package root
    # alone; any of these stdlib modules means a subsystem leaked in.
    assert loaded_modules("import repro.cli", tmp_path, REPRO_MODULES) == [
        "repro", "repro.cli",
    ]
    assert loaded_modules(
        "import repro.cli", tmp_path, ("sqlite3", "platform", "dataclasses")
    ) == []


def test_fig7_loads_no_campaign_machinery(tmp_path):
    unwanted = ("repro.campaign.backend", "repro.store",
                "repro.experiments.fig5", "repro.bench")
    assert loaded_modules(cli_probe(["fig7"]), tmp_path, unwanted) == []


@pytest.fixture(scope="module")
def persisted(tmp_path_factory):
    """A records file, a SQLite store and a telemetry event log."""
    from repro.cli import main

    root = tmp_path_factory.mktemp("persisted")
    records, store = str(root / "smoke.jsonl"), str(root / "smoke.sqlite")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["campaign", "run", "smoke", "--seed", "1", "--jobs", "1",
                     "--events-dir", str(root / "events"),
                     "--out", records]) == 0
        assert main(["store", "export", records, store]) == 0
    return root


#: What the read-only commands over persisted files must never load.
SIMULATOR_MODULES = ("repro.verify.fuzz", "repro.verify.oracle", "repro.fleet",
                     "repro.campaign.backend", "repro.sim", "repro.schedulers",
                     "repro.bench")


@pytest.mark.parametrize("argv", [
    ["replay", "smoke.jsonl"],
    ["store", "verify", "smoke.sqlite"],
    ["store", "inspect", "smoke.sqlite"],
    ["telemetry", "summarize", "events/smoke-Baseline-seed1-seq0.jsonl"],
])
def test_read_only_command_loads_no_simulator(persisted, argv):
    assert loaded_modules(cli_probe(argv), persisted, SIMULATOR_MODULES) == []


def test_every_lazy_export_resolves(tmp_path):
    # A typo in a package's lazy map would otherwise fail only at the
    # first use of that one name.
    probe = (
        "import importlib\n"
        f"for name in {REPRO_PACKAGES!r}:\n"
        "    package = importlib.import_module(name)\n"
        "    listed = set(dir(package))\n"
        "    for export in package.__all__:\n"
        "        assert export in listed, (name, export)\n"
        "        getattr(package, export)\n"
    )
    assert loaded_modules(probe, tmp_path) == []


def test_execute_cell_imports_nothing_after_fork_point(tmp_path):
    # Forked workers inherit the parent's modules; an import first
    # reached inside execute_cell would be paid again by every worker.
    probe = (
        "import sys\n"
        "import repro.campaign.backend as backend\n"
        "from repro.campaign.runner import CampaignRunner\n"
        "from repro.campaign.scenario import get_scenario\n"
        "cells = CampaignRunner(jobs=1).cells_for(get_scenario('smoke'))\n"
        "before = set(sys.modules)\n"
        "for cell in cells:\n"
        "    backend.execute_cell(cell)\n"
        "added = sorted(m for m in set(sys.modules) - before\n"
        "               if m.split('.')[0] == 'repro')\n"
        "assert not added, added\n"
    )
    assert loaded_modules(probe, tmp_path) == []


def _cli_json(argv, cwd: Path):
    result = subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=cwd, env=fresh_env(),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_listings_name_every_registered_entry(tmp_path):
    # Registries are filled by the modules that read them, not by a
    # package __init__, so a fresh interpreter still sees every entry.
    import repro.fleet.scenarios  # noqa: F401  (the built-in definitions)
    from repro.campaign import SYSTEM_REGISTRY, scenario_names
    from repro.fleet import fleet_scenario_names

    campaigns = _cli_json(["campaign", "list", "--json"], tmp_path)
    assert [entry["name"] for entry in campaigns] == scenario_names()
    systems = {name for entry in campaigns for name in entry["systems"]}
    assert systems == set(SYSTEM_REGISTRY)
    fleets = _cli_json(["fleet", "list", "--json"], tmp_path)
    assert [entry["name"] for entry in fleets] == fleet_scenario_names()


def test_setup_publishes_the_package_version(monkeypatch):
    # setup.py runs against a stand-in setuptools (a fresh venv may lack
    # the real one) that records what it would publish.
    import repro

    published = {}
    fake = types.ModuleType("setuptools")
    fake.setup = published.update
    fake.find_packages = lambda **_: []
    monkeypatch.setitem(sys.modules, "setuptools", fake)
    runpy.run_path(str(ROOT / "setup.py"))
    assert published["version"] == repro.__version__


@pytest.mark.parametrize("argv", [
    ["fleet", "run", "fleet-smoke", "--seed", "1", "--out", "fleet.jsonl"],
    ["fig8", "--apps", "16"],
])
def test_command_loads_no_heavy_deps(tmp_path, argv):
    assert loaded_modules(cli_probe(argv), tmp_path) == []


@pytest.mark.parametrize("argv", [
    ["campaign", "run", "smoke", "--jobs", "2", "--out", "smoke.jsonl"],
    ["fleet", "run", "fleet-smoke", "--jobs", "2", "--out", "fleet.jsonl"],
])
def test_pooled_command_loads_no_pool_machinery(tmp_path, argv):
    # The parallel backend forks its own workers; the stdlib pools cost
    # import time and RSS on every pooled command.
    assert loaded_modules(cli_probe(argv), tmp_path, POOL_MODULES) == []
