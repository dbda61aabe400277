"""Layering: the test oracles stay out of the production namespaces.

The fuzzer — generator, oracle pairs, shrinker, seed driver and the
seed's sweep simulators (``fuzzer.reference``), the differential
reference for the tests and benchmarks — is test infrastructure in
``tests/fuzzer``.  No module under ``src/`` may import it, and
``repro.fuzz`` keeps only the netlist mutators.  The seed BDD manager
is a test-only oracle (``tests/legacy_bdd.py``) and does not ship in
``repro`` at all; nor do the retired HTTP daemon and the ``repro-fuzz``
console script.

Start-up stays lean: the package facades are lazy, so ``import repro``
loads none of the subsystems, and a ``repro-atpg`` run loads neither
the BDD kernel, nor the campaign runner, nor ``multiprocessing``.
"""

import ast
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import repro
import repro.fuzz

SRC = Path(repro.__file__).resolve().parent
#: The test-side packages no production module may import.
ORACLES = {"fuzzer", "legacy_bdd"}


def _imported_modules(tree):
    """Every module an import statement in ``tree`` names, with
    ``from pkg import mod`` counted as ``pkg.mod``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def test_production_modules_do_not_import_the_seed_oracles():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        tree = ast.parse(path.read_text(), filename=str(path))
        for name in _imported_modules(tree):
            if any(name == o or name.startswith(o + ".") for o in ORACLES):
                offenders.append(f"{rel}: {name}")
    assert offenders == []
    assert importlib.util.find_spec("repro.bdd.legacy") is None
    # The HTTP daemon is retired: no package, and no console script.
    assert importlib.util.find_spec("repro.serve") is None
    # The live campaign dashboard is retired with the worker heartbeat.
    assert importlib.util.find_spec("repro.obs.dashboard") is None
    setup_py = Path(__file__).resolve().parent.parent / "setup.py"
    scripts = re.findall(r'"([\w-]+) = ([\w.]+):\w+"', setup_py.read_text())
    assert "repro-atpg" in dict(scripts)
    assert [s for s in scripts if s[1].startswith("repro.serve")] == []
    assert "repro-fuzz" not in dict(scripts)


def test_fuzzer_lives_with_the_tests():
    """The fuzzer left the package: ``repro.fuzz`` holds the netlist
    mutators alone, and imports nothing on its own."""
    for module in ("campaign", "generator", "oracles", "reference", "shrink"):
        assert importlib.util.find_spec(f"repro.fuzz.{module}") is None
    modules = [m.name for m in pkgutil.iter_modules(repro.fuzz.__path__)]
    assert modules == ["mutate"]
    init = ast.parse(Path(repro.fuzz.__file__).read_text())
    assert list(_imported_modules(init)) == []
    assert importlib.util.find_spec("fuzzer.driver") is not None


def _loaded_after(code):
    """The ``repro`` modules and ``multiprocessing`` that a fresh
    interpreter has loaded after running ``code``."""
    probe = (
        f"import sys\n{code}\n"
        "import json\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith("
        "('repro', 'multiprocessing')))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
    )
    return json.loads(out.stdout.splitlines()[-1])


def _under(modules, prefixes):
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_import_repro_loads_no_subsystem():
    loaded = _loaded_after("import repro")
    banned = ("repro.bdd", "repro.sgraph.symbolic", "repro.campaign", "repro.fuzz",
              "multiprocessing")
    assert _under(loaded, banned) == []


def test_atpg_run_loads_neither_bdd_nor_campaign_pool():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "import repro.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(['ebergen']) == 0"
    )
    assert "repro.flow.flow" in loaded  # the run did run
    banned = ("repro.bdd", "repro.campaign.runner", "repro.fuzz", "multiprocessing")
    assert _under(loaded, banned) == []
