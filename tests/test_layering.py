"""Layering: the seed oracles stay out of the production namespaces.

The seed's sweep simulators (:mod:`repro.fuzz.reference`) are the
differential reference for the tests, benchmarks and the ``repro-fuzz``
CLI, which ships them.  No production module may import them, directly
or through a package re-export.  The seed BDD manager is a test-only
oracle (``tests/legacy_bdd.py``) and does not ship in ``repro`` at all;
nor does the retired HTTP daemon.
"""

import ast
import importlib.util
import re
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ORACLES = {"repro.fuzz.reference"}


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
        if rel.parts[0] == "fuzz":
            continue
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
