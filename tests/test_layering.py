"""Layering: the seed oracles stay out of the production namespaces.

The seed's sweep simulators (:mod:`repro.fuzz.reference`) and BDD
manager (:mod:`repro.bdd.legacy`) are differential references for the
tests, benchmarks and the fuzzer.  No production module may import
them, directly or through a package re-export.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
ORACLES = {"repro.fuzz.reference", "repro.bdd.legacy"}


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
