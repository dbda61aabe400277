"""The lazy package facades (``repro._lazy``) keep the eager contract.

Every facade declares one export table from defining module to public
names; its ``__all__``, ``__getattr__`` and ``__dir__`` come from that
table.  A name read through a facade must be the defining module's own
object, star-imports must bind every name, and a missing name must
raise ``AttributeError`` like any module attribute.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

FACADES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and info.name != "repro.fuzz"  # holds a module, exports nothing
)


def test_every_subpackage_but_fuzz_is_a_lazy_facade():
    assert len(FACADES) == 13
    for name in FACADES:
        facade = importlib.import_module(name)
        assert facade.__all__, name
        assert facade.__getattr__.__module__ == "repro._lazy", name


@pytest.mark.parametrize("name", FACADES)
def test_exports_resolve_to_the_defining_modules_objects(name):
    facade = importlib.import_module(name)
    source = {n: module for module, names in facade._EXPORTS.items() for n in names}
    assert [n for n in facade.__all__ if n not in source] == (
        ["__version__"] if name == "repro" else []
    )
    for export, module in source.items():
        assert getattr(facade, export) is getattr(
            importlib.import_module(module), export
        ), f"{name}.{export}"


@pytest.mark.parametrize("name", FACADES)
def test_dir_and_star_import_cover_every_export(name):
    facade = importlib.import_module(name)
    assert set(facade.__all__) <= set(dir(facade))
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert [n for n in facade.__all__ if n not in namespace] == []


@pytest.mark.parametrize("name", FACADES)
def test_unknown_name_raises_attribute_error(name):
    facade = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        facade.no_such_name
    assert not hasattr(facade, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


@pytest.mark.parametrize("code", [
    "import repro.faultmodels as m; print(m.model_names())",
    "import repro; print(repro.model_names())",  # via the top-level facade
])
def test_builtin_fault_models_register_on_first_import(code):
    """Registration stays an import side effect of ``repro.faultmodels``,
    however the package is first reached (checked in a fresh process:
    tests here register and unregister models)."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent)),
    )
    assert out.stdout.strip() == "['bridging', 'input', 'output', 'transition']"


def test_submodules_resolve_as_facade_attributes():
    """A submodule not in the export table is still reachable as an
    attribute after a bare ``import repro`` (an eager facade bound it by
    importing it), and ``repro.core.random_tpg`` is always the module.
    Checked in a fresh process, so no earlier import has bound it."""
    code = (
        "import repro; "
        "assert repro.campaign.plan.expand.__module__ == 'repro.campaign.plan'; "
        "assert repro.sim.engine.SimEngine is repro.sim.SimEngine; "
        "assert repro.core.atpg.AtpgOptions is repro.AtpgOptions; "
        "assert repro.core.random_tpg.__name__ == 'repro.core.random_tpg'; "
        "import repro.sgraph as s; assert s.symbolic.__name__ == 'repro.sgraph.symbolic'"
    )
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parent.parent)),
    )
