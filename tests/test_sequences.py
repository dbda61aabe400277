"""Test-sequence containers and the errors module."""

from repro import errors
from repro.benchmarks_data import load_benchmark
from repro.circuit.faults import input_fault_universe
from repro.core.sequences import Test, TestSet


def test_test_formatting():
    circuit = load_benchmark("celem" if False else "hazard", "complex")
    t = Test((0b1, 0b0), source="random")
    assert t.format_patterns(circuit) == ["1", "0"]
    assert len(t) == 2


def test_testset_accounting():
    circuit = load_benchmark("hazard", "complex")
    faults = input_fault_universe(circuit)
    ts = TestSet(circuit)
    ts.add(Test((1,), faults[:2]))
    ts.add(Test((1, 0), faults[2:3]))
    assert len(ts) == 2
    assert ts.n_vectors == 3
    assert [f for t in ts for f in t.faults] == faults[:3]
    assert [len(t) for t in ts] == [1, 2]


def test_error_hierarchy():
    for exc in (
        errors.NetlistError,
        errors.ParseError,
        errors.SimulationError,
        errors.StateGraphError,
        errors.StgError,
        errors.ConsistencyError,
        errors.SafenessError,
        errors.CscError,
        errors.SynthesisError,
        errors.BddError,
    ):
        assert issubclass(exc, errors.ReproError)
    assert issubclass(errors.ConsistencyError, errors.StgError)
    assert issubclass(errors.CscError, errors.StgError)


def test_parse_error_position_formatting():
    err = errors.ParseError("boom", "file.g", 12)
    assert str(err) == "file.g:12: boom"
    assert err.filename == "file.g" and err.line == 12
    bare = errors.ParseError("boom")
    assert str(bare) == "boom"


def test_public_api_surface():
    import importlib
    import pkgutil

    import fuzzer
    import repro

    assert repro.__version__ == "1.0.0"
    # Every ``__all__`` name of every repro module (and of the
    # test-side fuzzer package) resolves, so a deletion cannot leave a
    # dangling re-export behind.
    modules = [repro] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    assert sum(hasattr(m, "__all__") for m in modules) >= 24
    modules += [fuzzer] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(fuzzer.__path__, "fuzzer.")
        if info.name != "fuzzer.__main__"  # importing it runs the driver
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    dangling = [
        f"{m.__name__}.{name}"
        for m in exporting
        for name in m.__all__
        if not hasattr(m, name)
    ]
    assert dangling == []
