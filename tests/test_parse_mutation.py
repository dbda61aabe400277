"""Seeded byte mutations of every bundled ``.g`` and ``.net`` file: the
loaders either accept the mutant or raise a :class:`ReproError` naming
the file, and the line whenever a line caused the error."""

import random
from pathlib import Path

import pytest

import repro.benchmarks_data as data
from repro.circuit.parser import load_netlist
from repro.errors import ParseError, ReproError
from repro.stg.parser import load_stg

DATA_DIR = Path(data.__file__).resolve().parent
SOURCES = sorted(DATA_DIR.glob("stg/*.g")) + sorted(DATA_DIR.glob("net/*.net"))
MUTANTS_PER_FILE = 60

#: Errors about the file as a whole, which no single line causes.
FILE_LEVEL = ("missing .marking", "circuit has no gates")

#: Bytes the format gives meaning to, drawn more often than the rest.
SYNTAX = b" \n\t#.=<>{}+-/,01~&|^()!abcxyzABC_"


def _mutate(data: bytes, rng: random.Random) -> bytes:
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        i = rng.randrange(len(data) + 1)
        byte = bytes([rng.choice(SYNTAX) if rng.random() < 0.8 else rng.randrange(256)])
        if op == 0:  # overwrite one byte
            data = data[:i] + byte + data[i + 1 :]
        elif op == 1:  # insert one byte
            data = data[:i] + byte + data[i:]
        elif op == 2:  # delete one byte
            data = data[:i] + data[i + 1 :]
        else:  # delete or duplicate one line
            lines = data.split(b"\n")
            j = rng.randrange(len(lines))
            if op == 3:
                del lines[j]
            else:
                lines.insert(j, lines[j])
            data = b"\n".join(lines)
    return data


def test_the_sweep_covers_every_bundled_source():
    assert len(SOURCES) == 25


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_mutants_fail_with_file_and_line(source, tmp_path):
    load = load_stg if source.suffix == ".g" else load_netlist
    original = source.read_bytes()
    path = tmp_path / source.name
    failures = 0
    for i in range(MUTANTS_PER_FILE):
        rng = random.Random(f"parse-mutation:{source.name}:{i}")
        path.write_bytes(_mutate(original, rng))
        try:
            load(path)
        except ReproError as exc:
            failures += 1
            message = str(exc)
            assert isinstance(exc, ParseError), (i, message)
            assert message.startswith(f"{path}:"), (i, message)
            if exc.line:
                assert message.startswith(f"{path}:{exc.line}: "), (i, message)
            else:
                assert message[len(f"{path}: "):].startswith(FILE_LEVEL), (
                    i,
                    message,
                )
    assert failures, "no mutant was rejected: the sweep tests nothing"
