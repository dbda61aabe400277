"""The documentation's examples must run: doctest over docs/ + README.

Every ``>>>`` snippet in the markdown guides and the README library
example executes against the real package, so the docs cannot rot —
CI additionally runs ``python -m doctest`` on the same files (the
``docs`` job), and this tier-1 copy catches breakage locally first.
"""

import doctest
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent

DOC_FILES = [
    "README.md",
    "docs/architecture.md",
    "docs/fault-models.md",
    "docs/formats.md",
    "docs/fuzzing.md",
    "docs/incremental.md",
    "docs/observability.md",
]


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_examples_execute(relpath):
    path = REPO / relpath
    assert path.exists(), f"{relpath} missing — update DOC_FILES"
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS,
        verbose=False,
    )
    assert results.failed == 0, f"{relpath}: {results.failed} doctest failures"


def test_docs_are_linked_from_readme():
    readme = (REPO / "README.md").read_text()
    for relpath in DOC_FILES[1:]:
        assert relpath in readme, f"README does not link {relpath}"
