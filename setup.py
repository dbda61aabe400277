"""Packaging for the DAC'97 synchronous-ATPG reproduction.

Kept as a plain ``setup.py`` so ``pip install -e . --no-use-pep517``
works offline (the sandbox has setuptools but not the ``wheel``
package).  The bundled benchmark corpus (``benchmarks_data/stg/*.g``
STGs and ``benchmarks_data/net/*.net`` figure netlists) ships as
package data, and the CLI documented in :mod:`repro.cli` installs as
the ``repro-atpg`` console script.
"""

from setuptools import find_packages, setup

setup(
    name="repro-atpg",
    version="1.0.0",
    description=(
        "Synchronous test pattern generation for asynchronous circuits "
        "(Roig, Cortadella, Peña, Pastor — DAC 1997)"
    ),
    python_requires=">=3.8",
    # Standard library only: no runtime dependencies.
    install_requires=[],
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={
        "repro.benchmarks_data": ["stg/*.g", "net/*.net"],
    },
    include_package_data=True,
    entry_points={
        "console_scripts": [
            "repro-atpg = repro.cli:main",
            "repro-campaign = repro.cli:campaign_main",
            "repro-cache = repro.cli:cache_main",
            "repro-fuzz = repro.cli:fuzz_main",
        ],
    },
)
