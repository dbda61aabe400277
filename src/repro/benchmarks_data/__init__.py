"""Bundled benchmark circuits.

Every Table 1 / Table 2 name from the paper is backed by a hand-authored
STG in ``stg/*.g`` (the original Petrify/SIS suite is not redistributable
offline; see DESIGN.md §2 and §6 for the substitution rationale).  The
figure-1 example circuits ship as ``.net`` netlists in ``net/``.

Use :func:`load_benchmark` / :func:`load_benchmark_stg` /
:func:`benchmark_names` — they are re-exported at the package top level.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "repro.benchmarks_data.registry": (
        "TABLE1_NAMES", "TABLE2_NAMES", "FIGURE_NETS", "benchmark_names",
        "benchmark_path", "load_benchmark", "load_benchmark_stg", "load_figure_circuit",
    ),
}

__all__, __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
