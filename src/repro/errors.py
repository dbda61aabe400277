"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

from typing import Optional, Tuple


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetlistError(ReproError):
    """Malformed circuit construction (bad names, undriven signals...).

    ``source`` names the declaration at fault when there is one, so a
    parser can point at its line: ``("gate", name)``,
    ``("output", name)`` or ``("reset", "")``."""

    def __init__(self, message: str, source: Optional[Tuple[str, str]] = None):
        super().__init__(message)
        self.source = source


class ParseError(ReproError):
    """Error in a netlist (.net) or STG (.g) source file.

    The message names the file, and the line when one caused the error:
    ``file:line: message`` or ``file: message``.  Only a fragment parsed
    with no file at all (``filename=None``) gives the bare message."""

    def __init__(
        self, message: str, filename: Optional[str] = None, line: int = 0
    ):
        self.filename = filename
        self.line = line
        if filename is None:
            super().__init__(message)
        elif line:
            super().__init__(f"{filename}:{line}: {message}")
        else:
            super().__init__(f"{filename}: {message}")


class SimulationError(ReproError):
    """Simulation invoked with inconsistent state or options."""


class StateGraphError(ReproError):
    """TCSG/CSSG construction failure (unstable reset, explosion...)."""


class StgError(ReproError):
    """Semantic error in a signal transition graph.

    ``source`` names the element at fault when there is one, so the
    ``.g`` parser can point at its line: ``("transition", label)`` or
    ``("marking", "")``."""

    def __init__(self, message: str, source: Optional[Tuple[str, str]] = None):
        super().__init__(message)
        self.source = source


class ConsistencyError(StgError):
    """The STG fires s+ when s=1 or s- when s=0 on some reachable path."""


class SafenessError(StgError):
    """Token count on some place exceeds one (the net is not safe)."""


class CscError(StgError):
    """Complete State Coding violation: two reachable states share a
    binary code but disagree on the next-state function of an output."""


class SynthesisError(StgError):
    """Logic synthesis could not produce a circuit."""


class BddError(ReproError):
    """BDD manager misuse (foreign nodes, bad variable indices...)."""
