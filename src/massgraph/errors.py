"""Exception hierarchy for the massgraph package.

Everything raised by the library derives from :class:`MassGraphError`, so
callers (and the CLI) can distinguish domain failures from programming
errors with a single except clause.
"""

from __future__ import annotations


class MassGraphError(Exception):
    """Base class for every error this package raises; ``path`` names the input a rule refused."""

    def __init__(self, message: str, *, path: str | None = None):
        super().__init__(message)
        self.path = path


def named(path: str, rule, *args):
    """``rule(*args)``, whose :class:`MassGraphError` names ``path``."""
    try:
        return rule(*args)
    except MassGraphError as err:
        err.path = path
        raise


class KernelDomainError(MassGraphError):
    """Kernel input outside the accepted domain (x = 0 or x > 1)."""


class ParameterError(MassGraphError):
    """Invalid kernel parameters, grid bounds, or scenario configuration."""


class InputError(MassGraphError):
    """A mass or weight is not a number > 1, a prune threshold is not a
    finite number, or a label is not a string."""


class DiagonalError(InputError):
    """An edge was given identical endpoints (self-loops are forbidden)."""


class DuplicateEdgeError(InputError):
    """A second edge was requested for an already-connected pair."""


class NodeLookupError(MassGraphError):
    """A node id is unknown, or refers to a deleted node."""


class SequencingError(MassGraphError):
    """A transition was applied to a state in the wrong phase."""


class GenerationError(MassGraphError):
    """Random scenario generation could not place a requested event."""


class ScriptError(MassGraphError):
    """A script or history document failed to parse or validate.

    ``path`` points at the offending JSON element ("initial.edges[0]");
    ``line``/``column`` are set instead when the bytes are not valid JSON.
    """

    def __init__(self, message: str, *, path: str | None = None,
                 line: int | None = None, column: int | None = None):
        super().__init__(message, path=path)
        self.line = line
        self.column = column


class SimulationError(MassGraphError):
    """A run aborted; carries the phase index and offending event."""

    def __init__(self, message: str, *, phase: int, event: object = None):
        super().__init__(message)
        self.phase = phase
        self.event = event
