"""Exception hierarchy shared across the package."""


class HampowError(Exception):
    """Base class for all package errors."""


class GraphFormatError(HampowError):
    """Malformed input in a declared serialization format."""


class GraphValidationError(HampowError):
    """A structural invariant of a multipartite graph (or argument) is violated."""


class ImproperOrderError(HampowError):
    """A sequence is not properly ordered; carries the first offending breakpoint."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class InfeasibleError(HampowError):
    """An exact arithmetic precondition cannot be satisfied on this instance."""


class ScaleInfeasibleError(HampowError):
    """The constants of the construction do not fit at this instance size."""


class SearchExhaustedError(HampowError):
    """A randomized greedy/backtracking routine ran out of its retry budget."""


class CoverageError(HampowError):
    """Absorber coverage shortfall: no gadget could be embedded, or the
    leftover cannot be split among distinct gadgets that absorb it."""


class VerificationError(HampowError):
    """A computed result failed its own exact correctness check."""
