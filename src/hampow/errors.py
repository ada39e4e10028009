"""Exception hierarchy shared across the package."""


class HampowError(Exception):
    """Base class for all package errors."""


class GraphFormatError(HampowError):
    """Malformed input in a declared serialization format."""


class GraphValidationError(HampowError):
    """A structural invariant of a multipartite graph (or argument) is violated."""


class ImproperOrderError(HampowError):
    """A sequence is not properly ordered; the message names the first
    offending breakpoint."""


class InfeasibleError(HampowError):
    """An exact arithmetic precondition cannot be satisfied on this instance,
    such as the constructive builder's vertex accounting at this size."""


class SearchExhaustedError(HampowError):
    """A search found nothing: an exact search that ended empty (a proof that
    none exists), or a randomized routine that ran out of its retries."""


class BudgetExhaustedError(SearchExhaustedError):
    """An exact search ran out of its node budget: it proved neither yes nor no."""


class CoverageError(HampowError):
    """Absorber coverage shortfall: no gadget could be embedded, or a vertex
    of the leftover r-set lies outside its part's cover, so the gadget
    cannot absorb it."""


class VerificationError(HampowError):
    """A computed result failed its own exact correctness check."""
