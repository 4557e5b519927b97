"""Exception hierarchy shared across the package.

Everything raised by the library derives from NormColourError so callers
(notably the CLI) can distinguish bad input from bugs.
"""


class NormColourError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateNormId(NormColourError):
    """Two norms in one graph share an identifier."""


class UnknownNormId(NormColourError):
    """An operation referenced a norm id that is not in the graph."""


class SelfConflict(NormColourError):
    """A conflict pair named the same norm twice."""


class IncompleteColouring(NormColourError):
    """A colouring does not assign a colour to every vertex."""


class UnknownColour(NormColourError):
    """A colour id outside the colouring's range was requested."""


class InvalidScore(NormColourError):
    """A policy gave a colour class a score that cannot be ranked (NaN or not a number)."""


class TooLarge(NormColourError):
    """The instance exceeds an exhaustive-search budget."""


class TooManyConflicts(NormColourError):
    """More conflicts requested than the graph size permits."""


class EmptyInput(NormColourError):
    """An aggregate operation received no data."""


class DocumentSyntaxError(NormColourError):
    """Input text is not well-formed JSON."""


class SchemaError(NormColourError, ValueError):
    """Input parsed but does not match the expected shape."""
