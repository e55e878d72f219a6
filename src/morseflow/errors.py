"""Exception hierarchy shared across the package.

Two broad families matter for callers: `InputError` for malformed files or
arguments, and `ValidationFailure` for data that parses fine but violates a
mathematical contract.  The command line maps them to exit codes 1 and 2.
"""


class MorseflowError(Exception):
    """Base class for all package-specific errors."""


class InputError(MorseflowError):
    """Malformed input data, files, or arguments."""


class ValidationFailure(MorseflowError):
    """A mathematical validity condition failed."""


# -- exact linear algebra ---------------------------------------------------

class DimensionMismatchError(ValidationFailure):
    """Matrix shapes are incompatible for the requested operation."""


class CompositeNonzeroError(ValidationFailure):
    """Two consecutive boundary maps do not compose to zero."""


# -- composition category and realizations ----------------------------------

class SourceTargetMismatchError(ValidationFailure):
    """Attempted to compose morphisms whose endpoints do not match."""


class IndexRangeError(ValidationFailure):
    """An integer parameter lies outside its admissible range."""


class BoundaryCompositeError(CompositeNonzeroError):
    """Chain complex data with a nonzero two-step boundary composite."""


class TotalDifferentialSquareError(ValidationFailure):
    """The total differential of a filtered object fails to square to zero."""


# -- corner structures ------------------------------------------------------

class NegativeCoordinateError(ValidationFailure):
    """A corner-model point has a negative coordinate."""


class NotComparableError(ValidationFailure):
    """The requested objects are not related in the category's partial order."""


# -- flow categories --------------------------------------------------------

class InvalidFlowCategoryError(ValidationFailure):
    """Flow category data violates the categorical axioms."""


class IncoherentOrientationError(ValidationFailure):
    """Sign data fails the interval cancellation condition."""


class NegativeRelativeIndexError(ValidationFailure):
    """A base object choice produced negative gradings in strict mode."""


# -- numerical Morse analysis -----------------------------------------------

class NotMorseError(ValidationFailure):
    """A critical point has a (numerically) degenerate second derivative."""


class EulerMismatchError(ValidationFailure):
    """The critical point list is incomplete or inconsistent with the torus.

    Raised when the certificate cannot show that every critical point lies
    near a listed one, when two listed points share a ball that holds at
    most one, or when the signed counts fail to cancel.
    """


class MorseSmaleViolationError(ValidationFailure):
    """Observed flow behaviour is incompatible with generic transversality."""


class IntegrationFailureError(ValidationFailure):
    """A gradient trajectory could not be integrated to rest."""


class UnmatchedEndpointError(ValidationFailure):
    """A one-parameter family boundary matches no known rigid flow."""
