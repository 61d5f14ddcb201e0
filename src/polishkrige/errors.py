"""Exception types shared across the package.

Every error carries a short machine-parseable ``category`` slug; the CLI
prints ``<category>: <message>`` and exits 1 so batch callers can dispatch
on the first token.
"""


class PolishKrigeError(Exception):
    """Base class for all domain errors raised by this package."""

    category = "error"


class DataError(PolishKrigeError):
    """Unreadable or malformed input data (bad CSV field, missing file)."""

    category = "bad-input"


class DuplicateLocationError(PolishKrigeError):
    """Two observations occupy the same location (or snap to the same cell)."""

    category = "duplicate-location"


class GridStructureError(PolishKrigeError):
    """A lattice or grid table violates its structural invariants."""

    category = "invalid-grid"


class SingularSystemError(PolishKrigeError):
    """A linear system was numerically singular.

    ``condition`` holds the reciprocal-condition estimate that triggered the
    failure (None when the system was structurally singular, e.g. duplicate
    points).
    """

    category = "singular-system"

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class ModelFormatError(PolishKrigeError):
    """A serialized model file is unreadable or has the wrong version/shape."""

    category = "bad-model"
