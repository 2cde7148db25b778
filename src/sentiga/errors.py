"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: DataError -> 3, TrainingError -> 4,
BundleError (and plain OSError) -> 5. The message says which check failed;
a class exists only where some caller tells it apart.
"""


class SentigaError(Exception):
    """Base class for all toolkit errors."""


class DataError(SentigaError):
    """Problem with input data, schema, or configuration of a fit."""


class StratificationError(DataError):
    """A class is too small to stratify."""


class TrainingError(SentigaError):
    """A classifier could not be trained."""


class BundleError(SentigaError):
    """A model bundle could not be read or written."""
