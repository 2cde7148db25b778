"""Exception hierarchy shared across the toolkit.

The CLI maps these onto exit codes: DataError -> 3, TrainingError -> 4,
BundleError (and plain OSError) -> 5.
"""


class SentigaError(Exception):
    """Base class for all toolkit errors."""


class DataError(SentigaError):
    """Problem with input data, schema, or configuration of a fit."""


class SchemaError(DataError):
    """A required CSV column could not be resolved."""


class RowParseError(DataError):
    """A cell in a data row could not be parsed."""

    def __init__(self, row: int, message: str):
        super().__init__(f"row {row}: {message}")
        self.row = row


class UnmappedLabelError(DataError):
    """A raw emotion label has no entry in the label map."""

    def __init__(self, label: str):
        super().__init__(f"unmapped raw label: {label!r}")
        self.label = label


class StratificationError(DataError):
    """A class is too small to stratify."""


class EmptyCorpusError(DataError):
    """A fit was attempted on an empty document collection."""


class EmptyVocabularyError(DataError):
    """Document-frequency pruning removed every candidate term."""


class EmptyEvaluationError(DataError):
    """An evaluation report was requested for an all-zero confusion matrix."""


class NegativeCountError(DataError):
    """A retweet or like count given for a post is negative."""


class ShapeMismatchError(DataError):
    """Matrix or vector dimensions do not line up."""


class TrainingError(SentigaError):
    """A classifier could not be trained."""


class DegenerateLabelsError(TrainingError):
    """Training data does not contain all three classes."""


class NonFiniteFeatureError(TrainingError):
    """Training features contain NaN or infinite values."""


class BundleError(SentigaError):
    """A model bundle could not be read or written."""


class UnsupportedVersionError(BundleError):
    """The bundle was written by a newer format version."""


class BundleIntegrityError(BundleError):
    """The bundle payload does not match its checksum, or its keys or array
    shapes are not those of a bundle."""
