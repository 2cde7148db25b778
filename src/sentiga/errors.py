"""Exception hierarchy shared across the toolkit.

Each class carries how the CLI reports it: `kind` prefixes the message and
`exit_code` is the process's exit status; README's exit-code table lists
them. The CLI reports a plain OSError as a BundleError. The message says
which check failed; no narrower class exists, as no caller tells one apart.
"""


class SentigaError(Exception):
    """Base class for all toolkit errors; raised as is, a usage error."""
    kind, exit_code = "usage", 2


class DataError(SentigaError):
    """Problem with input data, schema, or configuration of a fit."""
    kind, exit_code = "data", 3


class TrainingError(SentigaError):
    """A classifier could not be trained."""
    kind, exit_code = "training", 4


class BundleError(SentigaError):
    """A model bundle could not be read or written."""
    kind, exit_code = "i/o", 5
