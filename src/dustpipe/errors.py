"""Exception types shared across the pipeline."""


class DustpipeError(Exception):
    """Base class for all errors raised by this package."""


class BadMagicError(DustpipeError):
    """File does not start with the expected container magic."""


class TruncatedFileError(DustpipeError):
    """Container header is short, or declares a size the file does not have."""


class FormatError(DustpipeError, ValueError):
    """Container contents violate the format contract (bad dims, bad names),
    or a granule holds values the model does not take."""


class ShapeMismatchError(DustpipeError):
    """Tensor shapes do not match the expected architecture."""


class IndexMismatchError(DustpipeError):
    """A patch-center triplet does not fit the store it is applied to."""


class EmptyDatasetError(DustpipeError):
    """An operation that needs at least one sample received none."""


class TrainingDivergedError(DustpipeError):
    """Training aborted because the loss became non-finite."""
