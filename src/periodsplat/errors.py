"""Exception types shared across the package."""


class PeriodSplatError(Exception):
    """Base class for all errors raised by this package."""


class OutOfRange(PeriodSplatError):
    """A scalar argument lies outside its valid interval."""


class ShapeMismatch(PeriodSplatError):
    """Array arguments have inconsistent shapes."""


class EmptyPointCloud(PeriodSplatError):
    """No points were supplied where at least one is required."""


class MissingForwardState(PeriodSplatError):
    """A backward pass was requested without the retained forward state."""


class TooSmall(PeriodSplatError):
    """An image is smaller than the metric window."""


class ParseError(PeriodSplatError):
    """A text file could not be parsed.

    Carries the offending path and 1-based line number when known.
    """

    def __init__(self, message, path=None, line=None):
        if path is not None and line is not None:
            message = f"{path}:{line}: {message}"
        elif path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.path = path
        self.line = line


class MissingFile(PeriodSplatError):
    """A required input file does not exist."""


class UnsupportedCameraModel(PeriodSplatError):
    """cameras.txt names a camera model other than PINHOLE / SIMPLE_PINHOLE."""


class NonContiguousPeriods(PeriodSplatError):
    """Period ids in the manifest do not form a contiguous 0..T-1 set."""


class UnknownImage(PeriodSplatError):
    """The period manifest names an image absent from images.txt."""


class IoError(PeriodSplatError):
    """Reading or writing a file failed."""


class VersionMismatch(PeriodSplatError):
    """A checkpoint was written by an incompatible format version."""


class CorruptChecksum(PeriodSplatError):
    """A checkpoint is truncated or fails its CRC-32 check."""


class ConfigInvalid(PeriodSplatError):
    """A training configuration violates an invariant or names unknown keys."""


class EmptyDataset(PeriodSplatError):
    """A dataset contains no usable images."""


class SpecInvalid(PeriodSplatError):
    """A synthetic scene specification violates an invariant."""


class InternalError(PeriodSplatError):
    """An internal invariant was violated; indicates a bug."""
