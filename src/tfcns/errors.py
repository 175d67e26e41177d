"""Exception types shared across the package."""


class TfcnsError(Exception):
    """Base class for every error raised by this package. ``exit_code`` is the
    command line's exit status: 1 for a runtime failure, 2 for a bad input."""
    exit_code = 1


class ShapeMismatch(TfcnsError):
    """Operands have incompatible shapes for the requested operation."""
    exit_code = 2


class NonFiniteValue(TfcnsError):
    """A forward computation produced NaN or Inf from finite inputs."""


class NotScalar(TfcnsError):
    """backward() was called on a tensor that is not a scalar."""


class DetachedTensor(TfcnsError):
    """backward() was called on a tensor that is not attached to a tape."""


class ConfigInvalid(TfcnsError):
    """A configuration value violates a structural constraint."""
    exit_code = 2


class ClassOutOfRange(TfcnsError):
    """A class index lies outside [0, num_classes)."""
    exit_code = 2


class EmptyMask(TfcnsError):
    """A surface-distance metric was asked to evaluate an empty mask."""


class FormatError(TfcnsError):
    """A serialized file is corrupt, truncated, or not in the expected format."""
    exit_code = 2


class VersionError(TfcnsError):
    """A serialized file carries an unsupported format version."""
    exit_code = 2

    def __init__(self, found: int, supported: int):
        super().__init__(f"file format version {found} is not supported "
                         f"(this build reads version {supported})")
        self.found = found
        self.supported = supported


class DatasetError(TfcnsError):
    """A dataset directory is malformed (orphan files, empty, unreadable)."""
    exit_code = 2


class NonFiniteLoss(TfcnsError):
    """Training produced a non-finite loss value and was aborted."""
