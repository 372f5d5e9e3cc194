"""Exception types shared across the pipeline."""


class PipelineError(Exception):
    """Base class for all cylpano errors."""


class IndexOutOfRangeError(PipelineError):
    """Voxel or bin index outside the grid spec, or class id outside the class table."""


class SpecMismatchError(PipelineError):
    """Two grids, masks, or image sets do not share a common shape/spec."""


class InsufficientInstancesError(PipelineError):
    """Donor scan has fewer instances than requested."""


class NoValidProjectionError(PipelineError):
    """No point of a voxel projects into the camera image."""


class LengthMismatchError(PipelineError):
    """Predicted and ground-truth labelings differ in point count."""


class DimensionMismatchError(PipelineError):
    """Feature vectors do not share the expected dimension."""


class BadMagicError(PipelineError):
    """Binary file does not start with the expected 4-byte magic."""


class TruncatedFileError(PipelineError):
    """Binary file ends before its declared payload."""


class ShapeMismatchError(PipelineError):
    """Declared shape of a binary payload is inconsistent."""


class BadConfigError(PipelineError):
    """Configuration file is malformed or references missing files."""


class ReplayMismatchError(PipelineError):
    """A replayed stage's inputs or outputs differ from those its manifest recorded."""
