"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`CvfmriError`, and each type
carries the CLI's exit code for its kind of failure as ``exit_code``: 2 for a
bad setting, 3 for bad data or a bad file, 4 for a numerically degenerate fit.
"""


class CvfmriError(Exception):
    """Base class for all package errors; anything unexpected exits 1."""
    exit_code = 1


class InvalidSpecError(CvfmriError):
    """A user-supplied specification (stimulus, region, config) is invalid."""
    exit_code = 2


class DegenerateDesignError(CvfmriError):
    """The design settings leave no usable regressor (an all-off stimulus)."""
    exit_code = 2


class InsufficientDataError(CvfmriError):
    """A series too short for the requested operation."""
    exit_code = 3


class SingularBasisError(CvfmriError):
    """The parcel count makes the spatial basis singular; use fewer, larger parcels."""
    exit_code = 2


class DegeneratePosteriorError(CvfmriError):
    """A full conditional collapsed to an improper distribution (a constant voxel)."""
    exit_code = 4


class UndefinedMetricError(CvfmriError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""
    exit_code = 4


class DataFormatError(CvfmriError):
    """A dataset, map or config file failed to parse."""
    exit_code = 3


class ShapeMismatchError(CvfmriError):
    """Two fields that must share a shape do not."""
    exit_code = 2
