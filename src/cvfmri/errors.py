"""Exception hierarchy shared across the package.

Every error raised on purpose derives from :class:`CvfmriError` so the CLI can
map failures onto stable exit-code categories.
"""


class CvfmriError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(CvfmriError):
    """A user-supplied specification (stimulus, region, config) is invalid."""


class DegenerateDesignError(CvfmriError):
    """The experimental design cannot produce a usable regressor."""


class InsufficientDataError(CvfmriError):
    """Too few time points or kept draws for the requested operation."""


class SingularBasisError(CvfmriError):
    """The spatial basis is numerically singular; fewer, larger parcels avoid it."""


class DegeneratePosteriorError(CvfmriError):
    """A full conditional collapsed to an improper distribution."""


class UndefinedMetricError(CvfmriError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class DataFormatError(CvfmriError):
    """A dataset or map file failed to parse."""


class ShapeMismatchError(CvfmriError):
    """Two fields that must share a shape do not."""
