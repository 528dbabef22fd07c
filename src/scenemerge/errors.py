"""Exception hierarchy for the scenemerge pipeline.

Every error raised by this package derives from SceneMergeError so callers
can catch one type at the boundary. The CLI maps subtrees to exit codes:
configuration problems exit 2, data problems exit 3, divergence exits 4.
"""


class SceneMergeError(Exception):
    """Base class for all scenemerge errors."""


class ConfigError(SceneMergeError):
    """Invalid configuration value or flag combination."""


class DataError(SceneMergeError):
    """Invalid, missing, or corrupt input data."""


class InvalidSimilarityError(DataError):
    """Similarity matrix is not square, symmetric, unit-diagonal, or in [0, 1]."""


class InvalidPoseError(DataError):
    """Rotation is not orthonormal or a pose field has the wrong shape."""


class SchemaViolationError(DataError):
    """A serialized file does not match its documented layout."""


class UnsupportedVersionError(DataError):
    """A serialized file declares a format version this build cannot read."""


class DataCorruptionError(DataError):
    """A serialized file is structurally valid but its payload is damaged."""


class MissingFrameError(DataError):
    """A referenced frame id is absent from the manifest or cluster."""


class DegenerateGeometryError(DataError):
    """Point configuration does not constrain the requested transform."""


class InsufficientOverlapError(DataError):
    """Two clusters share too few frames or correspondences to align."""


class GenerationFailureError(DataError):
    """Synthetic scene generation could not satisfy visibility requirements."""


class DivergenceError(SceneMergeError):
    """Optimization produced a non-finite loss or gradient.

    Attributes:
        iteration: zero-based iteration index at which divergence was detected.
    """

    def __init__(self, message: str, iteration: int):
        super().__init__(message)
        self.iteration = iteration
