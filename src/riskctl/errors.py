"""Exception types shared across the riskctl package."""

from __future__ import annotations


class RiskctlError(Exception):
    """Base class for all riskctl errors."""


class UnknownLabelError(RiskctlError):
    """A label code is not defined for the requested parameter."""


class IncompleteVectorError(RiskctlError):
    """A scoring vector is missing one or more parameters."""


class UnknownScoreSetError(RiskctlError):
    """A score source name does not match any score set in the model."""


class MissingVectorError(RiskctlError):
    """Formula-based scoring was requested but the model carries no vectors."""


class UnknownPathError(RiskctlError):
    """An attack-path id does not exist in the model."""


class InvalidConfigError(RiskctlError, ValueError):
    """A configuration or model value breaks one of its rules.

    ``field`` names the rejected attribute: a field name (such as an
    ``AnalysisConfig`` field or a score set's domain code), a tuple of
    names and indices such as ``("paths", 1, "id")``, or None for the
    object as a whole.  Document parsing turns it into the field path of
    a :class:`ValidationError`.
    """

    def __init__(self, message: str, field: str | tuple | None = None):
        super().__init__(message)
        self.field = field


class EmptyPathError(InvalidConfigError):
    """An attack path has no stages."""


class UnreachableTargetError(RiskctlError):
    """The target state cannot be reached (some forward probability is zero)."""


class NumericalError(RiskctlError):
    """A matrix that is not finite or not birth-death, or an overflow."""


class DocumentError(RiskctlError):
    """Base class for threat-model document problems."""


class DocumentSyntaxError(DocumentError):
    """The threat-model document is not well-formed JSON."""


class ValidationError(DocumentError):
    """The document parsed but violates the model schema.

    ``path`` holds the dotted location of the offending field, e.g.
    ``paths[2].stages[0].domain``.
    """

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
