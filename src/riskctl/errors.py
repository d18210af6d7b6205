"""Exception types shared across the riskctl package, and the one type check."""

from __future__ import annotations


class RiskctlError(Exception):
    """Base class for all riskctl errors."""


class NotFoundError(RiskctlError):
    """A lookup found nothing: a parameter or label of the weight table,
    a vector's label, a score set, a vector, an attack path or a view
    domain."""


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


def _check_types(values: dict, **types) -> None:
    """Refuse, naming it, a value in ``values`` (a value object's
    ``vars`` or a function's arguments) that is not of its type in
    ``types``: a class, a tuple of classes, or ``[kind]`` for a tuple
    whose every item is of ``kind``, an item being named by its index.
    A bool is of no type but bool (``True`` is an int)."""
    for name, kind in types.items():
        if isinstance(kind, list):
            _check_types(values, **{name: tuple})
            for i, item in enumerate(values[name]):
                _check_type(item, kind[0], (name, i), "")
        else:
            _check_type(values[name], kind, name, f"{name}: ")


def _check_type(value, kind, field, prefix: str) -> None:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
        what = " or ".join(k.__name__ for k in kinds)
        raise InvalidConfigError(f"{prefix}expected {what}, got {value!r}", field)


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
