"""Exception types shared across the riskctl package, and the one type check."""

from __future__ import annotations

from collections.abc import Mapping


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
    ``types``: a class, a tuple of classes, ``[kind]`` for a tuple
    whose every item is of ``kind``, an item being named by its index,
    or ``{key_kind: kind}`` for a mapping whose every key is of
    ``key_kind`` and every value of ``kind``, both named by the key.
    A bool is an int only where bool is a kind too (``True`` is an
    int)."""
    for name, kind in types.items():
        if isinstance(kind, list):
            _check_types(values, **{name: tuple})
            for i, item in enumerate(values[name]):
                _check_type(item, kind[0], (name, i), "")
        elif isinstance(kind, dict):
            _check_types(values, **{name: Mapping})
            [(key_kind, value_kind)] = kind.items()
            for key, value in values[name].items():
                _check_type(key, key_kind, (name, key), "")
                _check_type(value, value_kind, (name, key), "")
        else:
            _check_type(values[name], kind, name, f"{name}: ")


def _check_type(value, kind, field, prefix: str) -> None:
    kinds = kind if isinstance(kind, tuple) else (kind,)
    wrong_bool = isinstance(value, bool) and int in kinds and bool not in kinds
    if not isinstance(value, kinds) or wrong_bool:
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
