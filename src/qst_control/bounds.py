"""Allowed values of the settings, declared once on the fields they limit.

A settings field declared with :func:`bounded` carries its bound in the
field's metadata.  :class:`Checked` dataclasses check every bounded field
when constructed; ``qst_control.config`` reads the same bounds to check a
config key and name it by its dotted path.

A bound is a :class:`Range` or a tuple of allowed strings; a list or tuple
value is bounded entry by entry, and a value of None (an unset optional)
passes.  Every number must also be finite.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple


class Range(NamedTuple):
    """Inclusive ``[low, high]``, None for an open end; ``positive`` also excludes 0."""

    low: float | None = None
    high: float | None = None
    positive: bool = False


COUNT = Range(1)
NONNEGATIVE = Range(0.0)
UNIT = Range(0.0, 1.0)
POSITIVE = Range(positive=True)
POSITIVE_UNIT = Range(high=1.0, positive=True)  # (0, 1]

_KEY = "bound"


def bounded(default, bound):
    """A dataclass field with ``bound`` in its metadata (MISSING: no default)."""
    return dataclasses.field(default=default, metadata={_KEY: bound})


def bound_of(f: dataclasses.Field):
    """The bound declared on a dataclass field, or None."""
    return f.metadata.get(_KEY)


def _value_error(path: str, message: str) -> ValueError:
    return ValueError(f"{path}: {message}")


def check(value, bound, path: str, error=_value_error) -> None:
    """Raise ``error(path, message)`` unless ``value`` is finite and within ``bound``."""
    if isinstance(value, (list, tuple)):
        for i, x in enumerate(value):
            check(x, bound, f"{path}[{i}]", error)
        return
    if value is None or (isinstance(value, str) and bound is None):
        return
    if bound is not None and not isinstance(bound, Range):
        if value not in bound:
            raise error(path, f"must be one of {list(bound)}, got {value!r}")
        return
    if not isinstance(value, int) and not math.isfinite(value):
        raise error(path, f"must be finite, got {value}")
    low, high, positive = bound or Range()
    if positive and not value > 0:
        raise error(path, f"must be positive, got {value}")
    if low is not None and value < low:
        raise error(path, f"must be at least {low}, got {value}")
    if high is not None and value > high:
        raise error(path, f"must be at most {high}, got {value}")


class Checked:
    """Dataclass mixin: construction checks every :func:`bounded` field."""

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            if (bound := bound_of(f)) is not None:
                check(getattr(self, f.name), bound, f.name)
