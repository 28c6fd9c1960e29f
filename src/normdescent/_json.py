"""The fields of the JSON configs.

A config field that holds a number takes a JSON number: never a string,
which ``float`` and ``int`` would parse, and never a boolean, which Python
counts as an integer.  An integer field also takes an integral number
such as ``5.0``.  Every config object is read by ``read_fields`` from a
table of its keys.
"""

from __future__ import annotations

REQUIRED = object()  # the default of a key the object must hold


def is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_number(value) -> float:
    """float(value) for a JSON number; anything else raises TypeError, and an
    integer beyond the float range OverflowError."""
    if not is_json_number(value):
        raise TypeError(f"must be a number, got {value!r}")
    return float(value)


def json_int(value) -> int:
    """int(value) for a JSON integer or an integral number such as 5.0;
    anything else, a fraction included, raises TypeError."""
    if not is_json_number(value) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"must be an integer, got {value!r}")
    return int(value)


def json_floats(value) -> tuple[float, ...]:
    """The floats of a JSON list of numbers; anything else raises TypeError,
    and an integer beyond the float range OverflowError."""
    if not isinstance(value, list) or not all(map(is_json_number, value)):
        raise TypeError(f"must be a list of numbers, got {value!r}")
    return tuple(map(float, value))


def read_fields(obj, what: str, fields: dict) -> dict:
    """The values of a config object, one per key of ``fields``.

    ``fields`` maps each key to ``(reader, default)``: a key the object
    holds is read by ``reader(value)``, which raises TypeError or
    OverflowError on a bad value (its message says what the value must
    be); a key it lacks takes ``default``, or is an error when the default
    is REQUIRED.  A non-object, an unknown key, a missing key or a bad
    value raises ValueError naming ``what`` or the key; a reader's own
    ValueError passes through.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be an object, got {type(obj).__name__}")
    unknown = obj.keys() - fields.keys()
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    values = {}
    for key, (reader, default) in fields.items():
        if key not in obj:
            if default is REQUIRED:
                raise ValueError(f"{what} requires {key!r}")
            values[key] = default
            continue
        try:
            values[key] = reader(obj[key])
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"{key!r} {exc}") from exc
    return values
