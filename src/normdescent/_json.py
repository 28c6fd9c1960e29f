"""The numbers of the JSON configs.

A config field that holds a number takes a JSON number: never a string,
which ``float`` and ``int`` would parse, and never a boolean, which Python
counts as an integer.  An integer field also takes an integral number
such as ``5.0``.
"""

from __future__ import annotations


def is_json_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_number(value) -> float:
    """float(value) for a JSON number; anything else raises TypeError, and an
    integer beyond the float range OverflowError."""
    if not is_json_number(value):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def json_int(value) -> int:
    """int(value) for a JSON integer or an integral number such as 5.0;
    anything else, a fraction included, raises TypeError."""
    if not is_json_number(value) or isinstance(value, float) and not value.is_integer():
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)
