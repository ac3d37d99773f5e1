"""JSON form and field-type checks shared by every config dataclass.

Config sections are frozen dataclasses whose modules use postponed
annotations, so each field's type is a string such as ``"int"`` or
``"tuple[float, float]"``.  Those strings are the one type ledger: they
decide how a field is written to JSON (tuples as lists, dates as ISO
strings), how it is read back, and which values ``check_field_types``
accepts.  ``bool`` is not an ``int`` here, and neither is ``2.5``.  A date
is read by ``parse_date`` alone, as exactly ``YYYY-MM-DD``.

``hashed_json`` gives every provenance file, which embeds these JSON forms,
its content hash and its bytes.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import numbers
import re
from dataclasses import fields

__all__ = ["check_field_types", "check_list", "from_json", "hashed_json", "parse_date", "to_json"]

# annotation -> (accepts a value, singular description, plural description)
_SCALARS = {
    "int": (
        lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool),
        "an integer",
        "integers",
    ),
    "float": (
        lambda v: isinstance(v, numbers.Real) and not isinstance(v, bool),
        "a number",
        "numbers",
    ),
    "bool": (lambda v: isinstance(v, bool), "true or false", "booleans"),
    "str": (lambda v: isinstance(v, str), "a string", "strings"),
    "dt.date": (lambda v: isinstance(v, dt.date), "an ISO date (YYYY-MM-DD)", "dates"),
}


_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(text: str) -> dt.date:
    """``text`` as a date when it is exactly ``YYYY-MM-DD``, else ValueError.

    ``date.fromisoformat`` alone also takes ``20210101`` and ``2021-W01-5``
    from Python 3.11 on, so what it accepts would depend on the Python version.
    """
    if _ISO_DATE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text)
        except ValueError:
            pass
    raise ValueError(f"bad date {text!r} (want YYYY-MM-DD)")


def check_list(value, kind: str, name: str) -> tuple:
    """``value`` as a tuple when it is a list of ``kind`` values (a key of the
    scalar ledger, ``"int"`` or ``"float"``), else ValueError naming ``name``."""
    accepts, _, plural = _SCALARS[kind]
    if not isinstance(value, list) or not all(accepts(v) for v in value):
        raise ValueError(f"{name} must be a list of {plural}, got {value!r}")
    return tuple(value)


def _items(annotation: str) -> list[str] | None:
    """Element annotations of a ``tuple[...]`` annotation, else None."""
    if not annotation.startswith("tuple["):
        return None
    return [item.strip() for item in annotation[len("tuple[") : -1].split(",")]


def to_json(cfg) -> dict:
    """Field values of ``cfg`` as JSON values: tuples become lists, dates ISO strings."""
    out = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        elif isinstance(value, dt.date):
            value = value.isoformat()
        out[f.name] = value
    return out


def hashed_json(payload: dict) -> tuple[dict, str]:
    """``payload`` plus the sha256 of its canonical JSON as ``config_sha256``,
    and that dict as the indented, sorted text a provenance file holds."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    hashed = {**payload, "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest()}
    return hashed, json.dumps(hashed, sort_keys=True, indent=2) + "\n"


def from_json(cls, raw: dict):
    """``cls`` built from ``to_json``'s form: lists become tuples and ISO strings
    become dates where the annotation asks for them.  Other values pass through
    unchanged for ``check_field_types`` to judge; unknown keys raise TypeError."""
    kwargs = dict(raw)
    for f in fields(cls):
        value = kwargs.get(f.name)
        if _items(f.type) is not None and isinstance(value, list):
            kwargs[f.name] = tuple(value)
        elif f.type == "dt.date" and isinstance(value, str):
            try:
                kwargs[f.name] = parse_date(value)
            except ValueError:
                raise ValueError(f"{f.name} must be {_SCALARS[f.type][1]}, got {value!r}") from None
    return cls(**kwargs)


def check_field_types(cfg, error: type[Exception]) -> None:
    """Raise ``error`` naming the first field whose value does not match its annotation.

    A ``tuple[...]`` field takes a tuple or a list of one element type:
    ``tuple[T, ...]`` of any length, ``tuple[T, T]`` of exactly that length.
    """
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        items = _items(f.type)
        if items is None:
            accepts, expected, _ = _SCALARS[f.type]
            ok = accepts(value)
        else:
            accepts, _, plural = _SCALARS[items[0]]
            variadic = items[-1] == "..."
            expected = f"a list of {plural}" if variadic else f"a list of {len(items)} {plural}"
            ok = (
                isinstance(value, (tuple, list))
                and (variadic or len(value) == len(items))
                and all(accepts(v) for v in value)
            )
        if not ok:
            raise error(f"{f.name} must be {expected}, got {value!r}")
