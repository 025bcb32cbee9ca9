"""The JSON input rule every spec loader reads through.

Platform, run, fault, job and chaos specs and SLO rule files are JSON
written by people, so each loader meets the same mistakes: a file that
is not JSON, a document that is not an object, a misspelt key, and a
value of the wrong type.  This module owns how each one is refused.
Every refusal is a :class:`~repro.errors.ConfigurationError` (the CLI's
``repro: error:``, exit 2), never a traceback, a coercion or a silent
default.

A field is read as one of six JSON kinds:

* ``string``, ``boolean``, ``object`` and ``list`` take exactly that
  JSON type;
* ``integer`` takes an integer, never a bool and never a float, even an
  integral one (``2.0``);
* ``number`` takes an integer or a float, never a bool, and only a
  finite value that fits a float: ``NaN``, ``Infinity`` and ``1e999``
  are refused.

A failure names the field by its dotted path from the document root,
in one shape::

    platform spec: 'tuning_overrides.tick_hz' must be a JSON number, got 'fast'

Range and registry checks (a probability in [0, 1], a known machine)
stay with each spec, and run after the type check.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
from collections.abc import Iterable, Mapping
from typing import Any

from .errors import ConfigurationError

__all__ = ["check", "document", "get", "parse", "read_text"]

#: Kind -> the Python types it takes (``integer`` and ``number`` also
#: refuse bools, and ``number`` refuses non-finite values).
_TYPES = {
    "string": str,
    "boolean": bool,
    "integer": int,
    "number": (int, float),
    "object": Mapping,
    "list": (list, tuple),
}

_REQUIRED = object()


def read_text(path: "str | os.PathLike", where: str) -> str:
    """The UTF-8 text of ``path``, or a refusal naming the file.

    A file that cannot be read or is not UTF-8 is refused."""
    try:
        return pathlib.Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(
            f"cannot read {where} {path}: {exc}") from None


def parse(text: str, where: str) -> Any:
    """The JSON value ``text`` holds, or a refusal (invalid JSON)."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"{where}: invalid JSON ({exc})") from None


def check(value: Any, kind: str, where: str, name: str) -> Any:
    """``value`` if it is a JSON ``kind``, or a refusal naming it.

    ``kind`` is a key of ``_TYPES``; ``name`` is the dotted path of the
    value in its document."""
    ok = isinstance(value, _TYPES[kind])
    if ok and kind in ("integer", "number"):
        ok = not isinstance(value, bool) \
            and (kind == "integer" or _finite(value))
    if not ok:
        raise ConfigurationError(
            f"{where}: {name!r} must be a JSON {kind}, got {value!r}")
    return value


def _finite(value: "int | float") -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def get(payload: Mapping, key: str, kind: str, where: str,
        default: Any = _REQUIRED, prefix: str = "") -> Any:
    """``payload[key]`` checked as a JSON ``kind`` (see :func:`check`).

    ``default`` stands in for an absent key; with no default, the key
    is required.  ``prefix`` is the dotted path of ``payload`` in its
    document (``"noise."``)."""
    value = payload.get(key, default)
    if value is _REQUIRED:
        raise ConfigurationError(
            f"{where}: {prefix + key!r} is required")
    return check(value, kind, where, prefix + key)


def document(payload: Any, where: str, known: Iterable[str],
             name: str = "", item: str = "field") -> Mapping:
    """``payload`` if it is a JSON object with no key outside ``known``.

    ``name`` is its dotted path when it is nested in a larger document;
    ``item`` is what a key is called in the refusal (``"rule"`` for SLO
    rules)."""
    if name:
        check(payload, "object", where, name)
    elif not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"{where} must be a JSON object, got {type(payload).__name__}")
    unknown = sorted(set(payload).difference(known))
    if unknown:
        if name:
            unknown = [f"{name}.{key}" for key in unknown]
        raise ConfigurationError(
            f"{where}: unknown {item}(s) {unknown} "
            f"(known: {sorted(known)})")
    return payload
