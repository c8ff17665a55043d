"""Exact-round-trip JSON codec for trial results.

The one codec of the sqlite :class:`~repro.store.result_store.ResultStore`:
a trial result encodes to JSON and decodes back to an equal object.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any

__all__ = ["decode_result", "encode_result"]


def encode_result(value: Any) -> Any:
    """Encode one trial result as a JSON-able document.

    Supports the closed set of shapes trial runners return: primitives,
    lists, string-keyed dicts, tuples, and dataclasses of those (e.g.
    :class:`~repro.core.runner.ElectionResult`).  Floats round-trip exactly
    (JSON carries the shortest-repr form), which is what makes resumed
    aggregates bit-identical.  Raises ``TypeError`` for anything else, which
    callers treat as "this result is not journalable".
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        cls = type(value)
        return {
            "__kind__": "dataclass",
            "type": f"{cls.__module__}:{cls.__qualname__}",
            "fields": {
                f.name: encode_result(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [encode_result(item) for item in value]}
    if isinstance(value, list):
        return [encode_result(item) for item in value]
    if isinstance(value, dict):
        if "__kind__" in value or not all(isinstance(key, str) for key in value):
            raise TypeError(f"cannot journal dict with non-string or reserved keys: {value!r}")
        return {key: encode_result(item) for key, item in value.items()}
    raise TypeError(f"cannot journal result of type {type(value).__name__}")


def decode_result(payload: Any) -> Any:
    """Inverse of :func:`encode_result`."""
    if isinstance(payload, list):
        return [decode_result(item) for item in payload]
    if isinstance(payload, dict):
        kind = payload.get("__kind__")
        if kind == "tuple":
            return tuple(decode_result(item) for item in payload["items"])
        if kind == "dataclass":
            module_name, _, qualname = payload["type"].partition(":")
            target: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                target = getattr(target, part)
            if not dataclasses.is_dataclass(target):
                raise ValueError(f"journal names a non-dataclass type {payload['type']!r}")
            fields = {key: decode_result(item) for key, item in payload["fields"].items()}
            return target(**fields)
        if kind is not None:
            raise ValueError(f"unknown journal payload kind {kind!r}")
        return {key: decode_result(item) for key, item in payload.items()}
    return payload
