"""Config dataclasses to and from JSON: one strict reader and one writer.

JSON keys are the field names, renamed by an optional class constant
``JSON_KEYS``.  This module imports nothing from the package.
"""

from __future__ import annotations

import contextlib
import numbers
import types
import typing
from dataclasses import MISSING, fields, is_dataclass


def json_keys(cls) -> dict:
    """The fields of dataclass ``cls`` by JSON key."""
    renamed = getattr(cls, "JSON_KEYS", {})
    return {renamed.get(f.name, f.name): f for f in fields(cls)}


def to_json(obj):
    """``obj`` as JSON data: a dataclass as an object, a tuple as a list."""
    if is_dataclass(obj):
        return {key: to_json(getattr(obj, f.name)) for key, f in json_keys(obj).items()}
    if isinstance(obj, (tuple, list)):
        return [to_json(item) for item in obj]
    return obj


def from_json(tp, doc, where: str, key: str | None = None):
    """``doc`` read as a value of annotation ``tp``; inverse of :func:`to_json`.

    A missing key takes the field default.  A missing required key, an
    unknown key or a value its annotation does not admit raises
    ``ValueError`` naming ``where`` and ``key``: ``solver key 'nu' must be
    a number, got 'abc'``.  A nested object is named by its key, item k of
    a list by ``key[k]``, and a union reports its first member's error.
    """
    if is_dataclass(tp):
        where = key or where
        if not isinstance(doc, dict):
            raise ValueError(f"{where} must be an object, got {doc!r}")
        by_key = json_keys(tp)
        if unknown := sorted(set(doc) - set(by_key)):
            raise ValueError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
        if missing := [k for k, f in by_key.items() if k not in doc
                       and f.default is MISSING and f.default_factory is MISSING]:
            raise ValueError(f"missing {where} key(s): {', '.join(map(repr, missing))}")
        hints = typing.get_type_hints(tp)
        return tp(**{f.name: from_json(hints[f.name], doc[k], where, k)
                     for k, f in by_key.items() if k in doc})
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):
        for arm in args[1:]:
            with contextlib.suppress(ValueError):
                return from_json(arm, doc, where, key)
        return from_json(args[0], doc, where, key)
    if origin is tuple:
        variadic = args[1:] == (...,)
        if isinstance(doc, (list, tuple)) and (variadic or len(args) == len(doc)):
            arms = args[:1] * len(doc) if variadic else args
            return tuple(from_json(arm, item, where, f"{key}[{k}]")
                         for k, (arm, item) in enumerate(zip(arms, doc)))
        ok, kind = False, "a list" if variadic else f"a list of {len(args)}"
    elif origin is typing.Literal:
        ok, kind = doc in args, " or ".join(map(repr, args))
    elif tp in (int, float):
        number = isinstance(doc, numbers.Real) and not isinstance(doc, bool)
        ok = number and (tp is float or isinstance(doc, numbers.Integral))
        kind = "an integer" if number else "a number"
    else:
        ok, kind = isinstance(doc, tp), {bool: "a boolean", str: "a string"}.get(tp, "null")
    if not ok:
        raise ValueError(f"{where} key {key!r} must be {kind}, got {doc!r}")
    return doc
