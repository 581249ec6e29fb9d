"""The one wire decoder: JSON-shaped mappings into the package's dataclasses.

Every ``from_dict`` decodes through :func:`decode`, by the rules in
``docs/architecture.md`` (*Wire formats*).  A format's declaration is the
dataclass itself, its fields and annotations, resolved once per class; a
class whose wire form differs from its fields says how in a :class:`Wire`
bound to its ``_wire`` attribute.  Every failure raises the caller's
:class:`~repro.errors.ReproError` subclass naming the field path, e.g.
``trace.jobs[3].kernels must be an integer, got 2.5``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import types
import typing
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Any, Callable

from repro.errors import ReproError

__all__ = ["Wire", "decode", "read", "from_dict", "save_json", "load_json", "require_count",
           "require_real"]

#: ``(value, path, error) -> decoded value``; raises ``error`` naming ``path``.
Decoder = Callable[[Any, str, "type[ReproError]"], Any]


def _fail(error: "type[ReproError]", path: str, expected: str, value: Any) -> ReproError:
    shown = repr(value)
    shown = shown if len(shown) <= 80 else shown[:77] + "..."
    return error(f"{path} must be {expected}, got {shown}")


def require_count(value: Any, path: str, error: "type[ReproError]") -> int:
    """``value`` as an ``int``: integers (NumPy's too) only, no bool or float."""
    if type(value) is int:  # the JSON case, without the ABC checks
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise _fail(error, path, "an integer", value)
    return int(value)


def require_real(value: Any, path: str, error: "type[ReproError]") -> float:
    """``value`` as a finite ``float``: any real but a bool, NaN or ±inf."""
    if type(value) is float and math.isfinite(value):  # the JSON case, fast
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if math.isfinite(result := float(value)):
                return result
        except OverflowError:  # an int beyond the float range
            pass
    raise _fail(error, path, "a finite number", value)


def _typed(kind: type, expected: str) -> Decoder:
    def decode_typed(value: Any, path: str, error: "type[ReproError]") -> Any:
        if isinstance(value, kind):
            return value
        raise _fail(error, path, expected, value)

    return decode_typed


def _array(items: "list[Decoder]", build: type, fixed: bool = False) -> Decoder:
    """Arrays of ``items[0]``, or (``fixed``) of exactly ``items``."""

    def decode_array(value: Any, path: str, error: "type[ReproError]") -> Any:
        if not isinstance(value, (list, tuple)) or (fixed and len(value) != len(items)):
            raise _fail(error, path, f"an array of {len(items)}" if fixed else "an array", value)
        decoded = [
            items[index if fixed else 0](entry, f"{path}[{index}]", error)
            for index, entry in enumerate(value)
        ]
        return decoded if build is list else build(decoded)

    return decode_array


def _mapping(item: Decoder) -> Decoder:
    def decode_mapping(value: Any, path: str, error: "type[ReproError]") -> dict:
        if type(value) is not dict and not isinstance(value, Mapping):
            raise _fail(error, path, "an object", value)
        if not all(isinstance(key, str) for key in value):
            raise _fail(error, path, "an object with string keys", value)
        return {key: item(entry, f"{path}.{key}", error) for key, entry in value.items()}

    return decode_mapping


@dataclasses.dataclass(frozen=True)
class Wire:
    """How a class's wire form differs from its own fields."""

    #: ``(key, value)``: the schema tag a document carries
    tag: "tuple[str, str] | None" = None
    #: a document without the tag is read as this format
    tag_optional: bool = False
    #: field name -> wire key, where the two differ
    keys: "Mapping[str, str]" = dataclasses.field(default_factory=dict)
    #: field name -> ``(wire annotation, function)``: the value decodes as
    #: the annotation, then the function turns it into the field's value
    convert: "Mapping[str, tuple[Any, Callable]]" = dataclasses.field(default_factory=dict)
    #: keys written for readers (derived aggregates) and skipped on read
    ignore: "frozenset[str]" = frozenset()
    #: skip unknown keys too (rows written by newer code versions)
    ignore_unknown: bool = False


_SCALARS: "dict[Any, Decoder]" = {
    Any: lambda value, path, error: value,
    bool: _typed(bool, "true or false"),
    int: require_count,
    float: require_real,
    str: _typed(str, "a string"),
}


@functools.cache
def _decoder(tp: Any) -> Decoder:
    """The decoder for annotation ``tp``, built once per annotation."""
    if tp in _SCALARS:
        return _SCALARS[tp]
    if dataclasses.is_dataclass(tp):
        return lambda value, path, error: tp(**read(tp, value, path, error))
    if tp in (dict, list):
        tp = dict[str, Any] if tp is dict else list[Any]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _decoder(args[0] if args[1] is type(None) else args[1])
        return lambda value, path, error: None if value is None else inner(value, path, error)
    if origin in (list, Sequence):
        return _array([_decoder(args[0])], list)
    if origin is tuple and args[-1] is Ellipsis:
        return _array([_decoder(args[0])], tuple)
    if origin is tuple:
        return _array([_decoder(arg) for arg in args], tuple, fixed=True)
    if origin in (dict, Mapping) and args[0] is str:
        return _mapping(_decoder(args[1]))
    raise TypeError(f"no wire decoding for annotation {tp!r}")


def _converted(annotation: Any, function: "Callable[[Any], Any]") -> Decoder:
    decoder = _decoder(annotation)
    return lambda value, path, error: function(decoder(value, path, error))


@functools.cache
def _spec(cls: type) -> "tuple[Wire, tuple, frozenset[str]]":
    """``cls``'s declaration: its :class:`Wire`, ``(wire key, field,
    decoder, required)`` per field, and every key it accepts."""
    wire = getattr(cls, "_wire", None) or Wire()
    hints = typing.get_type_hints(cls)
    fields = tuple(
        (
            wire.keys.get(field.name, field.name),
            field.name,
            _converted(*wire.convert[field.name])
            if field.name in wire.convert
            else _decoder(hints[field.name]),
            field.default is field.default_factory is dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
        if field.init
    )
    known = {key for key, *_ in fields} | wire.ignore | set(wire.tag[:1] if wire.tag else ())
    return wire, fields, frozenset(known)


def read(cls: type, value: Any, path: str, error: "type[ReproError]") -> "dict[str, Any]":
    """``value`` decoded into keyword arguments for the dataclass ``cls``.

    Absent optional fields are left out, so the dataclass defaults apply.
    Use :func:`decode` unless the keyword arguments need finishing first.
    """
    wire, fields, known = _spec(cls)
    if type(value) is not dict and not isinstance(value, Mapping):
        raise _fail(error, path, "an object", value)
    if wire.tag is not None:
        key, expected = wire.tag
        if key in value and value[key] != expected:
            raise _fail(error, f"{path}.{key}", repr(expected), value[key])
        if key not in value and not wire.tag_optional:
            raise error(f"{path}.{key} is required")
    if not wire.ignore_unknown and not known.issuperset(value):
        unknown = ", ".join(sorted(map(str, set(value) - known)))
        raise error(f"unknown {path} field(s): {unknown}; known: {sorted(known)}")
    kwargs = {}
    for key, name, decoder, required in fields:
        if key in value:
            kwargs[name] = decoder(value[key], f"{path}.{key}", error)
        elif required:
            raise error(f"{path}.{key} is required")
    return kwargs


def decode(tp: Any, value: Any, path: str, error: "type[ReproError]") -> Any:
    """``value`` decoded as ``tp``: a dataclass, or an annotation such as
    ``list[Dimension]``.  ``path`` names the value in error messages."""
    return _decoder(tp)(value, path, error)


def from_dict(path: str, error: "type[ReproError]") -> Any:
    """A ``from_dict`` classmethod for a declared dataclass:
    ``cls.from_dict(payload)`` is ``decode(cls, payload, path, error)``."""

    def from_dict(cls: type, payload: Any) -> Any:
        return decode(cls, payload, path, error)

    from_dict.__doc__ = f"Decode a {path} document by the rules of :mod:`repro.wire`."
    return classmethod(from_dict)


def save_json(path: "str | Path", document: Any) -> Path:
    """Write ``document`` to ``path`` as indented, key-sorted JSON."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return target


def load_json(source: "str | Path", what: str, error: "type[ReproError]") -> Any:
    """The parsed JSON document at ``source``; an unreadable file or bad
    JSON raises ``error`` naming ``what`` and the path."""
    path = Path(source)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc
