"""Exception types shared across the toolkit, and the one strict reader of
persisted JSON documents, which raises SchemaError naming the path of the
first thing wrong."""

import functools
import json
import reprlib
import sys
import types
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path


class PrcBenchError(Exception):
    """Base class for all toolkit errors."""


class InvalidDimensionError(PrcBenchError, ValueError):
    """Qubit count or depth outside the supported range."""


class CapacityError(PrcBenchError, ValueError):
    """Simulation request exceeds the statevector memory guard."""


class DecompositionError(PrcBenchError, ValueError):
    """Two-qubit decomposition failed (e.g. non-unitary input)."""


class NothingToOptimizeError(PrcBenchError, ValueError):
    """Circuit has no peaking layers, so there are no parameters to tune."""


class UndefinedMetricError(PrcBenchError, ValueError):
    """Metric is undefined for the given histogram (e.g. zero frequencies)."""


class DomainMismatchError(PrcBenchError, ValueError):
    """Two benchmark matrices do not share the same (n, d) grid."""


class SchemaError(PrcBenchError, ValueError):
    """Persisted document is malformed or has an unsupported schema version."""


def read_json(path):
    """The JSON document in a file; invalid JSON raises SchemaError naming it."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def read_tagged(doc, schema: str, where: str) -> dict:
    """The fields of a document tagged ``"schema": schema``, less the tag."""
    _expect(type(doc) is dict, _label(where), f"a {schema} object", doc)
    if doc.get("schema") != schema:
        raise SchemaError(f"{where}schema: {reprlib.repr(doc.get('schema'))} is not {schema!r}")
    return {key: value for key, value in doc.items() if key != "schema"}


def read_fields(cls, doc, where: str, ignore=None, **parsers):
    """The dataclass ``cls`` read from the JSON object ``doc`` at path
    ``where`` ("" or ending in "." or ": "): each field from its name by
    ``parsers[name](value, path)`` or read_value, an absent one by its
    default.  ``ignore`` maps classes to keys that are dropped.  Unknown
    keys, missing fields and ValueErrors from ``cls`` (phrased from the
    field on) raise SchemaError with the path."""
    _expect(type(doc) is dict, _label(where), "an object", doc)
    specs = _field_specs(cls)
    unknown = sorted(set(doc) - {f.name for f, _ in specs} - set((ignore or {}).get(cls, ())))
    if unknown:
        raise SchemaError(f"{_label(where)}: unknown key(s) {', '.join(map(repr, unknown))}")
    kwargs = {}
    for f, hint in specs:
        if f.name not in doc:
            if f.default is f.default_factory is MISSING:
                raise SchemaError(f"{where}{f.name}: missing")
        elif f.name in parsers:
            kwargs[f.name] = parsers[f.name](doc[f.name], where + f.name)
        else:
            kwargs[f.name] = read_value(hint, doc[f.name], where + f.name, ignore)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{where}{exc}") from exc


def read_value(hint, value, path: str, ignore=None):
    """``value`` read as annotation ``hint``, with no coercion: bool, int
    and str (a bool is no int), finite float, tuple[X, ...] and tuple[X, Y]
    (from lists, or tuples as to_dict leaves them), dict, X | None and
    dataclasses."""
    if hint in _KINDS:
        kinds = (int, float) if hint is float else (hint,)
        _expect(type(value) in kinds, path, _KINDS[hint], value)
        if hint is not float:
            return value
        if not abs(value) <= sys.float_info.max:  # also NaN, and ints beyond a float
            raise SchemaError(f"{path}: {reprlib.repr(value)} is not finite")
        return float(value)
    origin, args = _shape(hint)
    if origin is types.UnionType:
        if value is None:
            return None
        (hint,) = set(args) - {type(None)}
        return read_value(hint, value, path, ignore)
    if origin is tuple:
        _expect(type(value) in (list, tuple), path, "a list", value)
        args = args[:1] * len(value) if args[1:] == (...,) else args
        _expect(len(args) == len(value), path, f"{len(args)} items", value)
        return tuple(read_value(args[i], v, f"{path}[{i}]", ignore) for i, v in enumerate(value))
    if hint is dict:
        _expect(type(value) is dict, path, "an object", value)
        return value
    return read_fields(hint, value, f"{path}.", ignore)  # a dataclass


def check_fields(obj) -> None:
    """Store on each field of the frozen dataclass ``obj`` what read_value
    reads from it (lists become tuples, integers in number fields floats),
    so that a config built in code holds what the reader builds; raise
    ValueError, with read_value's message, at the first field it refuses.
    A dataclass field takes only an instance of its class, which checks
    itself; ranges are left to the class."""
    for f, hint in _field_specs(type(obj)):
        value = getattr(obj, f.name)
        if is_dataclass(hint):
            if not isinstance(value, hint):
                raise ValueError(f"{f.name}: expected a {hint.__name__}, got {reprlib.repr(value)}")
            continue
        try:
            object.__setattr__(obj, f.name, read_value(hint, value, f.name))
        except SchemaError as exc:
            raise ValueError(str(exc)) from None


# The scalar kinds, as JSON has them: a bool is no int, and a number is
# an int or a float.
_KINDS = {bool: "a boolean", int: "an integer", str: "a string", float: "a number"}


@functools.cache
def _shape(hint) -> tuple:
    return typing.get_origin(hint), typing.get_args(hint)


@functools.cache
def _field_specs(cls) -> tuple:
    """(field, resolved annotation) for each field of cls."""
    hints = typing.get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in fields(cls))


def _expect(ok: bool, path: str, what: str, value) -> None:
    if not ok:
        raise SchemaError(f"{path}: expected {what}, got {reprlib.repr(value)}")


def _label(where: str) -> str:
    return where.rstrip(".: ") or "document"
