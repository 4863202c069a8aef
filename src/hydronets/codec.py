"""JSON reader for the config dataclasses.

:func:`from_doc` builds any config dataclass from a parsed JSON document by
following the class's type annotations; ``dataclasses.asdict`` is the
writer. A nested config dataclass is a JSON object, ``tuple[T, ...]`` and
``tuple[T, T]`` are arrays (the second of fixed length), ``X | None``
also takes ``null``, ``int`` takes a JSON integer but not a boolean,
``float`` takes any finite JSON number and stores it as a float, and
``str`` takes a string. Unknown fields, missing required fields and
values of the wrong type raise ``invalid-config`` naming the field path.
"""

from __future__ import annotations

import json
import sys
import types
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Union, get_args, get_origin, get_type_hints

from .errors import HydroNetsError

_SCALARS = {int: "an integer", float: "a finite number", str: "a string"}


def parse_json(text: str) -> Any:
    """Parse config text, reporting malformed JSON as ``invalid-config``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also an integer too long to parse, or nesting too deep
        raise HydroNetsError("invalid-config", f"bad config JSON: {e}") from None


def from_doc(cls: type, doc: Any, path: str = "") -> Any:
    """Build config dataclass ``cls`` from JSON value ``doc``; ``path``
    names ``doc`` in error messages."""
    if not isinstance(doc, dict):
        raise _wrong(path or cls.__name__, "an object", doc)
    prefix = f"{path}." if path else ""
    hints = get_type_hints(cls)
    problems = [f"unknown field {prefix}{name}" for name in sorted(set(doc) - set(hints))]
    problems += [
        f"missing field {prefix}{f.name}" for f in fields(cls)
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING
    ]
    if problems:
        raise HydroNetsError("invalid-config", "; ".join(problems))
    return cls(**{name: _value(hints[name], v, prefix + name) for name, v in doc.items()})


def _value(tp: Any, v: Any, path: str) -> Any:
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return from_doc(tp, v, path)
    if origin in (Union, types.UnionType):  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if v is None else _value(inner, v, path)
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(v, list) or not (variadic or len(v) == len(args)):
            raise _wrong(path, "an array" if variadic else f"an array of {len(args)}", v)
        return tuple(_value(args[0 if variadic else i], x, f"{path}[{i}]") for i, x in enumerate(v))
    # json.loads gives exact int/float/str/bool types, and bool is not int here.
    if tp is float and type(v) in (int, float) and abs(v) <= sys.float_info.max:
        return float(v)  # NaN, infinities and integers beyond any float fail the bound
    if tp is not float and type(v) is tp:
        return v
    raise _wrong(path, _SCALARS[tp], v)


def _wrong(path: str, want: str, got: Any) -> HydroNetsError:
    return HydroNetsError("invalid-config", f"{path} must be {want}, got {json.dumps(got)[:40]}")
