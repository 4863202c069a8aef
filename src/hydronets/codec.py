"""The one reader and writer of JSON: configs, region files and checkpoints.

Each file kind's schema is a frozen dataclass, which alone states its keys,
their order and their nesting. :func:`from_doc` builds it from a parsed
JSON document by following its type annotations; :func:`to_doc`, the
mirror, writes it with every ``None`` field left out, which
:func:`from_doc` reads back as the field's default, ``None``. A nested
dataclass is a JSON object, ``dict[str, T]`` is an object whose values
are ``T``, ``tuple[T, ...]`` and ``tuple[T, T]`` are arrays (the second
of fixed length), ``X | None`` also takes ``null``, ``int`` takes a JSON
integer but not a boolean, ``float`` takes any finite JSON number and
stores it as a float, and ``str`` takes a string. Every error message
names the field path (``basins[2].id``, ``heads.b3.w``).
Each file kind has a pair of codes (:data:`CONFIG`, :data:`REGION`,
:data:`CHECKPOINT`): for a missing field or a value of the wrong type,
and for an unknown field, which is reported first.

:func:`read_input` and :func:`parse_json` are the one guard every input
file passes through: one leading UTF-8 byte-order mark is dropped, and a
file that cannot be read, undecodable bytes and malformed JSON fail with
the error code of the file's kind.
"""

from __future__ import annotations

import functools
import json
import sys
import types
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

from .errors import HydroNetsError

_SCALARS = {int: "an integer", float: "a finite number", str: "a string"}
CONFIG = ("invalid-config", "invalid-config")
REGION = ("syntax-error", "unknown-field")
CHECKPOINT = ("bad-checkpoint", "bad-checkpoint")

# get_type_hints compiles every string annotation on each call. One entry per
# schema class, a fixed set; the shared dicts are only read.
_hints = functools.cache(get_type_hints)


def read_input(path: str | Path, code: str) -> str:
    """Text of input file ``path``, without the byte-order mark spreadsheet
    tools may write first; a file that cannot be read, or bytes that are
    not UTF-8, raise ``code``."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as e:
        raise HydroNetsError(code, f"{path} is not UTF-8 text: {e}") from None
    except OSError as e:
        raise HydroNetsError(code, f"cannot read {path}: {e.strerror or e}") from None


def parse_json(text: str, code: str) -> Any:
    """Parse JSON input text, reporting malformed JSON, integers too long
    to parse and nesting too deep as ``code``."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise HydroNetsError(code, f"invalid JSON: {e}") from None


def from_doc(cls: type, doc: Any, path: str = "", codes: tuple[str, str] = CONFIG) -> Any:
    """Build dataclass ``cls`` from JSON value ``doc``; ``path`` names
    ``doc`` in error messages, and ``codes`` are its file kind's."""
    if not isinstance(doc, dict):
        raise _wrong(path or cls.__name__, "an object", doc, codes)
    prefix = f"{path}." if path else ""
    hints = _hints(cls)
    unknown = [f"unknown field {prefix}{name}" for name in sorted(set(doc) - set(hints))]
    missing = [
        f"missing field {prefix}{f.name}" for f in fields(cls)
        if f.name not in doc and f.default is MISSING and f.default_factory is MISSING
    ]
    if unknown or missing:
        raise HydroNetsError(codes[1] if unknown else codes[0], "; ".join(unknown + missing))
    return cls(**{name: _value(hints[name], v, prefix + name, codes) for name, v in doc.items()})


def to_doc(obj: Any) -> Any:
    """Dataclass ``obj`` as a JSON document, fields in declaration order;
    a field that is ``None``, at any depth, is left out. Dataclasses and
    dicts become new dicts, and arrays of them new arrays; an array of
    plain values, such as a checkpoint's weights, goes in as it is."""
    if is_dataclass(obj):
        return {f.name: to_doc(v) for f in fields(obj) if (v := getattr(obj, f.name)) is not None}
    if isinstance(obj, dict):
        return {key: to_doc(v) for key, v in obj.items()}
    if isinstance(obj, (list, tuple)) and obj and (is_dataclass(obj[0]) or isinstance(obj[0], (dict, list, tuple))):
        return type(obj)(map(to_doc, obj))
    return obj


def _value(tp: Any, v: Any, path: str, codes: tuple[str, str]) -> Any:
    origin, args = get_origin(tp), get_args(tp)
    if is_dataclass(tp):
        return from_doc(tp, v, path, codes)
    if origin in (Union, types.UnionType):  # X | None
        inner = next(a for a in args if a is not type(None))
        return None if v is None else _value(inner, v, path, codes)
    if origin is dict:  # dict[str, T]
        if not isinstance(v, dict):
            raise _wrong(path, "an object", v, codes)
        return {key: _value(args[1], x, f"{path}.{key}", codes) for key, x in v.items()}
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        if not isinstance(v, list) or not (variadic or len(v) == len(args)):
            raise _wrong(path, "an array" if variadic else f"an array of {len(args)}", v, codes)
        return tuple(_value(args[0 if variadic else i], x, f"{path}[{i}]", codes) for i, x in enumerate(v))
    # json.loads gives exact int/float/str/bool types, and bool is not int here.
    if tp is float and type(v) in (int, float) and abs(v) <= sys.float_info.max:
        return float(v)  # NaN, infinities and integers beyond any float fail the bound
    if tp is not float and type(v) is tp:
        return v
    raise _wrong(path, _SCALARS[tp], v, codes)


def _wrong(path: str, want: str, got: Any, codes: tuple[str, str]) -> HydroNetsError:
    # Named, not written: json.dumps of a deep container overflows the stack.
    shown = {list: "an array", dict: "an object"}.get(type(got)) or json.dumps(got)[:40]
    return HydroNetsError(codes[0], f"{path} must be {want}, got {shown}")
