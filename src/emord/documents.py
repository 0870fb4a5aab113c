"""Strict reading of the JSON documents a user writes: train configs and
synthetic-corpus specs.

A document is one JSON object: an optional "format" tag, then members named
after the fields of the dataclass it builds.  Each member's kind is a type
hint: int, float, str, a tuple of fixed length (tuple[int, int],
tuple[float, float, float], ...) and `X | None` for a member that may be
null.  A float member takes any JSON number, and a JSON integer becomes the
float equal to it; an integer too large for a float is rejected.  A bool is
never a number.  A tuple member takes a list (or, from Python, a tuple) of
exactly its length.  TrainConfig checks its fields with `coerce_member` too.
"""

from __future__ import annotations

import json
import typing
from pathlib import Path


def read_document(path: str | Path, fmt: str, kinds: dict, error: type[ValueError]) -> dict:
    """The members of the JSON object in `path`, each coerced to its kind.

    `kinds` maps every allowed member to its type hint; a member left out
    is left out of the result.  Any fault raises `error` naming the file.
    """
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from exc
    return parse_document(document, fmt, kinds, error, f"{path}: ")


def parse_document(
    document, fmt: str, kinds: dict, error: type[ValueError], where: str = ""
) -> dict:
    """read_document's reading of a document already parsed from JSON.

    `where` prefixes every error message; `document` is left as it is.
    """
    if not isinstance(document, dict):
        raise error(f"{where}document must be a JSON object")
    tag = document.get("format", fmt)
    if tag != fmt:
        raise error(f"{where}unsupported format tag {tag!r}")
    members = {name: value for name, value in document.items() if name != "format"}
    unknown = members.keys() - kinds.keys()
    if unknown:
        raise error(f"{where}unknown fields {sorted(unknown)}")
    return {
        name: coerce_member(value, kinds[name], f"{where}{name}", error)
        for name, value in members.items()
    }


def coerce_member(value, kind, what: str, error: type[ValueError]):
    """`value` as a member of kind `kind`, or `error` naming it as `what`."""
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = (arg for arg in args if arg is not type(None))
        args = typing.get_args(kind)
    if value is None:
        raise error(f"{what} must not be null")
    if kind is str:
        if type(value) is not str:
            raise error(f"{what} must be a string")
        return value
    if not args:
        return _number(value, kind, what, error)
    # tuple[int, int] -> (int, int)
    if type(value) not in (list, tuple) or len(value) != len(args):
        raise error(f"{what} must be a list of {len(args)} values")
    return tuple(_number(item, args[0], f"{what} entry", error) for item in value)


def _number(value, kind, what: str, error: type[ValueError]):
    if kind is int:
        if type(value) is not int:
            raise error(f"{what} must be an integer")
        return value
    if type(value) not in (int, float):
        raise error(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the float range
        raise error(f"{what} is too large for a float") from None
