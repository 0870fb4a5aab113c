"""Strict reading of JSON documents: train configs, synthetic-corpus specs,
taxonomy documents and their label records, and checkpoint headers with their
recipe.  Every member kind of these five documents is checked here, so each
rule below holds in all of them.

A document is one JSON object: a "format" tag, optional or required (a label
record has none), then members named after the fields it holds; unknown
members are rejected, and so are missing required ones.  Each member's kind
is a type hint: int, float,
str, dict (a JSON object, for its own reader to read), a tuple of fixed
length (tuple[int, int], tuple[float, float, float], ...), a tuple of any
length (tuple[str, ...]) and `X | None` for a member that may be null.  A
float member takes any JSON number, and a JSON integer becomes the float
equal to it; an integer too large for a float is rejected.  A bool is never
a number.  A tuple member takes a list (or, from Python, a tuple), each
entry read as the tuple's entry kind.  TrainConfig checks its fields with
`coerce_member` too.
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
    return parse_document(load_json(path, error), fmt, kinds, error, f"{path}: ")


def load_json(path: str | Path, error: type[ValueError]):
    """The JSON value in `path`, or `error` naming the file if it holds none."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # also UnicodeDecodeError
        raise error(f"{path}: not valid JSON ({exc})") from exc


def parse_document(
    document,
    fmt: str | None,
    kinds: dict,
    error: type[ValueError],
    where: str = "",
    required: typing.Collection[str] = (),
) -> dict:
    """read_document's reading of a document already parsed from JSON.

    `where` prefixes every error message; `document` is left as it is.  A
    member named in `required` ("format" included) must be present.  With
    `fmt` None the document takes no "format" member, so one is unknown.
    """
    if not isinstance(document, dict):
        raise error(f"{where}document must be a JSON object")
    members = document
    if fmt is not None:
        tag = document.get("format", fmt)
        if tag != fmt:
            raise error(f"{where}unsupported format tag {tag!r}")
        members = {name: value for name, value in document.items() if name != "format"}
    unknown = members.keys() - kinds.keys()
    if unknown:
        raise error(f"{where}unknown fields {sorted(unknown)}")
    missing = [name for name in required if name not in document]
    if missing:
        raise error(f"{where}missing fields {missing}")
    return {
        name: coerce_member(value, kinds[name], f"{where}{name}", error)
        for name, value in members.items()
    }


def coerce_member(value, kind, what: str, error: type[ValueError]):
    """`value` as a member of kind `kind`, or `error` naming it as `what`."""
    if type(value) is kind:  # the common case; a bool is never an int here
        return value
    args = typing.get_args(kind)
    if type(None) in args:  # X | None
        if value is None:
            return None
        (kind,) = (arg for arg in args if arg is not type(None))
        return coerce_member(value, kind, what, error)
    if value is None:
        raise error(f"{what} must not be null")
    if kind is str:
        raise error(f"{what} must be a string")
    if kind is dict:
        raise error(f"{what} must be an object")
    if kind is int:
        raise error(f"{what} must be an integer")
    if kind is float:  # an integer is the float equal to it
        if type(value) is not int:
            raise error(f"{what} must be a number")
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            raise error(f"{what} is too large for a float") from None
    if args[-1] is Ellipsis:  # tuple[str, ...]: a list of any length
        if type(value) not in (list, tuple):
            raise error(f"{what} must be a list")
    # tuple[int, int]: a list of exactly its length
    elif type(value) not in (list, tuple) or len(value) != len(args):
        raise error(f"{what} must be a list of {len(args)} values")
    kind, what = args[0], f"{what} entry"
    # the exact-type check above, without a call per entry: a vocabulary
    # holds thousands
    return tuple(
        item if type(item) is kind else coerce_member(item, kind, what, error) for item in value
    )
