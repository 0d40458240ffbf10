"""Equipment types, statuses, the 10 subcategory identifiers, the reader
of every JSON input, the key check shared by every JSON parser, and the
writer of every text and JSON artifact."""

from __future__ import annotations

import contextlib
import json
import re
import sys
from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from pathlib import Path
from typing import BinaryIO, Iterable

import numpy as np


class InputFormatError(Exception):
    """A problem with the content of an input file: an RTM file, a manifest,
    or a JSON file that is not UTF-8 JSON."""


class EquipmentType(Enum):
    TRANSFORMER = "transformer"
    BUSHING = "bushing"
    VOLTAGE_TRANSFORMER = "voltage_transformer"
    CURRENT_TRANSFORMER = "current_transformer"
    ARRESTER = "arrester"


class Status(Enum):
    NORMAL = "normal"
    FAULT = "fault"


EQUIPMENT_TYPES = tuple(EquipmentType)
STATUSES = tuple(Status)
# Each enum's members by their JSON names; a null status reads as None
TYPE_BY_NAME = {t.value: t for t in EquipmentType}
STATUS_BY_NAME = {None: None, **{s.value: s for s in Status}}


@total_ordering
@dataclass(frozen=True)
class SubcategoryId:
    """One of the 10 classes: an equipment type paired with normal/fault."""

    equipment_type: EquipmentType
    status: Status

    @property
    def index(self) -> int:
        """Class index m in 0..9: 2 * type_index + status_index."""
        return 2 * EQUIPMENT_TYPES.index(self.equipment_type) + STATUSES.index(self.status)

    @property
    def label(self) -> str:
        return f"{self.equipment_type.value}:{self.status.value}"

    def __lt__(self, other: "SubcategoryId") -> bool:
        return self.index < other.index

    def to_dict(self) -> dict:
        return {"equipment_type": self.equipment_type.value, "status": self.status.value}

    @classmethod
    def from_dict(cls, d: dict) -> "SubcategoryId":
        keys = ("equipment_type", "status")
        status = parse_status(check_keys(d, keys, "class", keys)["status"])
        if status is None:
            raise ValueError("a class needs a status, 'normal' or 'fault'")
        return cls(parse_equipment_type(d["equipment_type"]), status)


SUBCATEGORIES: tuple[SubcategoryId, ...] = tuple(
    SubcategoryId(t, s) for t in EQUIPMENT_TYPES for s in STATUSES
)


# Longest repr of an input value that an error message quotes whole, and
# most unknown keys that one names
QUOTE_CHARS = 200
QUOTE_KEYS = 3


def quote(value) -> str:
    """repr(value) for an error message, cut after QUOTE_CHARS characters
    with a marker that counts the rest: a huge input gives a short line."""
    text = repr(value)
    cut = len(text) - QUOTE_CHARS
    return text if cut <= 0 else f"{text[:QUOTE_CHARS]}... ({cut} more characters)"


def parse_equipment_type(name: str) -> EquipmentType:
    try:
        return TYPE_BY_NAME[name]
    except (KeyError, TypeError):  # a TypeError: a list or dict, which no table holds
        valid = ", ".join(TYPE_BY_NAME)
        message = f"unknown equipment type {quote(name)}; expected one of: {valid}"
        raise ValueError(message) from None


def parse_status(name: str | None) -> Status | None:
    try:
        return STATUS_BY_NAME[name]
    except (KeyError, TypeError):
        message = f"unknown status {quote(name)}; expected 'normal', 'fault', or null"
        raise ValueError(message) from None


def check_keys(d, allowed, what: str, required=()) -> dict:
    """d itself, once it is a JSON object that holds every required key and
    no key outside allowed (None: any key): a misspelled key must fail, not
    fall back to a default."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {quote(d)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{what} needs key(s): {', '.join(map(repr, missing))}")
    unknown = () if allowed is None else sorted(set(d) - set(allowed))
    if unknown:
        shown = ", ".join(map(quote, unknown[:QUOTE_KEYS]))
        if len(unknown) > QUOTE_KEYS:
            shown += f" and {len(unknown) - QUOTE_KEYS} more"
        raise ValueError(f"unknown {what} key(s): {shown}; expected: {', '.join(allowed)}")
    return d


_SCALAR_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list"}
# What an artifact can hold: orjson writes no integer past 64 bits and no lone surrogate
INT64 = range(-(2**63), 2**63)
_SURROGATE = re.compile("[\ud800-\udfff]")
_WRITABLE = {int: "a 64-bit integer", str: "a string with no lone surrogate"}


def read_scalar(d: dict, key: str, kind: type, what: str):
    """d[key] if it is a value of kind's own JSON type: an integer for int,
    a finite number for float (an integer reads as its float), a string for
    str, an array for list; true and false are none of these. Any other
    value (16.0 or "12" for an integer, "0.5", NaN or an infinity for a
    number, null, an object) is a ValueError naming the key: the CLI exits 1.
    So is what no artifact can hold: an int outside INT64, a lone surrogate."""
    value = d[key]
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # NaN fails the comparison, and so does an int past the range
    if kind is not float and type(value) is kind:  # type(True) is bool, not int
        if kind is int and value not in INT64 or kind is str and _SURROGATE.search(value):
            raise ValueError(f"{what} {key!r} must be {_WRITABLE[kind]}, got {quote(value)}")
        return value
    raise ValueError(f"{what} {key!r} must be {_SCALAR_NOUNS[kind]}, got {quote(value)}")


# the JSON values read_array takes as array elements; null reads as NaN
_ARRAY_ELEMENTS = frozenset((int, float, type(None)))


def _numbers_only(value) -> bool:
    """True for an array element or nested lists of them (ragged or not)."""
    if type(value) is not list:
        return type(value) in _ARRAY_ELEMENTS
    return _ARRAY_ELEMENTS.issuperset(map(type, value)) or all(map(_numbers_only, value))


def read_array(d: dict, key: str, what: str) -> np.ndarray:
    """d[key] as a float64 array: a number, null (NaN) or nested lists of
    them of one shape. Anything else, a string or true/false among them
    (numpy would read "0.5" and true as numbers), a ragged list or an
    integer past float64, is a ValueError naming the key."""
    value = d[key]
    if _numbers_only(value):
        try:
            return np.array(value, dtype=np.float64)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{what} {key!r} must be an array of numbers")


def read_json(path, data: bytes | None = None):
    """The JSON document in the file at path, decoded from data if the
    caller has already read the file's bytes. A file that is not UTF-8
    JSON (truncated, say) is an InputFormatError naming the path.

    orjson decodes it; only a document it refuses goes to json.loads, which
    words every error and reads NaN, lone surrogates and numbers past
    float64. Only an integer past 64 bits that a float64 holds reads
    otherwise: orjson reads it as that float, json.loads as the int."""
    import orjson  # here, so a process that reads no JSON file never loads it

    data = Path(path).read_bytes() if data is None else data
    with contextlib.suppress(orjson.JSONDecodeError):
        return orjson.loads(data)
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputFormatError(f"{path}: not valid UTF-8 JSON ({exc})") from None


def read_plain_json(path) -> tuple[object, bool]:
    """read_json(path), and whether the document is plain: decoded by orjson
    from bytes with no true or false token. A plain document holds no bool,
    NaN, infinity, lone surrogate or integer outside [-2**63, 2**64), so a
    bulk reader can check its values by their numpy dtype."""
    import orjson

    data = Path(path).read_bytes()
    try:
        doc = orjson.loads(data)
    except orjson.JSONDecodeError:
        return read_json(path, data), False
    return doc, b"true" not in data and b"false" not in data


def _create_file(path) -> BinaryIO:
    """path opened for writing bytes, parent directories made: every
    artifact file is created here."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "wb")


def write_text(path, text: str) -> None:
    """text, with a final newline added if it lacks one, written to path as UTF-8."""
    with _create_file(path) as fh:
        fh.write((text if text.endswith("\n") else text + "\n").encode("utf-8"))


def encode_json(payload) -> bytes:
    """payload in the JSON form of every artifact: orjson's compact UTF-8,
    keys sorted, floats in their shortest round-trip digits (1e-7), NaN and
    the infinities as null. It refuses what read_scalar rejects on input."""
    import orjson  # here, so a process that writes no JSON never loads it

    return orjson.dumps(payload, option=orjson.OPT_SORT_KEYS)


def write_json(path, payload) -> bytes:
    """encode_json(payload) and a newline, written to path: every JSON
    artifact is one such line (`python -m json.tool FILE` indents it).
    Returns the bytes written."""
    with _create_file(path) as fh:
        fh.write(data := encode_json(payload) + b"\n")
    return data


def write_records(path, head: dict, records: Iterable[dict]) -> int:
    """The bytes of write_json(path, {**head, "records": list(records)}),
    written one record at a time, so the whole text is never held; no value
    of head holds a "records" key. Returns the number of records."""
    n = 0
    before, _, after = encode_json({**head, "records": []}).partition(b'"records":[')
    with _create_file(path) as fh:
        fh.write(before + b'"records":[')
        for n, rec in enumerate(records, 1):
            fh.write(encode_json(rec) if n == 1 else b"," + encode_json(rec))
        fh.write(after + b"\n")
    return n


def write_lines(path, records: Iterable[dict]) -> int:
    """Each record as write_json's line, written to path in turn (JSON
    lines). Returns the number of records."""
    n = 0
    with _create_file(path) as fh:
        for n, rec in enumerate(records, 1):
            fh.write(encode_json(rec) + b"\n")
    return n
