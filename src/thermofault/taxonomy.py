"""Equipment types, statuses, the 10 subcategory identifiers, the key
check shared by every JSON reader, and the writer of every JSON artifact."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np


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


def subcategory_from_index(m: int) -> SubcategoryId:
    if not 0 <= m < len(SUBCATEGORIES):
        raise ValueError(f"subcategory index {m} out of range 0..{len(SUBCATEGORIES) - 1}")
    return SUBCATEGORIES[m]


def parse_equipment_type(name: str) -> EquipmentType:
    try:
        return EquipmentType(name)
    except ValueError:
        valid = ", ".join(t.value for t in EQUIPMENT_TYPES)
        raise ValueError(f"unknown equipment type {name!r}; expected one of: {valid}") from None


def parse_status(name: str | None) -> Status | None:
    if name is None:
        return None
    try:
        return Status(name)
    except ValueError:
        raise ValueError(f"unknown status {name!r}; expected 'normal', 'fault', or null") from None


def check_keys(d, allowed, what: str, required=()) -> dict:
    """d itself, once it is a JSON object that holds every required key and
    no key outside allowed: a misspelled key must fail, not fall back to a
    default."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {d!r}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"{what} needs key(s): {', '.join(map(repr, missing))}")
    unknown = sorted(set(d) - set(allowed))
    if unknown:
        raise ValueError(
            f"unknown {what} key(s): {', '.join(map(repr, unknown))};"
            f" expected: {', '.join(allowed)}"
        )
    return d


_SCALAR_NOUNS = {int: "an integer", float: "a number", str: "a string"}


def read_scalar(d: dict, key: str, kind: type, what: str):
    """d[key] as kind: int(d[key]) or float(d[key]), or d[key] itself if it
    is a string for kind str. A value it cannot read that way (a list, an
    object, null, a non-numeric string, an infinity read as an integer) is
    a ValueError naming the key, so the CLI exits 1 on it."""
    value = d[key]
    try:
        if kind is not str or isinstance(value, str):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{what} {key!r} must be {_SCALAR_NOUNS[kind]}, got {value!r}")


def read_array(d: dict, key: str, what: str) -> np.ndarray:
    """d[key] as a float64 array; a value numpy cannot read as numbers (an
    object among them, say) is a ValueError naming the key."""
    value = d[key]
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(f"{what} {key!r} must be an array of numbers") from None


def _create(path) -> TextIO:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_json(path, payload) -> str:
    """payload as one line of JSON with sorted keys, plus a newline: the
    form of every JSON artifact. Read it with `python -m json.tool FILE`.
    Returns the text written, whose UTF-8 encoding is the file's bytes.

    Only json.dumps without an indent runs the C encoder; json.dump and
    any indent go through the pure-Python one, several times slower."""
    text = json.dumps(payload, sort_keys=True) + "\n"
    with _create(path) as fh:
        fh.write(text)
    return text


def write_records(path, records: Iterable[dict]) -> int:
    """The bytes of write_json(path, {"records": list(records)}), written
    one record at a time, so the whole text is never held. Returns the
    number of records."""
    n = 0
    with _create(path) as fh:
        fh.write('{"records": [')
        for rec in records:
            fh.write((", " if n else "") + json.dumps(rec, sort_keys=True))
            n += 1
        fh.write("]}\n")
    return n
