"""Radiometric thermal images, region annotations, and dataset manifests.

A thermal image is a matrix of already-calibrated temperatures in degrees
Celsius. Images travel as RTM text files: a "width,height" header line
followed by one comma-separated row of temperatures per image row. Values
are written with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .taxonomy import (
    EquipmentType,
    InputFormatError,
    Status,
    SubcategoryId,
    check_keys,
    parse_equipment_type,
    parse_status,
    quote,
    read_json,
    read_scalar,
    write_json,
    write_text,
)

BBox = tuple[int, int, int, int]


class RtmFormatError(InputFormatError):
    """Malformed RTM thermal file, with 1-based row/column context."""

    def __init__(self, path, message: str, row: int | None = None, col: int | None = None):
        self.path = str(path)
        self.row = row
        self.col = col
        where = self.path
        if row is not None:
            where += f", line {row}"
        if col is not None:
            where += f", column {col}"
        super().__init__(f"{where}: {message}")


class ManifestError(ValueError):
    """Malformed or inconsistent dataset manifest: a validation error."""


@dataclass(frozen=True)
class ThermalImage:
    """A width x height matrix of finite temperatures in degrees Celsius."""

    width: int
    height: int
    temps: np.ndarray  # shape (height, width), row-major, float64
    source_id: str

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image dimensions must be >= 1, got {self.width}x{self.height}")
        temps = np.asarray(self.temps, dtype=np.float64)
        if temps.shape != (self.height, self.width):
            raise ValueError(
                f"temps shape {temps.shape} does not match {self.height}x{self.width}"
            )
        if not np.isfinite(temps).all():
            raise ValueError("temperatures must all be finite")
        temps.flags.writeable = False
        object.__setattr__(self, "temps", temps)


_CELL_BYTES = b"0123456789.eE+-, \t\n"  # no such byte can make or merge rows for orjson
_NEG_ZERO = re.compile(rb"-0(?![.eE0-9])")  # orjson reads -0 as the int 0, float() as -0.0


def load_thermal(path, source_id: str | None = None) -> ThermalImage:
    """Read an RTM text file into a ThermalImage, or raise RtmFormatError
    (with line/column position) for a malformed header, a row of the wrong
    length, or a non-numeric / non-finite cell, and (naming only the file)
    for a file that is not UTF-8. orjson converts each ~64 KiB block of rows
    of _CELL_BYTES with no -0 token, float() any other block; a file not
    read as height rows of width finite values goes to _load_thermal_exact."""
    import orjson  # here, so a process that reads no RTM file never loads it
    path = Path(path)
    try:
        with open(path, "rb") as fh:
            head = fh.readline().removesuffix(b"\n").removesuffix(b"\r")
            width, height = _parse_rtm_header(path, head.decode("utf-8"))
            if b"\r" in head or height * (2 * width - 1) > path.stat().st_size:
                raise ValueError("a lone \\r in the header, or too few bytes for the cells")
            temps, r = np.empty((height, width)), 0
            while (lines := fh.readlines(1 << 16)) and (r := r + len(lines)) <= height:
                block, slab = b"".join(lines), temps[r - len(lines) : r]
                # a lone \r splits a row in the exact path; one byte is found far faster than two
                if b"\r" in block and b"\r" in (block := block.replace(b"\r\n", b"\n")):
                    raise ValueError("a lone \\r")
                block = block.removesuffix(b"\n")
                try:
                    if block.translate(None, _CELL_BYTES) or _NEG_ZERO.search(block):
                        raise ValueError("a byte or token that orjson reads otherwise")
                    rows = orjson.loads(b"[[" + block.replace(b"\n", b"],[") + b"]]")
                    slab[...] = np.array(rows, dtype=np.float64).reshape(slab.shape)
                except ValueError:  # refused, or a row of another length: float() cell by cell
                    _parse_rows(path, block.decode("utf-8").split("\n"), slab, r - len(lines) + 2)
        if r == height:
            return ThermalImage(width, height, temps, source_id or path.stem)
    except (ValueError, RtmFormatError):  # UnicodeDecodeError is a ValueError
        pass
    return _load_thermal_exact(path, source_id)


def _load_thermal_exact(path: Path, source_id: str | None) -> ThermalImage:
    """load_thermal by float() on each cell of the whole decoded file. The
    error is the file's first of: not UTF-8, header, row count, bad row."""
    try:  # decoded whole, the error names the byte's offset in the file
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RtmFormatError(path, f"not UTF-8 text ({exc})") from None
    if not text:
        raise RtmFormatError(path, "empty file", row=1)
    # the lines of a file opened as text; str.splitlines would split at more characters
    lines = text.replace("\r\n", "\n").replace("\r", "\n").removesuffix("\n").split("\n")
    width, height = _parse_rtm_header(path, lines[0])
    if (n := len(lines) - 1) != height:
        raise RtmFormatError(path, f"expected {height} data rows, found {n}", row=n + 1)
    temps = np.empty((height, width), dtype=np.float64)
    _parse_rows(path, lines[1:], temps, 2)
    return ThermalImage(width, height, temps, source_id or path.stem)


def _parse_rows(path, lines: list[str], out: np.ndarray, first_row: int) -> None:
    """float() each cell of lines into out; errors count lines[0] as file line first_row."""
    for r, line in enumerate(lines, start=first_row):
        if len(cells := line.split(",")) != (width := out.shape[1]):
            raise RtmFormatError(path, f"row has {len(cells)} values, expected {width}", row=r)
        try:
            ok = all(map(math.isfinite, row := list(map(float, cells))))
        except ValueError:
            ok = False
        if not ok:  # name the first bad cell
            for c, cell in enumerate(cells, start=1):
                try:
                    kind = None if math.isfinite(float(cell)) else "non-finite"
                except ValueError:
                    kind = "non-numeric"
                if kind:
                    raise RtmFormatError(path, f"{kind} cell {quote(cell.strip())}", row=r, col=c)
        out[r - first_row] = row


def _parse_rtm_header(path, line: str) -> tuple[int, int]:
    try:  # a count of parts other than 2 fails the unpacking
        width, height = map(int, line.split(","))
    except ValueError:
        message = f"header must be 'width,height', got {quote(line)}"
        raise RtmFormatError(path, message, row=1) from None
    if width < 1 or height < 1:
        raise RtmFormatError(path, f"dimensions must be >= 1, got {width}x{height}", row=1)
    return width, height


def save_thermal(img: ThermalImage, path) -> None:
    """Write an RTM text file; %.17g rendering keeps the round trip exact."""
    row_format = ",".join(["%.17g"] * img.width)
    rows = [f"{img.width},{img.height}"]
    rows.extend(row_format % tuple(row) for row in img.temps.tolist())
    write_text(path, "\n".join(rows))


def extract_region(img: ThermalImage, bbox: BBox) -> np.ndarray:
    """Return the bbox pixels as a flat row-major temperature array."""
    x, y, w, h = bbox
    if w < 1 or h < 1:
        raise ValueError(f"bbox {bbox} must have width and height >= 1")
    if x < 0 or y < 0 or x + w > img.width or y + h > img.height:
        raise ValueError(
            f"bbox {bbox} out of bounds for {img.width}x{img.height} image {quote(img.source_id)}"
        )
    return img.temps[y : y + h, x : x + w].reshape(-1).copy()


@dataclass(frozen=True)
class RegionAnnotation:
    """A detector-output bounding box with equipment type and optional status."""

    bbox: BBox
    equipment_type: EquipmentType
    status: Status | None
    image_ref: str

    def __post_init__(self):
        x, y, w, h = self.bbox
        if w < 1 or h < 1:
            raise ValueError(f"bbox {self.bbox} must have width and height >= 1")
        if x < 0 or y < 0:
            raise ValueError(f"bbox {self.bbox} must have non-negative origin")
        object.__setattr__(self, "bbox", (int(x), int(y), int(w), int(h)))

    @property
    def subcategory(self) -> SubcategoryId | None:
        if self.status is None:
            return None
        return SubcategoryId(self.equipment_type, self.status)

    def key(self) -> tuple[str, BBox]:
        return (self.image_ref, self.bbox)

    def to_dict(self) -> dict:
        return {
            "image_ref": self.image_ref,
            "bbox": list(self.bbox),
            "equipment_type": self.equipment_type.value,
            "status": None if self.status is None else self.status.value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RegionAnnotation":
        """Parse a manifest entry or feature record; other keys are ignored,
        and a missing status reads as null."""
        check_keys(d, None, "region", ("image_ref", "bbox", "equipment_type"))
        bbox = d["bbox"]
        if not (isinstance(bbox, list) and len(bbox) == 4):
            raise ValueError(f"bbox must be a 4-element [x,y,w,h] list, got {quote(bbox)}")
        return cls(
            tuple(read_scalar(bbox, i, int, "region bbox") for i in range(4)),
            parse_equipment_type(d["equipment_type"]),
            parse_status(d.get("status")),
            read_scalar(d, "image_ref", str, "region"),
        )


SPLITS = ("labeled", "unlabeled", "test")


@dataclass(frozen=True)
class DatasetManifest:
    """Labeled / unlabeled / test region splits plus image id -> path map."""

    labeled: tuple[RegionAnnotation, ...]
    unlabeled: tuple[RegionAnnotation, ...]
    test: tuple[RegionAnnotation, ...]
    image_paths: dict[str, Path] = field(default_factory=dict)

    def __post_init__(self):
        for name in SPLITS:
            object.__setattr__(self, name, tuple(getattr(self, name)))
        seen: dict[tuple, str] = {}
        for name, region in ((name, r) for name in SPLITS for r in getattr(self, name)):
            k = region.key()
            if (region.status is None) != (name == "unlabeled"):
                fault = "has no status" if region.status is None else "carries a status"
                raise ManifestError(f"{name} region {quote(k)} {fault}")
            if other := seen.get(k):
                raise ManifestError(f"region {quote(k)} appears in both {other} and {name} splits")
            seen[k] = name
        labeled = {r.subcategory for r in self.labeled}
        for c in (r.subcategory for r in self.test if r.subcategory not in labeled):
            raise ManifestError(f"test subcategory {c.label} has no labeled examples")


def load_manifest(path) -> DatasetManifest:
    """Load a manifest JSON file and check that its images exist.

    The top level holds at most "images" and the SPLITS, each a list; any
    other key is a ManifestError. Regions with a null status land in the
    unlabeled split regardless of the list they were declared in. Image
    paths are resolved relative to the manifest's directory. No image is
    opened here: whoever loads the images checks each bbox against its
    image's size (harness.extract_features does). Each error names the
    manifest and then the fault's place in it.
    """
    path = Path(path)
    doc = read_json(path)
    try:
        return _manifest(doc, path.parent)
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None


def _manifest(doc, root: Path) -> DatasetManifest:
    """load_manifest's reading of doc; a ValueError names the fault's place."""
    check_keys(doc, ("images", *SPLITS), "manifest")  # a misspelled split must not read as empty
    for key in doc:
        read_scalar(doc, key, list, "manifest")

    image_paths: dict[str, Path] = {}
    for i, entry in enumerate(doc.get("images", [])):
        try:
            img_id, rel = (read_scalar(entry, k, str, "image") for k in ("id", "path"))
        except (KeyError, TypeError):
            raise ValueError(f"images[{i}]: image entry needs 'id' and 'path'") from None
        except ValueError as exc:
            raise ValueError(f"images[{i}]: {exc}") from None
        if img_id in image_paths:
            raise ValueError(f"images[{i}]: duplicate image id {quote(img_id)}")
        image_paths[img_id] = root / rel

    for img_id in (k for k, p in image_paths.items() if not p.exists()):
        raise ValueError(f"image {quote(img_id)} not found at {image_paths[img_id]}")

    splits: dict[str, list[RegionAnnotation]] = {name: [] for name in SPLITS}
    for name in SPLITS:
        for i, entry in enumerate(doc.get(name, [])):
            try:
                region = RegionAnnotation.from_dict(entry)
            except ValueError as exc:
                raise ValueError(f"{name}[{i}]: {exc}") from None
            if name != "unlabeled" and "status" not in entry:
                raise ValueError(f"{name}[{i}] has no status key; give null to mark it unlabeled")
            if region.image_ref not in image_paths:
                raise ValueError(f"{name}[{i}] references unknown image {quote(region.image_ref)}")
            if name == "unlabeled" and region.status is not None:
                raise ValueError(f"unlabeled[{i}] carries a status; drop it or move the region")
            splits["unlabeled" if region.status is None else name].append(region)
    return DatasetManifest(*(splits[name] for name in SPLITS), image_paths)


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return {
        "images": [
            {"id": img_id, "path": str(p)} for img_id, p in sorted(manifest.image_paths.items())
        ],
        **{name: [r.to_dict() for r in getattr(manifest, name)] for name in SPLITS},
    }


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_json(path, manifest_to_dict(manifest))
