"""Radiometric thermal images, region annotations, and dataset manifests.

A thermal image is a matrix of already-calibrated temperatures in degrees
Celsius. Images travel as RTM text files: a "width,height" header line
followed by one comma-separated row of temperatures per image row. Values
are written with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import itertools
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
    read_json,
    read_scalar,
    write_json,
    write_text,
)

BBox = tuple[int, int, int, int]
# Characters of lines that load_thermal reads and converts at a time.
RTM_BLOCK_CHARS = 1 << 18


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


def load_thermal(path, source_id: str | None = None) -> ThermalImage:
    """Read an RTM text file into a ThermalImage.

    Raises RtmFormatError (with line/column position) for a malformed
    header, a row of the wrong length, or a non-numeric / non-finite cell,
    and (naming only the file) for a file that is not UTF-8. Lines are read
    and converted about RTM_BLOCK_CHARS characters at a time; the error is
    the whole file's first of: not UTF-8, header, row count, bad row.
    """
    path = Path(path)
    parts, height, n = [], 0, 0
    try:
        with open(path, encoding="utf-8") as fh:
            blocks = iter(lambda: fh.readlines(RTM_BLOCK_CHARS), [])
            try:
                lines = next(blocks, [])
                if not lines:
                    raise RtmFormatError(path, "empty file", row=1)
                width, height = _parse_rtm_header(path, lines[0].rstrip("\n"))
                for rows in itertools.chain([lines[1:]], blocks):
                    n += len(rows)
                    if n <= height:  # rows past the header's height are only counted
                        parts.append(_parse_rtm_rows(path, rows, width, n - len(rows) + 2))
            except RtmFormatError:
                n += sum(map(len, blocks))  # reads the rest: a non-UTF-8 byte comes first
                if n == height or not height:
                    raise
    except UnicodeDecodeError:
        try:  # decoded whole, the error names the byte's offset in the file
            path.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RtmFormatError(path, f"not UTF-8 text ({exc})") from None
        raise
    if n != height:
        raise RtmFormatError(path, f"expected {height} data rows, found {n}", row=n + 1)
    temps = np.concatenate(parts) if len(parts) > 1 else parts[0]
    return ThermalImage(width, height, temps, source_id or path.stem)


def _parse_rtm_rows(path, rows: list[str], width: int, first_line: int) -> np.ndarray:
    """The temperatures of rows, the first at line first_line; a bad cell is named by position."""
    # numpy converts each cell as float() does (newlines stripped); the row
    # check keeps a long row and a short row from passing as a right-sized block
    if all(line.count(",") == width - 1 for line in rows):
        try:
            temps = np.array(",".join(rows).split(","), dtype=np.float64).reshape(-1, width)
            if np.isfinite(temps).all():
                return temps
        except ValueError:
            pass  # the cell loop names the bad cell
    temps = np.empty((len(rows), width), dtype=np.float64)
    for r, line in enumerate(rows, start=first_line):
        cells = line.split(",")
        if len(cells) != width:
            raise RtmFormatError(path, f"row has {len(cells)} values, expected {width}", row=r)
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise RtmFormatError(
                    path, f"non-numeric cell {cell.strip()!r}", row=r, col=c + 1
                ) from None
            if not np.isfinite(value):
                raise RtmFormatError(path, f"non-finite cell {cell.strip()!r}", row=r, col=c + 1)
            temps[r - first_line, c] = value
    return temps


def _parse_rtm_header(path, line: str) -> tuple[int, int]:
    parts = line.split(",")
    if len(parts) != 2:
        raise RtmFormatError(path, f"header must be 'width,height', got {line!r}", row=1)
    try:
        width, height = int(parts[0]), int(parts[1])
    except ValueError:
        raise RtmFormatError(path, f"header must be 'width,height', got {line!r}", row=1) from None
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
            f"bbox {bbox} out of bounds for {img.width}x{img.height} image {img.source_id!r}"
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
        check_keys(d, d, "region", ("image_ref", "bbox", "equipment_type"))
        bbox = d["bbox"]
        if not (isinstance(bbox, list) and len(bbox) == 4):
            raise ValueError(f"bbox must be a 4-element [x,y,w,h] list, got {bbox!r}")
        return cls(
            tuple(read_scalar(bbox, i, int, "region bbox") for i in range(4)),
            parse_equipment_type(d["equipment_type"]),
            parse_status(d.get("status")),
            str(d["image_ref"]),
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
        for name, split in (("labeled", self.labeled), ("test", self.test)):
            for region in split:
                if region.status is None:
                    raise ManifestError(f"{name} region {region.key()} has no status")
        for region in self.unlabeled:
            if region.status is not None:
                raise ManifestError(f"unlabeled region {region.key()} carries a status")
        seen: dict[tuple, str] = {}
        for name in SPLITS:
            for region in getattr(self, name):
                k = region.key()
                if k in seen:
                    raise ManifestError(
                        f"region {k} appears in both {seen[k]} and {name} splits"
                    )
                seen[k] = name
        labeled_subcats = {r.subcategory for r in self.labeled}
        for region in self.test:
            if region.subcategory not in labeled_subcats:
                raise ManifestError(
                    f"test subcategory {region.subcategory.label} has no labeled examples"
                )


def _region_from_dict(entry: dict, where: str) -> RegionAnnotation:
    try:
        return RegionAnnotation.from_dict(entry)
    except (ValueError, TypeError) as exc:
        raise ManifestError(f"{where}: {exc}") from None


def load_manifest(path) -> DatasetManifest:
    """Load a manifest JSON file and check that its images exist.

    Regions with a null status land in the unlabeled split regardless of
    the list they were declared in. Image paths are resolved relative to
    the manifest's directory. No image is opened here: whoever loads the
    images checks each bbox against its image's size
    (harness.extract_features does).
    """
    path = Path(path)
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ManifestError(f"{path}: top level must be a JSON object")

    image_paths: dict[str, Path] = {}
    for entry in doc.get("images", []):
        try:
            img_id, rel = str(entry["id"]), str(entry["path"])
        except (KeyError, TypeError):
            raise ManifestError(f"{path}: image entries need 'id' and 'path'") from None
        if img_id in image_paths:
            raise ManifestError(f"{path}: duplicate image id {img_id!r}")
        image_paths[img_id] = path.parent / rel

    for img_id, img_path in image_paths.items():
        if not img_path.exists():
            raise ManifestError(f"{path}: image {img_id!r} not found at {img_path}")

    splits: dict[str, list[RegionAnnotation]] = {name: [] for name in SPLITS}
    for name in SPLITS:
        for i, entry in enumerate(doc.get(name, [])):
            region = _region_from_dict(entry, f"{path}: {name}[{i}]")
            if name != "unlabeled" and "status" not in entry:
                raise ManifestError(
                    f"{path}: {name}[{i}] has no status key; give null to mark it unlabeled"
                )
            if region.image_ref not in image_paths:
                raise ManifestError(
                    f"{path}: {name}[{i}] references unknown image {region.image_ref!r}"
                )
            if region.status is None:
                splits["unlabeled"].append(region)  # null status routes to unlabeled
            else:
                if name == "unlabeled":
                    raise ManifestError(
                        f"{path}: unlabeled[{i}] carries a status; drop it or move the region"
                    )
                splits[name].append(region)
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
