"""Radiometric thermal images, region annotations, and dataset manifests.

A thermal image is a matrix of already-calibrated temperatures in degrees
Celsius. Images travel as RTM text files: a "width,height" header line
followed by one comma-separated row of temperatures per image row. Values
are written with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .taxonomy import (
    EquipmentType,
    Status,
    SubcategoryId,
    check_keys,
    parse_equipment_type,
    parse_status,
    read_scalar,
    write_json,
)

BBox = tuple[int, int, int, int]


class InputFormatError(Exception):
    """A problem with the content of an input file (RTM or manifest)."""


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


class ManifestError(InputFormatError):
    """Malformed or inconsistent dataset manifest."""


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
    header, a row of the wrong length, or a non-numeric / non-finite cell.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise RtmFormatError(path, "empty file", row=1)
    width, height = _parse_rtm_header(path, lines[0])
    rows = lines[1:]
    if len(rows) != height:
        raise RtmFormatError(
            path, f"expected {height} data rows, found {len(rows)}", row=len(lines)
        )
    temps = None
    # numpy converts each cell as float() does; the row check keeps a long
    # row and a short row from passing as a right-sized total
    if all(line.count(",") == width - 1 for line in rows):
        try:
            temps = np.array(",".join(rows).split(","), dtype=np.float64).reshape(height, width)
        except ValueError:
            pass  # the cell loop names the bad cell
    if temps is None or not np.isfinite(temps).all():
        temps = _parse_rtm_cells(path, rows, width)
    return ThermalImage(width, height, temps, source_id or path.stem)


def _parse_rtm_cells(path, rows: list[str], width: int) -> np.ndarray:
    """Cell-by-cell parse that reports the line and column of the first bad cell."""
    temps = np.empty((len(rows), width), dtype=np.float64)
    for r, line in enumerate(rows, start=1):
        cells = line.split(",")
        if len(cells) != width:
            raise RtmFormatError(
                path, f"row has {len(cells)} values, expected {width}", row=r + 1
            )
        for c, cell in enumerate(cells):
            try:
                value = float(cell)
            except ValueError:
                raise RtmFormatError(
                    path, f"non-numeric cell {cell.strip()!r}", row=r + 1, col=c + 1
                ) from None
            if not np.isfinite(value):
                raise RtmFormatError(path, f"non-finite cell {cell.strip()!r}", row=r + 1, col=c + 1)
            temps[r - 1, c] = value
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
    path = Path(path)
    row_format = ",".join(["%.17g"] * img.width)
    rows = [f"{img.width},{img.height}"]
    rows.extend(row_format % tuple(row) for row in img.temps.tolist())
    path.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")


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


@dataclass(frozen=True)
class DatasetManifest:
    """Labeled / unlabeled / test region splits plus image id -> path map."""

    labeled: tuple[RegionAnnotation, ...]
    unlabeled: tuple[RegionAnnotation, ...]
    test: tuple[RegionAnnotation, ...]
    image_paths: dict[str, Path] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "labeled", tuple(self.labeled))
        object.__setattr__(self, "unlabeled", tuple(self.unlabeled))
        object.__setattr__(self, "test", tuple(self.test))
        for name, split in (("labeled", self.labeled), ("test", self.test)):
            for region in split:
                if region.status is None:
                    raise ManifestError(f"{name} region {region.key()} has no status")
        for region in self.unlabeled:
            if region.status is not None:
                raise ManifestError(f"unlabeled region {region.key()} carries a status")
        seen: dict[tuple, str] = {}
        for name, split in (
            ("labeled", self.labeled),
            ("unlabeled", self.unlabeled),
            ("test", self.test),
        ):
            for region in split:
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


def load_manifest(path, image_root=None) -> DatasetManifest:
    """Load a manifest JSON file and check that its images exist.

    Regions with a null status land in the unlabeled split regardless of
    the list they were declared in. Image paths are resolved relative to
    image_root (default: the manifest's directory). No image is opened
    here: whoever loads the images checks each bbox against its image's
    size (harness.extract_features does).
    """
    path = Path(path)
    root = Path(image_root) if image_root is not None else path.parent
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ManifestError(f"{path}: not valid JSON ({exc})") from None
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
        image_paths[img_id] = root / rel

    for img_id, img_path in image_paths.items():
        if not img_path.exists():
            raise ManifestError(f"{path}: image {img_id!r} not found at {img_path}")

    splits: dict[str, list[RegionAnnotation]] = {"labeled": [], "unlabeled": [], "test": []}
    for name in ("labeled", "unlabeled", "test"):
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
    return DatasetManifest(
        tuple(splits["labeled"]), tuple(splits["unlabeled"]), tuple(splits["test"]), image_paths
    )


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return {
        "images": [
            {"id": img_id, "path": str(p)} for img_id, p in sorted(manifest.image_paths.items())
        ],
        "labeled": [r.to_dict() for r in manifest.labeled],
        "unlabeled": [r.to_dict() for r in manifest.unlabeled],
        "test": [r.to_dict() for r in manifest.test],
    }


def save_manifest(manifest: DatasetManifest, path) -> None:
    write_json(path, manifest_to_dict(manifest))
