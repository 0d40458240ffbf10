"""Radiometric thermal images, region annotations, and dataset manifests.

A thermal image is a matrix of already-calibrated temperatures in degrees
Celsius. Images travel as RTM text files: a "width,height" header line
followed by one comma-separated row of temperatures per image row. Values
are written with 17 significant digits so a save/load round trip is exact.
"""

from __future__ import annotations

import itertools
import warnings
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
    and (naming only the file) for a file that is not UTF-8. numpy's C
    reader converts the rows; any file it does not read as exactly height
    rows of width finite values goes through _load_thermal_exact, which
    gives the image or the error of a float() loop over the whole file.
    """
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            width, height = _parse_rtm_header(path, fh.readline().rstrip("\n"))
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            seen = itertools.count()  # then next(seen) is the number of lines read
            # loadtxt skips blank lines, and a line with \x1c-\x1f is left out
            # (numpy strips those around a number, float() does not): either
            # leaves fewer rows than lines, which the shape check rejects
            lines = (
                line for line, _ in zip(fh, seen)
                if not ("\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line)
            )
            temps = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
        if next(seen) == height:
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
    for r, line in enumerate(lines[1:], start=2):
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
            temps[r - 2, c] = value
    return ThermalImage(width, height, temps, source_id or path.stem)


def _parse_rtm_header(path, line: str) -> tuple[int, int]:
    try:  # a count of parts other than 2 fails the unpacking
        width, height = map(int, line.split(","))
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


def load_manifest(path) -> DatasetManifest:
    """Load a manifest JSON file and check that its images exist.

    The top level holds at most "images" and the SPLITS, each a list; any
    other key is a ManifestError. Regions with a null status land in the
    unlabeled split regardless of the list they were declared in. Image
    paths are resolved relative to the manifest's directory. No image is
    opened here: whoever loads the images checks each bbox against its
    image's size (harness.extract_features does).
    """
    path = Path(path)
    doc = read_json(path)
    try:  # a misspelled split must fail, not read as an empty one
        check_keys(doc, ("images", *SPLITS), "manifest")
    except ValueError as exc:
        raise ManifestError(f"{path}: {exc}") from None
    for key, value in doc.items():
        if not isinstance(value, list):
            raise ManifestError(f"{path}: manifest {key!r} must be a list, got {value!r}")

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
            try:
                region = RegionAnnotation.from_dict(entry)
            except (ValueError, TypeError) as exc:
                raise ManifestError(f"{path}: {name}[{i}]: {exc}") from None
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
