"""The package's file formats: the bit-exact TNSR tensor container and the
array record inside it, flat ``key = value`` config text, PPM image output,
plus the synthetic shape dataset used for desk-scale training and dataset
directory loading.

Array record (all integers little-endian), shared by TNSR files and
checkpoints:

    dtype   u8       0=float32  1=float64  2=uint8  3=int32
    rank    u8
    dims    u32 * rank
    payload raw element bytes, row-major, little-endian

TNSR container: magic ``b"TNSR"``, u16 version (currently 1), one array
record, then the u32 CRC32 of the record's payload bytes.

Config text: one ``key = value`` per line, ``#`` starts a comment. A value
is parsed by its key's kind; ``config_kinds`` reads the kinds of a config
dataclass from its field annotations, and ``config_field`` puts each key's
help text on its field.

Dataset directory convention: one ``<case_id>.img.tnsr`` (C x H x W float
image in [0,1]) plus one ``<case_id>.msk.tnsr`` (H x W u8 or i32 mask) per
case. Unpaired files are an error.

Mask images are written as binary PPM (P6) using the fixed palette
``MASK_PALETTE`` (class index modulo palette size). Heatmaps map [0,1]
through the 256-entry blue->cyan->yellow->red colormap ``HEAT_COLORMAP``;
see ``_colormap_entry`` for the exact integer formula.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigInvalid, DatasetError, FormatError, VersionError

TNSR_MAGIC = b"TNSR"
TNSR_VERSION = 1

# tag -> little-endian numpy dtype
DTYPE_TAGS = {
    0: np.dtype("<f4"),
    1: np.dtype("<f8"),
    2: np.dtype("u1"),
    3: np.dtype("<i4"),
}
_TAG_FOR_KIND = {(d.kind, d.itemsize): tag for tag, d in DTYPE_TAGS.items()}


def _tag_for(arr: np.ndarray) -> int:
    key = (arr.dtype.kind, arr.dtype.itemsize)
    if key not in _TAG_FOR_KIND:
        raise FormatError(f"dtype {arr.dtype} has no TNSR tag (f32/f64/u8/i32 only)")
    return _TAG_FOR_KIND[key]


def pack_array(arr: np.ndarray) -> tuple[bytes, bytes]:
    """The array record of ``arr`` as (header, payload) bytes."""
    tag = _tag_for(arr)
    head = struct.pack(f"<BB{arr.ndim}I", tag, arr.ndim, *arr.shape)
    return head, arr.astype(DTYPE_TAGS[tag], copy=False).tobytes()


def unpack_array(blob: bytes, offset: int, source) -> tuple[np.ndarray, int]:
    """The array record at ``offset`` of ``blob`` and the offset just past it.
    Raises FormatError, naming ``source``, on an unknown dtype tag, a rank
    numpy cannot hold, or a record that runs past the end of ``blob``."""
    try:
        tag, rank = struct.unpack_from("<BB", blob, offset)
        dims = struct.unpack_from(f"<{rank}I", blob, offset + 2)
    except struct.error as exc:
        raise FormatError(f"{source}: truncated header") from exc
    if tag not in DTYPE_TAGS:
        raise FormatError(f"{source}: unknown dtype tag {tag}")
    offset += 2 + 4 * rank
    dtype = DTYPE_TAGS[tag]
    n_bytes = math.prod(dims) * dtype.itemsize  # Python ints: a product of u32 dims cannot wrap
    if offset + n_bytes > len(blob):
        raise FormatError(f"{source}: truncated payload")
    try:
        arr = np.frombuffer(memoryview(blob)[offset:offset + n_bytes], dtype=dtype).reshape(dims)
    except ValueError as exc:  # more dims than numpy supports
        raise FormatError(f"{source}: {exc}") from exc
    return arr.copy(), offset + n_bytes


def write_tensor(path, array: np.ndarray) -> None:
    """Write an array to the TNSR container; exact round trip guaranteed."""
    head, payload = pack_array(np.asarray(array))
    with open(path, "wb") as f:
        f.write(TNSR_MAGIC + struct.pack("<H", TNSR_VERSION) + head)
        f.write(payload)
        f.write(struct.pack("<I", zlib.crc32(payload)))


def read_tensor(path) -> np.ndarray:
    """Read a TNSR container; raises FormatError on corruption or truncation
    and VersionError on an unsupported version."""
    blob = Path(path).read_bytes()
    if len(blob) < 8 or blob[:4] != TNSR_MAGIC:
        raise FormatError(f"{path}: not a TNSR file")
    (version,) = struct.unpack_from("<H", blob, 4)
    if version != TNSR_VERSION:
        raise VersionError(version, TNSR_VERSION)
    arr, end = unpack_array(blob, 6, path)
    if len(blob) != end + 4:
        raise FormatError(f"{path}: payload length mismatch")
    (crc,) = struct.unpack_from("<I", blob, end)
    if crc != zlib.crc32(memoryview(blob)[end - arr.nbytes:end]):
        raise FormatError(f"{path}: CRC mismatch")
    return arr


def read_image(path) -> np.ndarray:
    """A C x H x W float32 image from a TNSR file; a 2-D file is one channel.
    Raises FormatError, naming the file, if the float32 image is not finite
    (a float64 value beyond float32 range overflows to inf)."""
    with np.errstate(over="ignore"):
        image = read_tensor(path).astype(np.float32)
    if not np.all(np.isfinite(image)):
        raise FormatError(f"{path}: image is not finite in float32")
    return image[None] if image.ndim == 2 else image


# ---------------------------------------------------------------------------
# flat "key = value" config text
# ---------------------------------------------------------------------------

# field annotation -> value kind
_KIND_OF_ANNOTATION = {
    "int": "int",
    "float": "float",
    "bool": "bool",
    "str": "str",
    "Optional[int]": "optint",
    "Optional[tuple]": "intlist",
}


# help of the seed key, which both config dataclasses carry
SEED_HELP = "seed for init, batching, augmentation, dropout"


def config_field(default, help: str):
    """A config dataclass field whose ``help`` text ``tfcns --help`` lists."""
    return field(default=default, metadata={"help": help})


def config_kinds(cls) -> dict:
    """Field name -> value kind of a config dataclass, in field order."""
    return {f.name: _KIND_OF_ANNOTATION[f.type] for f in fields(cls)}


def parse_config_value(key: str, kind: str, text: str):
    """The value of ``text`` as ``kind``; 'auto' is None for the optional
    kinds. Raises ConfigInvalid naming the key."""
    text = text.strip()
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(text)
        if kind == "optint":
            return None if text == "auto" else int(text)
        if kind == "intlist":
            return None if text == "auto" else tuple(int(v) for v in text.split(","))
        return text  # str, path
    except ValueError as exc:
        raise ConfigInvalid(f"config key {key!r}: cannot parse {text!r} as {kind}") from exc


def format_config_value(value) -> str:
    """Inverse of parse_config_value."""
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(str(v) for v in value)
    return str(value)


def format_config_text(items) -> str:
    """Config text with one line per (key, value) item."""
    return "".join(f"{key} = {format_config_value(value)}\n" for key, value in items)


def read_config_lines(text: str, source) -> list[tuple[str, str]]:
    """The (key, unparsed value) pairs of config text, in order. Raises
    ConfigInvalid, naming ``source`` and the line, on a line without '='."""
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigInvalid(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        pairs.append((key, value))
    return pairs


# ---------------------------------------------------------------------------
# image output
# ---------------------------------------------------------------------------

MASK_PALETTE = (
    (0, 0, 0),        # 0 background
    (230, 25, 75),    # 1 red
    (60, 180, 75),    # 2 green
    (255, 225, 25),   # 3 yellow
    (0, 130, 200),    # 4 blue
    (245, 130, 48),   # 5 orange
    (145, 30, 180),   # 6 purple
    (70, 240, 240),   # 7 cyan
    (240, 50, 230),   # 8 magenta
    (128, 128, 128),  # 9 gray
)


def _colormap_entry(i: int) -> tuple[int, int, int]:
    if i < 85:
        return (0, i * 3, 255)
    if i < 170:
        return ((i - 85) * 3, 255, 255 - (i - 85) * 3)
    return (255, 255 - min((i - 170) * 3, 255), 0)


HEAT_COLORMAP = tuple(_colormap_entry(i) for i in range(256))


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary PPM (P6), 8 bits per channel."""
    rgb = np.asarray(rgb, dtype=np.uint8)
    if rgb.ndim != 3 or rgb.shape[2] != 3:
        raise FormatError(f"PPM writer needs H x W x 3, got {rgb.shape}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(rgb.tobytes())


def write_mask_image(path, mask: np.ndarray) -> None:
    """Class-index mask -> colored PPM via the (documented) fixed palette."""
    palette = np.asarray(MASK_PALETTE, dtype=np.uint8)
    mask = np.asarray(mask, dtype=np.int64) % len(palette)
    write_ppm(path, palette[mask])


def _heat_to_rgb(heatmap: np.ndarray) -> np.ndarray:
    table = np.asarray(HEAT_COLORMAP, dtype=np.uint8)
    idx = np.clip(np.rint(np.asarray(heatmap, dtype=np.float64) * 255), 0, 255).astype(np.int64)
    return table[idx]


def write_heatmap(path, heatmap: np.ndarray) -> None:
    """[0,1] heat values through the blue->red colormap."""
    write_ppm(path, _heat_to_rgb(heatmap))


def write_cam_overlay(path, heatmap: np.ndarray, threshold: float = 0.4,
                      image: Optional[np.ndarray] = None) -> None:
    """Activation overlay: pixels with heat strictly above the threshold show
    the colormapped heat; pixels at or below it show the grayscale base image,
    or black when no image is given."""
    heat = np.asarray(heatmap, dtype=np.float64)
    active = heat > threshold
    if image is None:
        base = np.zeros(heat.shape + (3,), dtype=np.uint8)
    else:
        img = np.asarray(image, dtype=np.float64)
        gray = img.mean(axis=0) if img.ndim == 3 else img
        base = np.repeat(
            np.clip(np.rint(gray * 255), 0, 255).astype(np.uint8)[..., None], 3, axis=2
        )
    rgb = np.where(active[..., None], _heat_to_rgb(heat), base)
    write_ppm(path, rgb)


# ---------------------------------------------------------------------------
# dataset types, synthetic generator, directory IO
# ---------------------------------------------------------------------------

@dataclass
class SegmentationPair:
    """One dataset case: C x H x W image in [0,1] plus an H x W integer mask."""

    image: np.ndarray
    mask: np.ndarray
    case_id: str

    def __post_init__(self):
        if self.image.ndim != 3 or self.mask.ndim != 2 or self.image.shape[1:] != self.mask.shape:
            raise DatasetError(
                f"{self.case_id}: image {self.image.shape} / mask {self.mask.shape} do not align"
            )


@dataclass
class SyntheticSpec:
    """Recipe for the synthetic shape dataset: per case, one instance of each
    foreground class's shape family (disk / rectangle / ring, assigned
    round-robin) placed in disjoint grid cells, with class-dependent image
    intensity plus Gaussian noise."""

    n_cases: int = 8
    height: int = 32
    width: int = 32
    num_classes: int = 4
    noise_sigma: float = 0.02
    seed: int = 0
    radius_min: int = 3
    radius_max: int = 5


_FAMILIES = ("disk", "rect", "ring")


def _rasterize(family: str, cy: int, cx: int, r: int,
               yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    d2 = (yy - cy) ** 2 + (xx - cx) ** 2
    if family == "disk":
        return d2 <= r * r
    if family == "rect":
        return (np.abs(yy - cy) <= r) & (np.abs(xx - cx) <= r)
    inner = max(1, r // 2)
    return (d2 <= r * r) & (d2 > inner * inner)


def class_intensity(cls: int, num_classes: int) -> float:
    """Mean image intensity of a class region: evenly spaced in (0,1)."""
    return (cls + 0.5) / num_classes


def generate_synthetic(spec: SyntheticSpec) -> list[SegmentationPair]:
    """Deterministic synthetic dataset; every class occurs in every case."""
    n_fg = spec.num_classes - 1
    if n_fg < 1:
        raise ConfigInvalid("synthetic dataset needs at least one foreground class")
    grid = int(np.ceil(np.sqrt(n_fg)))
    cell_h, cell_w = spec.height // grid, spec.width // grid
    if spec.radius_max * 2 + 1 > min(cell_h, cell_w):
        raise ConfigInvalid(
            f"radius_max {spec.radius_max} does not fit {cell_h}x{cell_w} placement cells"
        )
    rng = np.random.default_rng(spec.seed)
    yy, xx = np.mgrid[0:spec.height, 0:spec.width]
    pairs = []
    for i in range(spec.n_cases):
        mask = np.zeros((spec.height, spec.width), dtype=np.int32)
        for c in range(1, spec.num_classes):
            cell = c - 1
            oy, ox = (cell // grid) * cell_h, (cell % grid) * cell_w
            r = int(rng.integers(spec.radius_min, spec.radius_max + 1))
            cy = oy + r + int(rng.integers(0, cell_h - 2 * r))
            cx = ox + r + int(rng.integers(0, cell_w - 2 * r))
            family = _FAMILIES[(c - 1) % len(_FAMILIES)]
            mask[_rasterize(family, cy, cx, r, yy, xx)] = c
        levels = np.array([class_intensity(c, spec.num_classes) for c in range(spec.num_classes)])
        image = levels[mask]
        if spec.noise_sigma > 0:
            image = image + rng.normal(0.0, spec.noise_sigma, size=image.shape)
        image = np.clip(image, 0.0, 1.0).astype(np.float32)[None, :, :]
        pairs.append(SegmentationPair(image=image, mask=mask, case_id=f"case{i:03d}"))
    return pairs


def save_dataset(directory, pairs: Sequence[SegmentationPair]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for pair in pairs:
        write_tensor(directory / f"{pair.case_id}.img.tnsr", pair.image.astype(np.float32))
        write_tensor(directory / f"{pair.case_id}.msk.tnsr", pair.mask.astype(np.int32))


def load_dataset(directory) -> list[SegmentationPair]:
    """Pairs ``<id>.img.tnsr`` with ``<id>.msk.tnsr``; any orphan file, or a
    mask that is not u8 or i32, is an error naming the offender. Cases come
    back sorted by id."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DatasetError(f"dataset directory not found: {directory}")
    images = {p.name[:-len(".img.tnsr")]: p for p in directory.glob("*.img.tnsr")}
    masks = {p.name[:-len(".msk.tnsr")]: p for p in directory.glob("*.msk.tnsr")}
    for stem, path in sorted(images.items()):
        if stem not in masks:
            raise DatasetError(f"orphan image file without mask: {path.name}")
    for stem, path in sorted(masks.items()):
        if stem not in images:
            raise DatasetError(f"orphan mask file without image: {path.name}")
    pairs = []
    for stem in sorted(images):
        image = read_image(images[stem])
        mask = read_tensor(masks[stem])
        if mask.dtype not in (np.uint8, np.int32):
            raise DatasetError(f"{masks[stem]}: mask dtype {mask.dtype} is not u8 or i32")
        mask = mask.astype(np.int32)
        pairs.append(SegmentationPair(image=image, mask=mask, case_id=stem))
    return pairs

