"""Synthetic feature-map datasets and tensor-container ingestion.

Three generator families probe how heads use (or ignore) spatial
structure:

* gaussian-prototype: each class has fixed per-location prototype rows;
  items add isotropic noise. Separable by essentially any head.
* pose-permutation: each class is a fixed multiset of distinct location
  features; every item shuffles them across locations. Heads that key on
  feature location fail here; pooled and reconstruction heads do not.
* equal-mean-multiset: all classes share the same location-wise mean
  but differ as multisets, built from a common orthonormal base with a
  paired +/- delta perturbation along a class-specific direction. Average
  pooling is blind to these classes by construction; reconstruction of
  the full map is not.

Datasets are stored as a single little-endian tensor container of shape
(n_items, r, d) with a CSV label manifest alongside:

    magic 'FRNTENS1' | u32 version | u32 dtype (1=f32, 2=f64) |
    u32 rank | u32 dims... | payload (C order) | u32 crc32

The CRC covers every byte before it. The manifest at <path>.labels.csv
holds a header plus one 'item_index,class_id' row per item.
"""

from __future__ import annotations

import binascii
import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .episodes import Dataset
from .head import FeatureMap

MAGIC = b"FRNTENS1"
VERSION = 1
_DTYPE_TAGS = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_TAG_OF = {np.dtype(np.float32): 1, np.dtype(np.float64): 2}

GEN_KINDS = ("gaussian-prototype", "pose-permutation", "equal-mean-multiset")

#: magnitude of the paired perturbation in the equal-mean construction,
#: relative to the unit-norm base rows
EQUAL_MEAN_DELTA = 1.0


class GenerationError(ValueError):
    """The requested synthetic construction is infeasible."""


class IngestError(ValueError):
    """Malformed container or manifest; ``byte_offset`` locates the problem."""

    def __init__(self, message: str, byte_offset: int | None = None):
        super().__init__(message)
        self.byte_offset = byte_offset


@dataclass(frozen=True)
class GenSpec:
    n_classes: int
    items_per_class: int
    r: int
    d: int
    noise_sigma: float
    kind: str
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise ValueError(f"kind must be one of {GEN_KINDS}, got {self.kind!r}")
        if min(self.n_classes, self.items_per_class, self.r, self.d) < 1:
            raise ValueError("all counts must be >= 1")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")


def _assemble(latents: list[np.ndarray], spec: GenSpec, rng, permute: bool) -> Dataset:
    classes = {}
    r = spec.r
    for c, latent in enumerate(latents):
        maps = []
        for _ in range(spec.items_per_class):
            rows = latent[rng.permutation(r)] if permute else latent
            noisy = rows + spec.noise_sigma * rng.standard_normal(rows.shape)
            maps.append(FeatureMap(values=noisy))
        classes[c] = maps
    return Dataset(classes=classes)


def gen_gaussian(spec: GenSpec) -> Dataset:
    """Per-location Gaussian prototypes, unit-scale rows, isotropic noise."""
    rng = np.random.default_rng(spec.seed)
    latents = [
        rng.standard_normal((spec.r, spec.d)) / math.sqrt(spec.d)
        for _ in range(spec.n_classes)
    ]
    return _assemble(latents, spec, rng, permute=False)


def gen_pose_permutation(spec: GenSpec) -> Dataset:
    """Class-specific multisets of distinct rows, shuffled across locations."""
    if spec.r < 2:
        raise GenerationError("pose permutation needs r >= 2")
    rng = np.random.default_rng(spec.seed)
    latents = [
        rng.standard_normal((spec.r, spec.d)) / math.sqrt(spec.d)
        for _ in range(spec.n_classes)
    ]
    return _assemble(latents, spec, rng, permute=True)


def equal_mean_latents(spec: GenSpec, rng=None) -> list[np.ndarray]:
    """Noiseless class signatures sharing an identical row sum.

    The base is an orthonormal set of r rows; class c adds +delta u_c to
    the first row and -delta u_c to the second, with u_c orthonormal to
    everything else. Row sums are identical across classes exactly.
    """
    if spec.r < 2 or spec.n_classes < 2:
        raise GenerationError("equal-mean construction needs r >= 2 and n_classes >= 2")
    if spec.r + spec.n_classes > spec.d:
        raise GenerationError(
            f"equal-mean construction needs r + n_classes <= d, "
            f"got {spec.r} + {spec.n_classes} > {spec.d}"
        )
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    q, _ = np.linalg.qr(rng.standard_normal((spec.d, spec.d)))
    base = q[: spec.r]
    directions = q[spec.r : spec.r + spec.n_classes]
    latents = []
    for c in range(spec.n_classes):
        latent = base.copy()
        latent[0] += EQUAL_MEAN_DELTA * directions[c]
        latent[1] -= EQUAL_MEAN_DELTA * directions[c]
        latents.append(latent)
    return latents


def gen_equal_mean(spec: GenSpec) -> Dataset:
    """Classes with identical location-wise means but distinct multisets."""
    rng = np.random.default_rng(spec.seed)
    latents = equal_mean_latents(spec, rng)
    return _assemble(latents, spec, rng, permute=True)


_GENERATORS = {
    "gaussian-prototype": gen_gaussian,
    "pose-permutation": gen_pose_permutation,
    "equal-mean-multiset": gen_equal_mean,
}


def generate(spec: GenSpec) -> Dataset:
    return _GENERATORS[spec.kind](spec)


# ---------------------------------------------------------------------------
# container IO


def manifest_path(path) -> Path:
    return Path(str(path) + ".labels.csv")


def save_dataset(path, ds: Dataset, dtype=np.float64):
    """Write a dataset tensor container plus its CSV label manifest."""
    dtype = np.dtype(dtype)
    if dtype not in _TAG_OF:
        raise ValueError(f"unsupported dtype {dtype}")
    items = []
    labels = []
    for cid in sorted(ds.classes):
        for m in ds.classes[cid]:
            items.append(m.values)
            labels.append(cid)
    tensor = np.stack(items, dtype=dtype.newbyteorder("<"))  # C-ordered, little-endian
    dims = tensor.shape
    header = MAGIC + struct.pack("<III", VERSION, _TAG_OF[dtype], len(dims))
    header += struct.pack(f"<{len(dims)}I", *dims)
    crc = binascii.crc32(tensor.data, binascii.crc32(header)) & 0xFFFFFFFF
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(tensor.data)
        fh.write(struct.pack("<I", crc))
    with open(manifest_path(path), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item_index", "class_id"])
        for i, cid in enumerate(labels):
            writer.writerow([i, cid])


def _read_exact(blob: bytes, offset: int, count: int, what: str) -> memoryview:
    """``count`` bytes of ``blob`` at ``offset``, as a view: the payload is not copied."""
    if offset + count > len(blob):
        raise IngestError(
            f"truncated container while reading {what} "
            f"(needed {count} bytes at offset {offset})",
            byte_offset=offset,
        )
    return memoryview(blob)[offset : offset + count]


def load_tensor(path) -> np.ndarray:
    """Read and validate a tensor container; errors carry byte offsets.

    The result is in native byte order. On a little-endian host it is a
    read-only view of the bytes read from the file, so the payload is
    not copied here; a caller that needs a writable array copies it
    (``ingest`` does, once per item, in ``Dataset.from_arrays``).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if _read_exact(blob, 0, 8, "magic") != MAGIC:
        raise IngestError(f"{path} has bad magic {blob[:8]!r}", byte_offset=0)
    version, dtype_tag, rank = struct.unpack("<III", _read_exact(blob, 8, 12, "header"))
    if version != VERSION:
        raise IngestError(f"unsupported container version {version}", byte_offset=8)
    if dtype_tag not in _DTYPE_TAGS:
        raise IngestError(f"unknown dtype tag {dtype_tag}", byte_offset=12)
    if rank < 1 or rank > 8:
        raise IngestError(f"implausible rank {rank}", byte_offset=16)
    dims_off = 20
    dims = struct.unpack(
        f"<{rank}I", _read_exact(blob, dims_off, 4 * rank, "dimensions")
    )
    if 0 in dims:
        axis = dims.index(0)
        raise IngestError(f"dimension {axis} has size 0", byte_offset=dims_off + 4 * axis)
    dtype = _DTYPE_TAGS[dtype_tag]
    payload_off = dims_off + 4 * rank
    nbytes = math.prod(dims) * dtype.itemsize  # Python ints: no int64 wrap-around
    payload = _read_exact(blob, payload_off, nbytes, "payload")
    crc_off = payload_off + nbytes
    (crc_stored,) = struct.unpack("<I", _read_exact(blob, crc_off, 4, "checksum"))
    if binascii.crc32(memoryview(blob)[:crc_off]) & 0xFFFFFFFF != crc_stored:
        raise IngestError("checksum mismatch", byte_offset=crc_off)
    tensor = np.frombuffer(payload, dtype=dtype).reshape(dims)
    finite = np.isfinite(tensor)
    if not finite.all():
        first_bad = int(np.argmin(finite.reshape(-1)))
        raise IngestError(
            f"non-finite value at flat index {first_bad}",
            byte_offset=payload_off + first_bad * dtype.itemsize,
        )
    return tensor.astype(tensor.dtype.newbyteorder("="), copy=False)


def ingest(path, dtype=None) -> Dataset:
    """Load a dataset from a tensor container and its label manifest.

    The maps keep the container's dtype unless ``dtype`` is given, in
    which case the whole tensor is cast to it once.
    """
    tensor = load_tensor(path)
    if dtype is not None:
        tensor = tensor.astype(dtype, copy=False)
    if tensor.ndim != 3:
        raise IngestError(f"dataset tensor must be rank 3, got rank {tensor.ndim}", byte_offset=16)
    mpath = manifest_path(path)
    if not mpath.exists():
        raise IngestError(f"missing label manifest {mpath}")
    labels = [None] * tensor.shape[0]
    with open(mpath, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["item_index", "class_id"]:
            raise IngestError(f"manifest header must be item_index,class_id, got {header}")
        for row in reader:
            try:
                idx, cid = map(int, row)
            except ValueError:
                raise IngestError(f"malformed manifest row {row!r}") from None
            if not (0 <= idx < tensor.shape[0]):
                raise IngestError(f"manifest item_index {idx} out of range")
            if labels[idx] is not None:
                raise IngestError(f"duplicate manifest entry for item {idx}")
            labels[idx] = cid
    if any(l is None for l in labels):
        missing = labels.index(None)
        raise IngestError(f"manifest missing a label for item {missing}")
    return Dataset.from_arrays(tensor, labels)
