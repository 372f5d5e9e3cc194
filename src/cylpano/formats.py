"""Binary and structured-text codecs for every pipeline artifact.

All binary formats are little-endian with a 4-byte magic followed by explicit
shapes, so round-trips are bit-exact across platforms. After the header each
field is one contiguous row-major block, in the order listed:

  PLC2  point cloud: u32 count; f32 x,y,z; f32 intensity; u16 sem; u16 inst
  FMAP  feature maps: u32 K,H',W',D; f32 data
  TOK2  fused tokens: u32 count, D; u16 r,theta,z; 2*D f32 content
  MSK2  2D mask, RLE: u32 cam,H,W, run count; u32 runs starting with zeros
  QRY3  queries: u32 n_prior,n_noprior,n_semantic,D; per prior query f32 x,y,z;
        f32 confidence; u8 origin; 2*D f32 content; D f32 spe; then the
        no-prior and semantic vectors, D f32 each
  PVX2  per-voxel provenance: u32 count; u16 r,theta,z; u8 tag
  SPEW  embedding weights: u32 dim; shape-prefixed f64 blocks

The older per-record layouts PLCD, TOKS, PVOX and QRY2 have the same sizes as
these, so only the magic tells them apart; they and QRYS raise `BadMagicError`.

Camera calibrations are JSON (numbers parse as 64-bit floats), as are stage
summaries and eval reports; class tables are INI and images binary PPM (P6).

Codecs open files to read only through `_open`, and write them only through
`_writing`, which sends the bytes through one sha256. Both add to the running
stage's `recording()`, the paths read and the digests written, which is all a
manifest lists. A digest is also kept under the file's stat key, so a later
stage need not read the file back to hash it; `file_sha256` says when it holds.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import locale
import math
import os
import re
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import BadConfigError, BadMagicError, ShapeMismatchError, TruncatedFileError
from .geometry import CameraModel
from .grid import PointCloud
from .metrics import ClassTable
from .queries import LocationHint, Mask2D, QuerySet
from .tokens import SpeParams, TokenSet

ORIGIN_CODES = {"geometric": 0, "texture": 1}
ORIGIN_NAMES = {v: k for k, v in ORIGIN_CODES.items()}
_PPM_GAP = rb"(?:\s|#[^\r\n]*[\r\n])+"  # whitespace and `#` comments, each to the end of its line
# width, height and maxval, each after a gap, then one whitespace byte: a `#` after it is pixel data
PPM_HEADER = re.compile(rb"P6%s(\d+)%s(\d+)%s(\d+)\s" % (_PPM_GAP, _PPM_GAP, _PPM_GAP))


class _Reader:
    """Reads an open binary file straight into its arrays, each size checked against the file's first."""

    def __init__(self, f, path):
        self.f = f
        self.path = path
        self.size = os.fstat(f.fileno()).st_size
        self.off = 0

    def _claim(self, n: int):
        """Count the next `n` bytes as read, or raise before anything is allocated for them."""
        if self.off + n > self.size:
            raise TruncatedFileError(f"{self.path}: needs {self.off + n} bytes, has {self.size}")
        self.off += n

    def _fill(self, out: np.ndarray):
        if self.f.readinto(out) != out.nbytes:  # the file shrank after it was opened
            raise TruncatedFileError(f"{self.path}: needs {self.off} bytes, read fewer")

    def take(self, n: int) -> bytes:
        self._claim(n)
        return self.f.read(n)

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def array(self, dtype, *shape: int) -> np.ndarray:
        """The next block: a `shape` array of `dtype`, read into the array returned."""
        dtype = np.dtype(dtype)
        self._claim(dtype.itemsize * math.prod(shape))  # exact, where np.prod wraps
        out = np.empty(shape, dtype)
        self._fill(out)
        return out

    def done(self):
        if self.off != self.size:
            raise ShapeMismatchError(f"{self.path}: {self.size - self.off} trailing bytes")


def _u32(*vals) -> bytes:
    return np.asarray(vals, dtype="<u4").tobytes()


_RUNS: list[tuple[dict[str, None], dict[Path, str]]] = []  # a record per stage running, innermost last


@contextlib.contextmanager
def recording():
    """({path read: None}, {path written: its sha256}) through the codecs until the block ends, each block its own."""
    _RUNS.append(({}, {}))
    try:
        yield _RUNS[-1]
    finally:
        _RUNS.pop()


def _open(path):
    """`path` opened for binary reading, and recorded as read by the running stage."""
    f = open(path, "rb")
    if _RUNS:
        _RUNS[-1][0][str(path)] = None
    return f


@contextlib.contextmanager
def _read(path, magic: bytes, n: int):
    """A reader over the open file past its 4-byte `magic` and `n` u32 header fields, and those fields.

    The `with` body reads the payload; leaving it checks that no byte is left over.
    """
    with _open(path) as f:
        r = _Reader(f, path)
        got = r.take(4)
        if got != magic:
            raise BadMagicError(f"{path}: expected magic {magic!r}, got {got!r}")
        yield r, [r.u32() for _ in range(n)]
        r.done()


_MEMO_FILES = 1024  # digests kept: the files most recently written or hashed, so a long batch stays bounded


@dataclass(slots=True)
class _Digest:
    key: tuple  # the file's `_stat_key` when `sha256` was taken
    sha256: str
    seal: int | None = None  # `st_mtime_ns` of the first manifest written after it was recorded


# by (st_dev, st_ino), oldest first: each digest is recorded at the end, so the unsealed ones are a suffix
_DIGESTS: OrderedDict[tuple[int, int], _Digest] = OrderedDict()


def _stat_key(path) -> tuple[int, int, int, int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_ctime_ns


def _record(key: tuple, sha256: str):
    _DIGESTS.pop(key[:2], None)
    _DIGESTS[key[:2]] = _Digest(key, sha256)
    if len(_DIGESTS) > _MEMO_FILES:
        _DIGESTS.popitem(last=False)


def _hash_file(path, key: tuple) -> str:
    """The sha256 of the file's bytes, read in 1 MiB chunks; recorded if its stat key is still `key`."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            h.update(chunk)
    digest = h.hexdigest()
    if _stat_key(path) == key:  # else it changed while it was read
        _record(key, digest)
    return digest


def file_sha256(path) -> str:
    """The sha256 of the file at `path`, hashed only when no recorded digest still holds for it.

    A digest holds while the file's stat key is the one recorded with it and
    the file's mtime is strictly older than the digest's seal, the manifest
    written after the digest was recorded. The seal is git's racy-clean rule,
    with the manifest as the index: a change after the seal moves the mtime to
    the seal's tick or later. An unsealed digest never holds.
    """
    key = _stat_key(path)
    entry = _DIGESTS.get(key[:2])
    if entry is not None and entry.key == key and entry.seal is not None and key[3] < entry.seal:
        return entry.sha256
    return _hash_file(path, key)


def seal(path):
    """Seal every digest recorded since the last seal with the mtime of `path`, a file written after them."""
    mtime = os.stat(path).st_mtime_ns
    for entry in reversed(_DIGESTS.values()):
        if entry.seal is not None:
            break
        entry.seal = mtime


@contextlib.contextmanager
def _writing(path):
    """`write(data)` into a new file at `path`; the bytes pass through one sha256, recorded as the file's digest
    in the memo and as written by the running stage."""
    h = hashlib.sha256()
    with open(path, "wb") as f:
        def write(data):
            h.update(data)
            f.write(data)
        yield write
    _record(_stat_key(path), h.hexdigest())
    if _RUNS:
        _RUNS[-1][1][Path(path)] = h.hexdigest()


def _write(path, magic: bytes, header, *blocks: np.ndarray):
    """Write `magic`, the u32 `header` fields, then each C-contiguous block's own buffer: no joined copy."""
    with _writing(path) as write:
        write(magic + _u32(*header))
        for a in blocks:
            write(a.data)


def _u16_indices(idx3) -> np.ndarray:
    """(M, 3) voxel indices as a u16 block; raises on any that would wrap."""
    idx3 = np.asarray(idx3, dtype=np.int64).reshape(-1, 3)
    if ((idx3 < 0) | (idx3 > 0xFFFF)).any():
        raise ShapeMismatchError("voxel index does not fit a u16 field (at most 65535 bins per axis)")
    return idx3.astype("<u2")


def write_point_cloud(path, cloud: PointCloud):
    # each field is float32 or uint16 already, so `ascontiguousarray` copies only a strided one
    _write(path, b"PLC2", [len(cloud)], *(np.ascontiguousarray(a, t) for a, t in (
        (cloud.xyz, "<f4"), (cloud.intensity, "<f4"), (cloud.semantic, "<u2"), (cloud.instance, "<u2"))))


def read_point_cloud(path) -> PointCloud:
    with _read(path, b"PLC2", 1) as (r, (n,)):
        fields = r.array("<f4", n, 3), r.array("<f4", n), r.array("<u2", n), r.array("<u2", n)
    try:
        return PointCloud(*fields)
    except ValueError as exc:  # a non-finite coordinate
        raise ShapeMismatchError(f"{path}: {exc}") from exc


def write_feature_maps(path, maps: np.ndarray):
    """Write a (K, H', W', D) float32 tensor."""
    maps = np.ascontiguousarray(maps, dtype="<f4")
    if maps.ndim != 4:
        raise ShapeMismatchError("feature maps must be (K, H', W', D)")
    _write(path, b"FMAP", maps.shape, maps)


def read_feature_maps(path) -> np.ndarray:
    with _read(path, b"FMAP", 4) as (r, (k, h, w, d)):
        data = r.array("<f4", k, h, w, d)
    if min(h, w) < 1:
        raise ShapeMismatchError(f"{path}: {h}x{w} feature maps hold no cell")
    return data


def write_tokens(path, tokens: TokenSet):
    # `build_tokens` content is float32 already, so its own buffer is written
    _write(path, b"TOK2", [len(tokens), tokens.dim], _u16_indices(tokens.indices3),
           np.ascontiguousarray(tokens.content, "<f4"))


def read_tokens(path, spec) -> tuple[np.ndarray, np.ndarray]:
    """Read tokens: returns ((M, 3) voxel indices, (M, 2*D) float32 content)."""
    with _read(path, b"TOK2", 2) as (r, (n, dim)):
        idx3 = r.array("<u2", n, 3).astype(np.int64)
        content = r.array("<f4", n, 2 * dim)
    if (idx3 >= np.array(spec.shape)).any():
        raise ShapeMismatchError("token voxel index outside the grid spec")
    return idx3, content


def write_mask(path, mask: Mask2D):
    flat = mask.bitmap.reshape(-1)
    changes = np.flatnonzero(np.diff(flat))
    bounds = np.concatenate([[0], changes + 1, [len(flat)]])
    runs = np.diff(bounds)
    if len(flat) and flat[0]:
        runs = np.concatenate([[0], runs])  # runs always start with a zero run
    h, w = mask.bitmap.shape
    _write(path, b"MSK2", [mask.camera_id, h, w, len(runs)], runs.astype("<u4"))


def read_mask(path) -> Mask2D:
    with _read(path, b"MSK2", 4) as (r, (cam_id, h, w, n_runs)):
        runs = r.array("<u4", n_runs).astype(np.int64)
    if runs.sum() != h * w:
        raise ShapeMismatchError(f"{path}: runs sum to {runs.sum()}, expected {h * w}")
    flat = np.repeat(np.arange(n_runs) % 2 == 1, runs)  # runs alternate clear, set, clear, ...
    return Mask2D(cam_id, flat.reshape(h, w))


def write_queries(path, qs: QuerySet):
    hints = qs.hints
    _write(path, b"QRY3", [qs.num_prior, len(qs.no_prior), len(qs.semantic), qs.dim],
           np.array([h.position for h in hints], "<f4").reshape(-1, 3),
           np.array([h.confidence for h in hints], "<f4"),
           np.array([ORIGIN_CODES[h.origin] for h in hints], "u1"),
           *(np.ascontiguousarray(a, "<f4") for a in (qs.prior_content, qs.prior_spe, qs.no_prior, qs.semantic)))


def read_queries(path) -> QuerySet:
    with _read(path, b"QRY3", 4) as (r, (n_prior, n_lt, n_sem, dim)):
        xyz, confidence, origin = r.array("<f4", n_prior, 3), r.array("<f4", n_prior), r.array("u1", n_prior)
        content, spe = r.array("<f4", n_prior, 2 * dim), r.array("<f4", n_prior, dim)
        no_prior, semantic = r.array("<f4", n_lt, dim), r.array("<f4", n_sem, dim)
    unknown = ~np.isin(origin, list(ORIGIN_NAMES))
    if unknown.any():
        raise ShapeMismatchError(f"{path}: unknown hint origin code {origin[unknown][0]}")
    hints = [LocationHint(p, float(c), ORIGIN_NAMES[code]) for p, c, code in zip(xyz, confidence, origin)]
    return QuerySet(dim=dim, prior_content=content, prior_spe=spe, hints=hints, no_prior=no_prior, semantic=semantic)


def write_provenance(path, idx3: np.ndarray, tags: np.ndarray):
    idx3, tags = _u16_indices(idx3), np.ascontiguousarray(tags, "u1")
    if tags.shape != (len(idx3),):
        raise ShapeMismatchError(f"{tags.size} source tags for {len(idx3)} voxel indices")
    _write(path, b"PVX2", [len(idx3)], idx3, tags)


def read_provenance(path) -> tuple[np.ndarray, np.ndarray]:
    with _read(path, b"PVX2", 1) as (r, (n,)):
        idx3, tags = r.array("<u2", n, 3), r.array("u1", n)
    return idx3.astype(np.int64), tags


def write_ppm(path, image: np.ndarray):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeMismatchError("PPM images must be (H, W, 3) uint8")
    h, w, _ = image.shape
    with _writing(path) as write:  # the header, then the image's own buffer: no joined copy
        write(f"P6\n{w} {h}\n255\n".encode())
        write(image.data)


def read_ppm(path) -> np.ndarray:
    with _open(path) as f:
        r = _Reader(f, path)
        data = r.array("u1", r.size)  # the whole file, in a writable buffer that the image then views
    if data[:2].tobytes() != b"P6":
        raise BadMagicError(f"{path}: not a binary PPM")
    header = PPM_HEADER.match(data)
    if header is None:
        raise TruncatedFileError(f"{path}: incomplete or malformed PPM header")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise ShapeMismatchError(f"{path}: only maxval 255 supported")
    if len(data) - header.end() < w * h * 3:
        raise TruncatedFileError(f"{path}: PPM payload short")
    return data[header.end():header.end() + w * h * 3].reshape(h, w, 3)


def write_calibration(path, cams: list[CameraModel]):
    payload = {
        "cameras": [
            {
                "K": [float(v) for v in cam.intrinsic.reshape(-1)],
                "T": [float(v) for v in cam.extrinsic.reshape(-1)],
                "width": cam.width,
                "height": cam.height,
                **({} if cam.is_proper else {"mirrored": True}),
            }
            for cam in cams
        ]
    }
    write_json(path, payload)


def read_calibration(path) -> list[CameraModel]:
    try:
        with io.TextIOWrapper(_open(path)) as f:  # decoded as `open(path)` decodes
            payload = json.loads(f.read())
    except (OSError, ValueError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise BadConfigError(f"cannot parse calibration {path}: {exc}") from exc
    cameras = payload.get("cameras", []) if isinstance(payload, dict) else None
    if not isinstance(cameras, list):
        raise BadConfigError(f"{path}: expected an object with a \"cameras\" list")
    cams = []
    for i, entry in enumerate(cameras):
        if not isinstance(entry, dict):
            raise BadConfigError(f"camera {i} in {path}: not an object")
        try:
            K = np.asarray(entry["K"], dtype=np.float64).reshape(3, 3)
            T = np.asarray(entry["T"], dtype=np.float64).reshape(4, 4)
            cam = CameraModel(K, T, int(entry["width"]), int(entry["height"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise BadConfigError(f"camera {i} in {path}: {exc}") from exc
        # flip augmentation writes mirrored extrinsics (det -1) and flags them
        if cam.is_proper == (entry.get("mirrored", False) is True):
            raise BadConfigError(
                f"camera {i} in {path}: \"mirrored\" flag disagrees with the extrinsic's determinant"
            )
        cams.append(cam)
    if not cams:
        raise BadConfigError(f"{path}: no cameras")
    return cams


def write_spe_params(path, params: SpeParams):
    arrays = [np.ascontiguousarray(a, dtype="<f8") for a in (
        params.coord_scales, params.psi_w, params.phi_w1, params.phi_b1, params.phi_w2, params.phi_b2)]
    blocks = [b for a in arrays for b in (np.asarray([a.ndim, *a.shape], dtype="<u4"), a)]  # shape, then data
    _write(path, b"SPEW", [params.dim, len(arrays)], *blocks)


def read_spe_params(path) -> SpeParams:
    arrays = []
    with _read(path, b"SPEW", 2) as (r, (dim, n_arrays)):
        for _ in range(n_arrays):
            ndim = r.u32()
            shape = tuple(r.u32() for _ in range(ndim))
            arrays.append(r.array("<f8", *shape))
    if n_arrays != 6:
        raise ShapeMismatchError(f"{path}: expected 6 weight blocks, found {n_arrays}")
    try:
        return SpeParams(dim, *arrays)
    except ValueError as exc:  # a block of the wrong shape, or a non-finite weight
        raise ShapeMismatchError(f"{path}: {exc}") from exc


def write_json(path, payload):
    with _writing(path) as write:
        write(json.dumps(payload, indent=1).encode())  # ASCII: `json.dumps` escapes the rest


def write_class_table(path, table: ClassTable):
    cp = configparser.ConfigParser(interpolation=None)
    cp["classes"] = {str(cid): f"{name},{kind}" for cid, (name, kind) in sorted(table.entries.items())}
    text = io.StringIO()
    cp.write(text)
    with _writing(path) as write:
        write(text.getvalue().encode(locale.getpreferredencoding(False)))  # as `open(path, "w")` encodes


def read_class_table(path) -> ClassTable:
    cp = configparser.ConfigParser(interpolation=None)
    try:
        with io.TextIOWrapper(_open(path)) as f:  # the locale's encoding and universal newlines, as `cp.read`
            cp.read_file(f, path)
    except OSError as exc:
        raise BadConfigError(f"cannot read class table {path}") from exc
    except configparser.Error as exc:  # no section header, a duplicate key, ...
        raise BadConfigError(f"malformed class table {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise BadConfigError(f"cannot decode class table {path}: {exc}") from exc
    if "classes" not in cp:
        raise BadConfigError("class table needs a [classes] section")
    entries = {}
    for key, value in cp["classes"].items():
        try:
            name, kind = value.split(",")
            entries[int(key)] = (name.strip(), kind.strip())
        except ValueError as exc:
            raise BadConfigError(f"bad class entry {key} = {value}") from exc
    try:
        return ClassTable(entries)
    except ValueError as exc:  # an unknown kind or an id past u16
        raise BadConfigError(f"{path}: {exc}") from exc
