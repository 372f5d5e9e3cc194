"""Binary and structured-text codecs for every pipeline artifact.

All binary formats are little-endian with a 4-byte magic followed by explicit
shapes, so round-trips are bit-exact across platforms:

  PLCD  point cloud: u32 count; per point f32 x,y,z,intensity, u16 sem, u16 inst
  FMAP  feature maps: u32 K,H',W',D; f32 row-major data
  TOKS  fused tokens: u32 count, D; per token u16 r,theta,z; 2*D f32 content
  MSK2  2D mask, RLE: u32 cam,H,W, run count; u32 runs starting with zeros
  QRY2  queries: u32 n_prior,n_noprior,n_semantic,D; per prior query f32 x,y,z,
        confidence, u8 origin, 2*D f32 content, D f32 spe; then f32 vectors
  PVOX  per-voxel provenance: u32 count; per voxel u16 r,theta,z, u8 tag
  SPEW  embedding weights: u32 dim; shape-prefixed f64 blocks

Camera calibrations are JSON (numbers parse as 64-bit floats); images are
binary PPM (P6).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import BadConfigError, BadMagicError, ShapeMismatchError, TruncatedFileError
from .geometry import CameraModel
from .grid import PointCloud
from .queries import LocationHint, Mask2D, QuerySet
from .tokens import N_BANDS, PHI_HIDDEN, SpeParams, TokenSet

PLCD_DTYPE = np.dtype([("xyz", "<f4", (3,)), ("intensity", "<f4"), ("semantic", "<u2"), ("instance", "<u2")])
PVOX_DTYPE = np.dtype([("idx", "<u2", (3,)), ("tag", "u1")])
ORIGIN_CODES = {"geometric": 0, "texture": 1}
ORIGIN_NAMES = {v: k for k, v in ORIGIN_CODES.items()}


class _Reader:
    """Cursor over a byte buffer with truncation checks."""

    def __init__(self, data: bytes, path):
        self.data = data
        self.off = 0
        self.path = path

    def magic(self, expected: bytes):
        got = self.take(4)
        if got != expected:
            raise BadMagicError(f"{self.path}: expected magic {expected!r}, got {got!r}")

    def take(self, n: int) -> bytes:
        if self.off + n > len(self.data):
            raise TruncatedFileError(f"{self.path}: needs {self.off + n} bytes, has {len(self.data)}")
        out = self.data[self.off:self.off + n]
        self.off += n
        return out

    def u32(self, count: int = 1):
        vals = np.frombuffer(self.take(4 * count), dtype="<u4")
        return int(vals[0]) if count == 1 else vals.astype(np.int64)

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype, count=count)

    def done(self):
        if self.off != len(self.data):
            raise ShapeMismatchError(f"{self.path}: {len(self.data) - self.off} trailing bytes")


def _u32(*vals) -> bytes:
    return np.asarray(vals, dtype="<u4").tobytes()


def _u16_indices(idx3) -> np.ndarray:
    """(M, 3) voxel indices for a u16 record field; raises on any that would wrap."""
    idx3 = np.asarray(idx3, dtype=np.int64).reshape(-1, 3)
    if ((idx3 < 0) | (idx3 > 0xFFFF)).any():
        raise ShapeMismatchError("voxel index does not fit a u16 field (at most 65535 bins per axis)")
    return idx3


def write_point_cloud(path, cloud: PointCloud):
    rec = np.empty(len(cloud), dtype=PLCD_DTYPE)
    rec["xyz"] = cloud.xyz
    rec["intensity"] = cloud.intensity
    rec["semantic"] = cloud.semantic if cloud.semantic is not None else 0
    rec["instance"] = cloud.instance if cloud.instance is not None else 0
    Path(path).write_bytes(b"PLCD" + _u32(len(cloud)) + rec.tobytes())


def read_point_cloud(path) -> PointCloud:
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"PLCD")
    n = r.u32()
    rec = r.array(PLCD_DTYPE, n)
    r.done()
    try:
        return PointCloud(rec["xyz"].copy(), rec["intensity"].copy(), rec["semantic"].copy(), rec["instance"].copy())
    except ValueError as exc:  # a non-finite coordinate
        raise ShapeMismatchError(f"{path}: {exc}") from exc


def write_feature_maps(path, maps: np.ndarray):
    """Write a (K, H', W', D) float32 tensor."""
    maps = np.ascontiguousarray(maps, dtype="<f4")
    if maps.ndim != 4:
        raise ShapeMismatchError("feature maps must be (K, H', W', D)")
    Path(path).write_bytes(b"FMAP" + _u32(*maps.shape) + maps.tobytes())


def read_feature_maps(path) -> np.ndarray:
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"FMAP")
    k, h, w, d = (r.u32() for _ in range(4))
    data = r.array("<f4", k * h * w * d)
    r.done()
    return data.reshape(k, h, w, d).copy()


def write_tokens(path, tokens: TokenSet):
    rec = np.empty(len(tokens), dtype=np.dtype([("idx", "<u2", 3), ("content", "<f4", 2 * tokens.dim)]))
    rec["idx"] = _u16_indices(tokens.indices3)
    rec["content"] = tokens.content.astype(np.float32)
    Path(path).write_bytes(b"TOKS" + _u32(len(tokens), tokens.dim) + rec.tobytes())


def read_tokens(path, spec) -> tuple[np.ndarray, np.ndarray]:
    """Read token records: returns ((M, 3) voxel indices, (M, 2*D) float32 content)."""
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"TOKS")
    n = r.u32()
    dim = r.u32()
    rec = r.array(np.dtype([("idx", "<u2", 3), ("content", "<f4", 2 * dim)]), n)
    r.done()
    idx3 = rec["idx"].astype(np.int64).reshape(n, 3)
    if (idx3 >= np.array(spec.shape)).any():
        raise ShapeMismatchError("token voxel index outside the grid spec")
    return idx3, rec["content"].reshape(n, 2 * dim).copy()


def write_mask(path, mask: Mask2D):
    flat = mask.bitmap.reshape(-1)
    changes = np.flatnonzero(np.diff(flat))
    bounds = np.concatenate([[0], changes + 1, [len(flat)]])
    runs = np.diff(bounds)
    if len(flat) and flat[0]:
        runs = np.concatenate([[0], runs])  # runs always start with a zero run
    h, w = mask.bitmap.shape
    Path(path).write_bytes(
        b"MSK2" + _u32(mask.camera_id, h, w, len(runs)) + runs.astype("<u4").tobytes()
    )


def read_mask(path) -> Mask2D:
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"MSK2")
    cam_id, h, w, n_runs = (r.u32() for _ in range(4))
    runs = r.array("<u4", n_runs).astype(np.int64)
    r.done()
    if runs.sum() != h * w:
        raise ShapeMismatchError(f"{path}: runs sum to {runs.sum()}, expected {h * w}")
    flat = np.repeat(np.arange(n_runs) % 2 == 1, runs)  # runs alternate clear, set, clear, ...
    return Mask2D(cam_id, flat.reshape(h, w))


def _prior_dtype(dim: int) -> np.dtype:
    return np.dtype([
        ("xyz", "<f4", (3,)), ("confidence", "<f4"), ("origin", "u1"),
        ("content", "<f4", (2 * dim,)), ("spe", "<f4", (dim,)),
    ])


def write_queries(path, qs: QuerySet):
    rec = np.empty(qs.num_prior, dtype=_prior_dtype(qs.dim))
    rec["xyz"] = np.reshape([h.position for h in qs.hints], (-1, 3))
    rec["confidence"] = [h.confidence for h in qs.hints]
    rec["origin"] = [ORIGIN_CODES[h.origin] for h in qs.hints]
    rec["content"] = qs.prior_content
    rec["spe"] = qs.prior_spe
    Path(path).write_bytes(
        b"QRY2" + _u32(qs.num_prior, len(qs.no_prior), len(qs.semantic), qs.dim) + rec.tobytes()
        + qs.no_prior.astype("<f4").tobytes() + qs.semantic.astype("<f4").tobytes()
    )


def read_queries(path) -> QuerySet:
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"QRY2")
    n_prior, n_lt, n_sem, dim = (r.u32() for _ in range(4))
    rec = r.array(_prior_dtype(dim), n_prior)
    no_prior = r.array("<f4", n_lt * dim).reshape(n_lt, dim).copy()
    semantic = r.array("<f4", n_sem * dim).reshape(n_sem, dim).copy()
    r.done()
    unknown = ~np.isin(rec["origin"], list(ORIGIN_NAMES))
    if unknown.any():
        raise ShapeMismatchError(f"{path}: unknown hint origin code {rec['origin'][unknown][0]}")
    hints = [
        LocationHint(xyz, float(conf), ORIGIN_NAMES[code])
        for xyz, conf, code in zip(rec["xyz"], rec["confidence"], rec["origin"])
    ]
    return QuerySet(
        dim=dim,
        prior_content=rec["content"].reshape(n_prior, 2 * dim).copy(),
        prior_spe=rec["spe"].reshape(n_prior, dim).copy(),
        hints=hints,
        no_prior=no_prior,
        semantic=semantic,
    )


def write_provenance(path, idx3: np.ndarray, tags: np.ndarray):
    idx3 = _u16_indices(idx3)
    rec = np.empty(len(idx3), dtype=PVOX_DTYPE)
    rec["idx"] = idx3
    rec["tag"] = np.asarray(tags, dtype=np.uint8)
    Path(path).write_bytes(b"PVOX" + _u32(len(idx3)) + rec.tobytes())


def read_provenance(path) -> tuple[np.ndarray, np.ndarray]:
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"PVOX")
    n = r.u32()
    rec = r.array(PVOX_DTYPE, n)
    r.done()
    return rec["idx"].astype(np.int64), rec["tag"].copy()


def write_ppm(path, image: np.ndarray):
    image = np.ascontiguousarray(image, dtype=np.uint8)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ShapeMismatchError("PPM images must be (H, W, 3) uint8")
    h, w, _ = image.shape
    Path(path).write_bytes(f"P6\n{w} {h}\n255\n".encode() + image.tobytes())


def read_ppm(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if not data.startswith(b"P6"):
        raise BadMagicError(f"{path}: not a binary PPM")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(data) and not data[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise TruncatedFileError(f"{path}: incomplete PPM header")
        fields.append(int(data[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise ShapeMismatchError(f"{path}: only maxval 255 supported")
    payload = data[pos:pos + w * h * 3]
    if len(payload) < w * h * 3:
        raise TruncatedFileError(f"{path}: PPM payload short")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3).copy()


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
    Path(path).write_text(json.dumps(payload, indent=1))


def read_calibration(path) -> list[CameraModel]:
    try:
        payload = json.loads(Path(path).read_text())
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
    arrays = [params.coord_scales, params.psi_w, params.phi_w1, params.phi_b1, params.phi_w2, params.phi_b2]
    parts = [b"SPEW", _u32(params.dim, len(arrays))]
    for a in arrays:
        a = np.ascontiguousarray(a, dtype="<f8")
        parts.append(_u32(a.ndim, *a.shape))
        parts.append(a.tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_spe_params(path) -> SpeParams:
    r = _Reader(Path(path).read_bytes(), path)
    r.magic(b"SPEW")
    dim = r.u32()
    n_arrays = r.u32()
    arrays = []
    for _ in range(n_arrays):
        ndim = r.u32()
        shape = tuple(int(r.u32()) for _ in range(ndim))
        arrays.append(r.array("<f8", int(np.prod(shape))).reshape(shape).copy())
    r.done()
    if n_arrays != 6:
        raise ShapeMismatchError(f"{path}: expected 6 weight blocks, found {n_arrays}")
    scales, psi_w, w1, b1, w2, b2 = arrays
    if psi_w.shape != (dim, 5 * N_BANDS * 2) or w1.shape != (PHI_HIDDEN, 8):
        raise ShapeMismatchError(f"{path}: weight shapes inconsistent with dim {dim}")
    return SpeParams(dim, scales, psi_w, w1, b1, w2, b2)
