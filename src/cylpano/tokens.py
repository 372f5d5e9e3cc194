"""Voxel/image token fusion with scale-aware positional embeddings.

Image features are attached to a voxel by projecting its physical points into
each camera and averaging the feature cells they hit; the virtual voxel center
is never projected, since for large far-range voxels it can miss the image
entirely while the member points are visible. Each voxel's position embedding
combines a sinusoidal encoding of its centroid (in Cartesian and polar
coordinates) with a small MLP over the distances from the centroid to the
voxel's eight corners, so tokens carry both location and physical scale; the
terms that depend on one bin index come from per-bin tables. `spe_batch` and
`build_tokens` work on two block levels (Lam, Rothberg & Wolf, ASPLOS 1991)
that follow one rule: a level's blocks hold a fixed number of rows, and a
lone last row joins the block before it, since numpy multiplies a lone row
by gemv, which rounds unlike gemm. Per super-block of 2 * SPE_BLOCK rows the
x/y sinusoids go into a buffer. Per sub-block of SPE_BLOCK // 2 rows, which
stays in cache, their product with `psi_w` goes into a sub-block embedding
buffer, the per-bin terms are added, and `build_tokens` adds the embedding
to the sub-block's LiDAR half (the statistics placeholder is kept factored
and multiplied out per sub-block) and to its image means, each float64 sum
rounded once as it is stored into the float32 content, as the TOK2 codec
stores it. The
image means are gathered from one table per call (`_image_means`), which
holds the stacked feature maps, a zero row and the means of the voxels that
sample two or more cells, summed in numpy in the order of a CSR matrix
product. So no (M, dim) embedding or feature array is ever made, and image
means only for the voxels of several samples; `spe_batch` computes the
embedding.

`build_tokens` fills the content in two lanes when the process may run on
two CPUs and there are 2 * SPE_BLOCK rows or more: the calling thread fills
the rows up to the sub-block boundary nearest the middle, and one worker
thread per process the rest, while numpy, inside each call, lets go of the
interpreter lock. The image means, the centroids and the per-bin tables are
taken before, on the calling thread, so every function the benchmark's span
recorder wraps runs there. The lanes' sub-blocks are those of one lane over
all rows, so the content has the same bytes on one CPU or two. Each lane
has its own buffers, all allocated by the calling thread: a (4 * N_BANDS,
super-block) float64 buffer of sinusoids and two (sub-block, dim) float64
buffers, 1.4 MB a lane at dim 128.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NoValidProjectionError
from .geometry import TWO_PI, CameraModel, cart_to_polar, valid_projections
from .grid import CylGrid, CylGridSpec, centroids_batch, extreme_points_batch, lookup, segment_pairs


@dataclass
class FeatureMap:
    """Dense per-camera feature grid with a pixel-to-cell scale.

    `data` has shape (H', W', D); a continuous pixel (u, v) samples cell
    (floor(v * H'/height), floor(u * W'/width)).
    """

    data: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float32)
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError("feature map must be (H', W', D) with H', W', D >= 1")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def cells(self, uv: np.ndarray, bilinear: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Cells sampled at continuous pixel coordinates and their weights.

        Returns (N, k) flat indices into `data.reshape(-1, dim)` and (N, k)
        float64 weights summing to 1 per row: k = 1 for the nearest cell,
        k = 4 for bilinear interpolation between cell centers.
        """
        uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
        h, w, _ = self.data.shape
        x = uv[:, 0] * (w / self.width)
        y = uv[:, 1] * (h / self.height)
        if not bilinear:
            cols = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
            rows = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
            return (rows * w + cols)[:, None], np.ones((len(uv), 1))
        x, y = np.clip(x - 0.5, 0.0, w - 1.0), np.clip(y - 0.5, 0.0, h - 1.0)
        x0, y0 = np.floor(x).astype(np.int64), np.floor(y).astype(np.int64)
        x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
        ax, ay = x - x0, y - y0
        idx = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1], axis=1)
        wts = np.stack([(1 - ax) * (1 - ay), ax * (1 - ay), (1 - ax) * ay, ax * ay], axis=1)
        return idx, wts

    def sample(self, uv: np.ndarray) -> np.ndarray:
        """Features of the nearest cell at continuous in-image pixel coordinates, (N, D) float64."""
        return self.data.reshape(-1, self.dim)[self.cells(uv)[0][:, 0]].astype(np.float64)


N_BANDS = 6  # frequency doublings per coordinate, 2^0 .. 2^5
PHI_HIDDEN = 32


@dataclass
class SpeParams:
    """Deterministic weights for the positional embedding.

    The centroid term projects sinusoidal features of (x, y, z, rho, theta);
    the scale term is a two-layer tanh MLP over the 8 corner distances.
    """

    dim: int
    coord_scales: np.ndarray  # (5,) base frequency per coordinate
    psi_w: np.ndarray         # (dim, 5 * N_BANDS * 2)
    phi_w1: np.ndarray        # (PHI_HIDDEN, 8)
    phi_b1: np.ndarray        # (PHI_HIDDEN,)
    phi_w2: np.ndarray        # (dim, PHI_HIDDEN)
    phi_b2: np.ndarray        # (dim,)
    seed: int = 0

    def __post_init__(self):
        shapes = {"coord_scales": (5,), "psi_w": (self.dim, 5 * N_BANDS * 2), "phi_w1": (PHI_HIDDEN, 8),
                  "phi_b1": (PHI_HIDDEN,), "phi_w2": (self.dim, PHI_HIDDEN), "phi_b2": (self.dim,)}
        for name, shape in shapes.items():
            a = getattr(self, name)
            if a.shape != shape:
                raise ValueError(f"{name} has shape {a.shape}, expected {shape} for dim {self.dim}")
            if not np.isfinite(a).all():
                raise ValueError(f"{name} holds a non-finite weight")

    @classmethod
    def create(cls, spec: CylGridSpec, dim: int, seed: int) -> "SpeParams":
        """Seeded pseudo-random weights; frequency bases follow the grid ranges."""
        r_max = spec.r_range[1]
        z_extent = spec.z_range[1] - spec.z_range[0]
        scales = np.array([1.0 / r_max, 1.0 / r_max, 1.0 / z_extent, 1.0 / r_max, 1.0 / TWO_PI])
        rng = np.random.default_rng(seed)
        n_feat = 5 * N_BANDS * 2
        return cls(
            dim=dim,
            coord_scales=scales,
            psi_w=rng.normal(0.0, 1.0 / np.sqrt(n_feat), (dim, n_feat)),
            phi_w1=rng.normal(0.0, 1.0 / np.sqrt(8), (PHI_HIDDEN, 8)),
            phi_b1=rng.normal(0.0, 0.1, PHI_HIDDEN),
            phi_w2=rng.normal(0.0, 1.0 / np.sqrt(PHI_HIDDEN), (dim, PHI_HIDDEN)),
            phi_b2=rng.normal(0.0, 0.1, dim),
            seed=seed,
        )


def corner_distances(corners: np.ndarray) -> np.ndarray:
    """L2 distances from each corner to the corner centroid; (M, 8) for (M, 8, 3) input."""
    corners = np.asarray(corners, dtype=np.float64)
    if corners.ndim != 3 or corners.shape[1:] != (8, 3):
        raise ValueError(f"corners must have shape (M, 8, 3), not {corners.shape}")
    return np.linalg.norm(corners - corners.mean(axis=1, keepdims=True), axis=2)


def _sinusoids(coords: np.ndarray, scales: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sine and cosine bands of (c, m) coordinates, shape (2 * N_BANDS * c, m).

    Band k of coordinate c is sin and cos of pi * c * scale * 2^k; each band
    after the first comes from the one before by the double-angle formulas,
    2 sin cos and (cos - sin)(cos + sin). Written into the front of the flat
    buffer `out` when one is given, with no temporary array.
    """
    shape = (2, N_BANDS) + coords.shape  # sine / cosine, band, coordinate
    feats = np.empty(shape) if out is None else out[:math.prod(shape)].reshape(shape)
    sin, cos = feats
    np.multiply(coords, np.pi, out=cos[0])
    cos[0] *= scales[:, None]
    np.sin(cos[0], out=sin[0])
    np.cos(cos[0], out=cos[0])
    for k in range(1, N_BANDS):
        np.add(cos[k - 1], sin[k - 1], out=sin[k])
        np.subtract(cos[k - 1], sin[k - 1], out=cos[k])
        cos[k] *= sin[k]
        np.multiply(sin[k - 1], 2.0, out=sin[k])
        sin[k] *= cos[k - 1]
    return feats.reshape(2 * N_BANDS * coords.shape[0], coords.shape[1])


def _psi(params: SpeParams, coords: slice) -> np.ndarray:
    """Rows of psi_w's transpose for some coordinates, in `_sinusoids` order; (2 * N_BANDS * c, dim)."""
    # psi_w's columns run over (coordinate, sine / cosine, band)
    w = params.psi_w.reshape(params.dim, 5, 2, N_BANDS).transpose(2, 3, 1, 0)
    return w[:, :, coords].reshape(-1, params.dim)


def scale_encoding(dists: np.ndarray, params: SpeParams) -> np.ndarray:
    """Two-layer tanh MLP over the 8 corner distances."""
    dists = np.asarray(dists, dtype=np.float64).reshape(-1, 8)
    h = np.tanh(dists @ params.phi_w1.T + params.phi_b1)
    return h @ params.phi_w2.T + params.phi_b2


SPE_BLOCK = 1024  # sizes both block levels of the embedding and fusion pass, and the rows that take two lanes
# per sub-block the x/y product, the per-bin terms and both stores; its two (rows, dim) buffers stay in a 2 MB L2 cache
_SUB_BLOCK = SPE_BLOCK // 2
# per super-block the x/y sinusoids, 4 * N_BANDS float64 values a row
_SUPER_BLOCK = 2 * SPE_BLOCK


# the last grid's and weights' per-bin tables, by the spec and each weight's dtype, shape and bytes
_BIN_TABLES: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _bin_tables(spec: CylGridSpec, params: SpeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_build_bin_tables`, built once per grid spec and weight values and handed out read-only.

    Keyed on the values, not on the objects: a caller may build new weights
    equal to the last ones, or reassign a field of the last ones. A call
    returns the tables it found or built, never a second read of the memo,
    which a call on another thread may have cleared in between.
    """
    weights = (params.coord_scales, params.psi_w, params.phi_w1, params.phi_b1, params.phi_w2, params.phi_b2)
    key = (spec, *((a.dtype.str, a.shape, a.tobytes()) for a in weights))
    tables = _BIN_TABLES.get(key)
    if tables is None:
        tables = _build_bin_tables(spec, params)
        for table in tables:
            table.flags.writeable = False  # every later call with the same key shares it
        _BIN_TABLES.clear()
        _BIN_TABLES[key] = tables
    return tables


def _build_bin_tables(spec: CylGridSpec, params: SpeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embedding terms that depend on one bin index: (R, dim), (Theta, dim), (Z, dim).

    A voxel's centroid has the same rho, and the voxel the same corner
    distances, in every theta and z bin; the centroid's theta depends only on
    the theta bin and its z only on the z bin. So the rho sinusoids and the
    scale term are evaluated on the voxels at theta and z bin 0, theta on the
    outermost radial bin and z on r and theta bin 0.
    """
    r_bins, t_bins, z_bins = spec.shape
    idx3 = np.zeros((r_bins + t_bins + z_bins, 3), dtype=np.int64)
    idx3[:r_bins, 0] = np.arange(r_bins)
    idx3[r_bins:r_bins + t_bins, 0] = r_bins - 1
    idx3[r_bins:r_bins + t_bins, 1] = np.arange(t_bins)
    idx3[r_bins + t_bins:, 2] = np.arange(z_bins)
    corners = extreme_points_batch(idx3, spec)
    rho, theta, z = cart_to_polar(corners.mean(axis=1)).T

    def table(vals, coord):
        return _sinusoids(vals[None], params.coord_scales[coord:coord + 1]).T @ _psi(params, slice(coord, coord + 1))

    r_tab = table(rho[:r_bins], 3) + scale_encoding(corner_distances(corners[:r_bins]), params)
    return r_tab, table(theta[r_bins:r_bins + t_bins], 4), table(z[r_bins + t_bins:], 2)


def _blocks(start: int, stop: int, size: int) -> list[slice]:
    """Slices of `size` rows over start .. stop; a lone last row joins the slice before it.

    numpy multiplies a lone row by gemv, which rounds unlike the gemm of the
    rows before it.
    """
    bounds = [*range(start, stop, size), stop]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]


def _lane_buffers(n: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A lane's buffers for n rows: its sinusoids, and its sub-block's embedding and (sub-block, dim) buffer."""
    sub = min(n, _SUB_BLOCK + 1)  # a lone last row joins the block before it
    return np.empty(4 * N_BANDS * min(n, _SUPER_BLOCK + 1)), np.empty((sub, dim)), np.empty((sub, dim))


def _embedding(idx3: np.ndarray, spec: CylGridSpec, params: SpeParams):
    """The embedding of (M, 3) bin indices, as `blocks(start, stop, buffers)` over a range of its rows.

    The x and y of the centroids (the only term that needs a voxel's own
    centroid) and the per-bin tables (`_bin_tables`) are taken here, once, on
    the calling thread; `centroids_batch` also rejects indices outside the
    grid. `blocks` yields (rows, view) for each sub-block of start .. stop in
    row order, `view` being the sub-block's embedding in the lane's buffer.
    Per super-block the x/y sinusoids go into the lane's sinusoid buffer; per
    sub-block their product with `psi_w` goes into `view`, and the rho,
    theta, z and scale terms are gathered through the lane's (sub-block, dim)
    buffer and added to it. So that buffer is free again while the caller
    holds `view`. A start that is a multiple of _SUB_BLOCK gives the
    sub-blocks of one lane over all M rows.
    """
    xy = centroids_batch(idx3, spec)[:, :2].T
    tables = _bin_tables(spec, params)
    w_xy = _psi(params, slice(0, 2))

    def blocks(start: int, stop: int, buffers: tuple[np.ndarray, np.ndarray, np.ndarray]):
        sines, emb, sub = buffers
        for sup in _blocks(start, stop, _SUPER_BLOCK):
            bands = _sinusoids(xy[:, sup], params.coord_scales[:2], sines)
            for rows in _blocks(sup.start, sup.stop, _SUB_BLOCK):
                view = emb[:rows.stop - rows.start]
                np.matmul(bands[:, rows.start - sup.start:rows.stop - sup.start].T, w_xy, out=view)
                for axis, table in enumerate(tables):
                    # mode="raise" would buffer `view`; the indices are known to be in range
                    view += table.take(idx3[rows, axis], axis=0, out=sub[:len(view)], mode="clip")
                yield rows, view

    return blocks


def spe_batch(idx3: np.ndarray, spec: CylGridSpec, params: SpeParams) -> np.ndarray:
    """Scale-aware positional embedding of voxels at (M, 3) bin indices; (M, dim).

    Equals, up to rounding, the sinusoids of the voxels' corner means in
    Cartesian and polar form projected by `psi_w`, plus `scale_encoding` of
    their `corner_distances`.
    """
    idx3 = np.asarray(idx3, dtype=np.int64).reshape(-1, 3)
    out = np.empty((len(idx3), params.dim))
    for rows, view in _embedding(idx3, spec, params)(0, len(idx3), _lane_buffers(len(idx3), params.dim)):
        out[rows] = view
    return out


def aggregate_image_feature(
    points_xyz: np.ndarray,
    fmap: FeatureMap,
    cam: CameraModel,
) -> np.ndarray:
    """Mean image feature over the valid projections of a voxel's physical points."""
    uv, _, valid = valid_projections(points_xyz, cam)
    if not valid.any():
        raise NoValidProjectionError("no point of this voxel projects into the image")
    return fmap.sample(uv[valid]).mean(axis=0)


def centroid_image_feature(
    corners: np.ndarray,
    fmap: FeatureMap,
    cam: CameraModel,
) -> np.ndarray:
    """Diagnostic variant that projects only the virtual voxel center.

    Exists to demonstrate why physical points are required: for a large
    far-range voxel the center may fall outside every image even though the
    member points are visible, in which case this raises.
    """
    center = np.asarray(corners, dtype=np.float64).reshape(-1, 3).mean(axis=0)
    uv, _, valid = valid_projections(center[None], cam)
    if not valid[0]:
        raise NoValidProjectionError("voxel center does not project into the image")
    return fmap.sample(uv)[0]


@dataclass
class VoxelFeatures:
    """Per-voxel features `raw @ proj.T` (`raw` itself if `proj` is None), aligned with a grid's voxel rows."""

    flat_ids: np.ndarray
    raw: np.ndarray                 # (M, k)
    proj: np.ndarray | None = None  # (D, k)

    @property
    def dim(self) -> int:
        return self.raw.shape[1] if self.proj is None else self.proj.shape[0]

    def rows(self, rows: slice, out: np.ndarray) -> np.ndarray:
        """(raw @ proj.T)[rows], the product written into `out`; `raw`'s own rows if `proj` is None."""
        return self.raw[rows] if self.proj is None else np.matmul(self.raw[rows], self.proj.T, out=out)

    @classmethod
    def for_grid(cls, grid: CylGrid, feats: np.ndarray) -> "VoxelFeatures":
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] != grid.num_voxels:
            raise DimensionMismatchError("voxel features must cover all non-empty voxels")
        return cls(grid.voxel_ids.copy(), feats)

    @classmethod
    def stats_placeholder(cls, grid: CylGrid, dim: int, seed: int) -> "VoxelFeatures":
        """Deterministic stand-in for a learned encoder: per-voxel stats, seed-projected."""
        counts = grid.counts.astype(np.float64)
        xyz = np.take(grid.cloud.xyz, grid.order, axis=0).astype(np.float64)
        sums = np.add.reduceat(xyz, grid.starts[:-1], axis=0)
        means = sums / counts[:, None]  # every occupied voxel holds at least one point
        inten = grid.cloud.intensity.astype(np.float64)[grid.order]
        isum = np.add.reduceat(inten, grid.starts[:-1])
        raw = np.column_stack([np.log1p(counts), means, isum / counts])
        proj = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(raw.shape[1]), (dim, raw.shape[1]))
        return cls(grid.voxel_ids.copy(), raw, proj)


@dataclass
class TokenSet:
    """Fused tokens for all non-empty voxels, ordered by (r, theta, z).

    `build_tokens` fills every field, with float32 content; a set read back
    from TOK2 holds only the voxels and content, with `params` and
    `image_valid` left None. No embedding is stored; `spe` computes it.
    """

    spec: CylGridSpec
    flat_ids: np.ndarray
    content: np.ndarray                    # (M, 2 * dim)
    params: SpeParams | None = None
    image_valid: np.ndarray | None = None  # (M,) bool

    @property
    def dim(self) -> int:
        return self.content.shape[1] // 2

    @property
    def spe(self) -> np.ndarray | None:
        """`spe_batch` of the voxels, (M, dim) float64, computed anew on each access; None without params."""
        return None if self.params is None else spe_batch(self.indices3, self.spec, self.params)

    @property
    def indices3(self) -> np.ndarray:
        return self.spec.unflatten(self.flat_ids)

    def __len__(self) -> int:
        return len(self.flat_ids)


def build_tokens(
    grid: CylGrid,
    voxel_feats: VoxelFeatures,
    fmaps: list[FeatureMap],
    cams: list[CameraModel],
    params: SpeParams,
    bilinear: bool = False,
) -> TokenSet:
    """Assemble fused tokens for every non-empty voxel.

    Image content is the mean feature over all (point, camera) pairs with a
    valid projection, weighting each projected point once regardless of
    camera; voxels invisible in every camera get a zero image feature (their
    image half is the embedding alone) and a cleared `image_valid` flag.
    """
    if len(fmaps) != len(cams):
        raise DimensionMismatchError("one feature map per camera")
    if not np.array_equal(voxel_feats.flat_ids, grid.voxel_ids):
        raise DimensionMismatchError("voxel features must cover all non-empty voxels")
    dim = params.dim
    if voxel_feats.dim != dim:
        raise DimensionMismatchError("voxel feature dim must match embedding dim")
    if any(fmap.dim != dim for fmap in fmaps):
        raise DimensionMismatchError("feature map dim must match embedding dim")

    content = np.empty((grid.num_voxels, 2 * dim), dtype=np.float32)
    table, mean_rows, counts = _image_means(grid, fmaps, cams, dim, bilinear)
    blocks = _embedding(grid.indices3, grid.spec, params)

    def fill(start: int, stop: int, buffers: tuple[np.ndarray, np.ndarray, np.ndarray]):
        for rows, block in blocks(start, stop, buffers):
            sub = buffers[2][:len(block)]
            # each half summed in float64 and rounded once on the store, as the TOK2 codec stores it;
            # mode="raise" would buffer `sub`, and `mean_rows` holds rows of `table` only
            half = table.take(mean_rows[rows], axis=0, out=sub, mode="clip")
            half += block
            content[rows, dim:] = half
            block += voxel_feats.rows(rows, sub)
            content[rows, :dim] = block

    bounds = _lane_bounds(grid.num_voxels)
    # every lane's buffers are allocated here, on the calling thread, and a lane calls no function the span
    # recorder wraps
    lanes = [(a, b, _lane_buffers(b - a, dim)) for a, b in zip(bounds[:-1], bounds[1:])]
    others = [_worker().submit(fill, *lane) for lane in lanes[1:]]
    try:
        fill(*lanes[0])
    finally:
        wait(others)
    for other in others:
        other.result()
    return TokenSet(grid.spec, grid.voxel_ids.copy(), content, params, counts > 0)


def _cpus() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _lane_bounds(m: int) -> list[int]:
    """Row bounds of `build_tokens`' lanes over m rows.

    Two lanes, split at the sub-block boundary nearest m / 2, when the
    process may run on two CPUs and m is 2 * SPE_BLOCK or more; one lane
    otherwise. Either way the sub-blocks are those of one lane over all m
    rows, so the content is the same.
    """
    if m < 2 * SPE_BLOCK or _cpus() < 2:
        return [0, m]
    return [0, (m + _SUB_BLOCK) // (2 * _SUB_BLOCK) * _SUB_BLOCK, m]


_WORKER: tuple[int, ThreadPoolExecutor] | None = None  # (process id, its executor)


def _worker() -> ThreadPoolExecutor:
    """This process's one worker thread for a second lane, started on first use (and after a fork)."""
    global _WORKER
    if _WORKER is None or _WORKER[0] != os.getpid():
        _WORKER = (os.getpid(), ThreadPoolExecutor(max_workers=1, thread_name_prefix="cylpano-lane"))
    return _WORKER[1]


def _image_means(
    grid: CylGrid, fmaps: list[FeatureMap], cams: list[CameraModel], dim: int, bilinear: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each voxel row's mean sampled feature over its valid projections, and their number.

    Returns a float64 table of the stacked feature maps' cells, a zero row and
    the means of the rows with two or more sampled entries; the row of the
    table that holds each voxel row's mean; and the projection counts. A row
    of one entry, a nearest cell of weight 1, points at that cell, and a row of
    none at the zero row. A mean starts at 0.0 and adds w * feature for each of
    the row's distinct cells in ascending cell order, w being the sum of the
    cell's entry weights in input order (camera, point, then corner); a row of
    two or more projections is then divided by its count. So a cell's feature
    is its own mean once -0.0 is made 0.0, as 0.0 + -0.0 makes it. A sum starts
    at its first product instead: the two differ only while every product is
    -0.0, and each row has a cell of weight at least 1/4, whose product with a
    feature that is not -0.0 is not -0.0 either.
    """
    pts = np.take(grid.cloud.xyz, grid.order, axis=0)
    sizes = [fmap.data.shape[0] * fmap.data.shape[1] for fmap in fmaps]
    offsets, n_cells = np.cumsum([0] + sizes), sum(sizes)
    counts = np.zeros(grid.num_voxels, dtype=np.int64)
    rows, cells, wts = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for fmap, cam, offset in zip(fmaps, cams, offsets):
        uv, _, valid = valid_projections(pts, cam)
        idx, w = fmap.cells(uv[valid], bilinear)
        vrows = grid.point_rows[valid]
        counts += np.bincount(vrows, minlength=grid.num_voxels)
        rows.append(np.repeat(vrows, idx.shape[1]))
        cells.append((idx + offset).ravel())
        wts.append(w.ravel())
    rows, cells, wts = np.concatenate(rows), np.concatenate(cells), np.concatenate(wts)
    lone = np.bincount(rows, minlength=grid.num_voxels)[rows] == 1
    mean_rows = np.full(grid.num_voxels, n_cells, dtype=np.int64)
    mean_rows[rows[lone]] = cells[lone]

    # the other rows' distinct (row, cell) pairs in ascending order, their weights summed in input order
    keys = rows[~lone] * (n_cells + 1) + cells[~lone]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.diff(keys, prepend=-1) != 0
    pair_w = np.bincount(np.cumsum(new) - 1, weights=wts[~lone][order])
    pair_row, pair_cell = np.divmod(keys[new], n_cells + 1)
    starts = np.flatnonzero(np.diff(pair_row, prepend=-1))

    # those rows by falling number of cells, so that the rows with an L-th cell are a prefix
    # (jagged diagonals: Saad, SIAM J. Sci. Stat. Comput. 1989)
    lengths = np.diff(starts, append=len(pair_row))
    jagged = np.argsort(-lengths, kind="stable")
    lengths, starts = lengths[jagged], starts[jagged]
    multi = pair_row[starts]
    mean_rows[multi] = n_cells + 1 + np.arange(len(multi))

    table = np.empty((n_cells + 1 + len(multi), dim))
    for fmap, offset, size in zip(fmaps, offsets, sizes):
        np.add(fmap.data.reshape(-1, dim), 0.0, out=table[offset:offset + size])  # -0.0 becomes 0.0
    table[n_cells] = 0.0
    div = np.maximum(counts[multi], 1).astype(np.float64)[:, None]
    # per level, the cells and weights of the rows that have one there
    ends = np.searchsorted(-lengths, -np.arange(lengths.max(initial=0)))
    levels = [(pair_cell[starts[:n] + j], pair_w[starts[:n] + j, None]) for j, n in enumerate(ends)]
    chunk = SPE_BLOCK // 4  # rows; with its gathered buffer it stays in a 2 MB L2 cache
    gathered = np.empty((min(len(multi), chunk), dim))
    for a in range(0, len(multi), chunk):  # chunk by chunk, each level a prefix of the chunk
        b = min(a + chunk, len(multi))
        acc = table[n_cells + 1 + a:n_cells + 1 + b]
        for j, (cell, w) in enumerate(levels):
            n = min(b, len(cell)) - a
            if n <= 0:
                break
            term = np.take(table, cell[a:a + n], axis=0, out=gathered[:n], mode="clip")
            if j:
                term *= w[a:a + n]
                acc[:n] += term
            else:
                np.multiply(term, w[a:b], out=acc)
        acc /= div[a:b]
    return table, mean_rows, counts


def containing_rows(grid: CylGrid, positions: np.ndarray) -> np.ndarray:
    """Row of the occupied voxel containing each position, -1 where there is none."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    idx, inside = grid.spec.bin_points(cart_to_polar(pos))
    return np.where(inside, lookup(grid.voxel_ids, grid.spec.flatten(idx)), -1)


def nearest_occupied_rows(grid: CylGrid, positions: np.ndarray) -> np.ndarray:
    """Row of the occupied voxel containing each position, else nearest by centroid.

    A position that misses every occupied voxel searches the occupied voxels
    of a window of (r, theta) columns around it, over all z, and takes the
    `np.linalg.norm` argmin over their centroids, the lowest row on distance
    ties. The answer stands when a lower bound on the distance to every
    centroid outside the window, less a rounding allowance and a relative
    margin of WINDOW_MARGIN, exceeds it; otherwise the window grows, at most to
    the whole grid ("bounds-overlap-ball", Friedman, Bentley & Finkel, ACM TOMS
    1977). So the rows equal the argmin over all centroids. An empty grid gives
    -1 everywhere; a non-finite position raises ValueError.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(pos).all(axis=1)
    if not finite.all():
        raise ValueError(f"position {pos[~finite][0].tolist()} is not finite")
    rows = containing_rows(grid, pos)
    missed = np.flatnonzero(rows < 0)
    if len(missed) and grid.num_voxels:
        rows[missed] = _window_search(grid, pos[missed])
    return rows


WINDOW_MARGIN = 1e-6  # relative slack on the window bound, far above the rounding of a distance


def _window_search(grid: CylGrid, pos: np.ndarray) -> np.ndarray:
    """Row of the nearest occupied centroid to each position, by growing column windows.

    A window holds rows ir - h .. ir + h and theta bins it - k .. it + k around
    the position's bin (ir, it). A voxel's exact centroid lies at horizontal
    radius r_mid * |cos(pi / theta_bins)| on the ray at its column's centre
    angle (at the origin for two theta bins; one theta bin is always covered
    whole). So a centroid in a row below or above the window is at least the
    gap between rho and those radii away, and one outside its theta bins at
    least rho * sin(min((k + 1/2) bins, pi / 2)), its distance to the ray.
    Both halfwidths grow as 2h + 1 each round, so every search ends by the
    time its window covers the grid, whatever the bound computes.
    """
    spec = grid.spec
    r_bins, theta_bins, _ = spec.shape
    r_lo, r_hi = spec.r_range
    r_step, t_step = (r_hi - r_lo) / r_bins, TWO_PI / theta_bins
    polar = cart_to_polar(pos)
    rho = polar[:, 0]
    idx, _ = spec.bin_points(polar)
    ir, it = idx[:, 0].astype(np.int64), idx[:, 1].astype(np.int64)
    c0 = abs(np.cos(np.pi / theta_bins))
    # the centroids, rho and the position's bins are each off by a few ulps of these magnitudes
    slack = 1e-9 * (r_hi + rho)
    # one row either side to start, and theta bins about as wide in metres
    h = np.ones(len(pos), dtype=np.int64)
    arc = rho * t_step
    k = np.ceil(np.minimum(np.divide(r_step, arc, out=np.full(len(pos), np.inf), where=arc > 0),
                           theta_bins)).astype(np.int64)
    out = np.full(len(pos), -1, dtype=np.int64)
    todo = np.arange(len(pos))
    while len(todo):
        a = np.maximum(ir[todo] - h, 0)
        b = np.minimum(ir[todo] + h, r_bins - 1)
        n_t = np.minimum(2 * k + 1, theta_bins)
        # the window's columns, row by row, then their occupied voxels
        r, t = segment_pairs(a, b - a + 1, np.where(n_t == theta_bins, 0, it[todo] - k), n_t)
        rows, sizes = grid.column_rows(r * theta_bins + t % theta_bins)
        owner = np.repeat(np.repeat(np.arange(len(todo)), (b - a + 1) * n_t), sizes)
        dist = np.linalg.norm(centroids_batch(spec.unflatten(grid.voxel_ids[rows]), spec) - pos[todo][owner], axis=1)
        # each window's least distance and the lowest row at it
        per_win = np.bincount(owner, minlength=len(todo))
        found = per_win > 0
        starts = (np.cumsum(per_win) - per_win)[found]
        best = np.full(len(todo), np.inf)
        best[found] = np.minimum.reduceat(dist, starts)
        row = np.full(len(todo), -1, dtype=np.int64)
        row[found] = np.minimum.reduceat(np.where(dist == best[owner], rows, grid.num_voxels), starts)

        below = np.where(a > 0, rho[todo] - c0 * (r_lo + (a - 0.5) * r_step), np.inf)
        above = np.where(b < r_bins - 1, c0 * (r_lo + (b + 1.5) * r_step) - rho[todo], np.inf)
        aside = np.where(n_t == theta_bins, np.inf, rho[todo] * np.sin(np.minimum((k + 0.5) * t_step, np.pi / 2)))
        bound = np.minimum(np.minimum(below, above), aside)
        whole = (n_t == theta_bins) & (a == 0) & (b == r_bins - 1)
        done = whole | (bound > best / (1.0 - WINDOW_MARGIN) + slack[todo])
        out[todo[done]] = row[done]
        todo, h, k = todo[~done], np.minimum(2 * h[~done] + 1, r_bins), np.minimum(2 * k[~done] + 1, theta_bins)
    return out


def nearest_occupied_row(grid: CylGrid, position: np.ndarray) -> int:
    """`nearest_occupied_rows` for one position."""
    return int(nearest_occupied_rows(grid, position)[0])
