"""Voxel/image token fusion with scale-aware positional embeddings.

Image features are attached to a voxel by projecting its physical points into
each camera and averaging the feature cells they hit; the virtual voxel center
is never projected, since for large far-range voxels it can miss the image
entirely while the member points are visible. Each voxel's position embedding
combines a sinusoidal encoding of its centroid (in Cartesian and polar
coordinates) with a small MLP applied to the distances from the centroid to
the voxel's eight corners, so tokens carry both location and physical scale.
The same embedding is added to the LiDAR half and the image half of a token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NoValidProjectionError
from .geometry import TWO_PI, CameraModel, cart_to_polar, valid_projections
from .grid import CylGrid, CylGridSpec, centroids_batch, extreme_points_batch


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
        if self.data.ndim != 3 or self.data.shape[2] < 1:
            raise ValueError("feature map must be (H', W', D)")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def sample(self, uv: np.ndarray, bilinear: bool = False) -> np.ndarray:
        """Sample features at continuous in-image pixel coordinates, (N, D) float64."""
        uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
        h, w, _ = self.data.shape
        fx = w / self.width
        fy = h / self.height
        x = uv[:, 0] * fx
        y = uv[:, 1] * fy
        if not bilinear:
            cols = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
            rows = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
            return self.data[rows, cols].astype(np.float64)
        x = np.clip(x - 0.5, 0.0, w - 1.0)
        y = np.clip(y - 0.5, 0.0, h - 1.0)
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        ax = (x - x0)[:, None]
        ay = (y - y0)[:, None]
        d = self.data.astype(np.float64)
        return (
            d[y0, x0] * (1 - ax) * (1 - ay)
            + d[y0, x1] * ax * (1 - ay)
            + d[y1, x0] * (1 - ax) * ay
            + d[y1, x1] * ax * ay
        )


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
        n_feat = 5 * N_BANDS * 2
        if self.psi_w.shape != (self.dim, n_feat):
            raise ValueError("psi projection has the wrong shape")
        if self.phi_w1.shape != (PHI_HIDDEN, 8) or self.phi_w2.shape != (self.dim, PHI_HIDDEN):
            raise ValueError("phi MLP has the wrong shape")
        for a in (self.coord_scales, self.psi_w, self.phi_w1, self.phi_b1, self.phi_w2, self.phi_b2):
            if not np.isfinite(a).all():
                raise ValueError("embedding weights must be finite")

    @classmethod
    def create(cls, spec: CylGridSpec, dim: int = 128, seed: int = 0) -> "SpeParams":
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
    squeeze = corners.ndim == 2
    if squeeze:
        corners = corners[None]
    center = corners.mean(axis=1, keepdims=True)
    d = np.linalg.norm(corners - center, axis=2)
    return d[0] if squeeze else d


def position_encoding(centers: np.ndarray, params: SpeParams) -> np.ndarray:
    """Sinusoidal embedding of centroid positions in Cartesian and polar form."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    pol = cart_to_polar(centers)
    coords = np.concatenate([centers, pol[:, :2]], axis=1)  # x, y, z, rho, theta
    bands = 2.0 ** np.arange(N_BANDS)
    args = np.pi * coords[:, :, None] * params.coord_scales[None, :, None] * bands  # (M, 5, B)
    feats = np.concatenate([np.sin(args), np.cos(args)], axis=2).reshape(len(centers), 2 * 5 * N_BANDS)
    return feats @ params.psi_w.T


def scale_encoding(dists: np.ndarray, params: SpeParams) -> np.ndarray:
    """Two-layer tanh MLP over the 8 corner distances."""
    dists = np.asarray(dists, dtype=np.float64).reshape(-1, 8)
    h = np.tanh(dists @ params.phi_w1.T + params.phi_b1)
    return h @ params.phi_w2.T + params.phi_b2


def spe_batch(corners: np.ndarray, params: SpeParams) -> np.ndarray:
    """Scale-aware positional embedding for (M, 8, 3) corner sets; (M, dim)."""
    corners = np.asarray(corners, dtype=np.float64).reshape(-1, 8, 3)
    centers = corners.mean(axis=1)
    return position_encoding(centers, params) + scale_encoding(corner_distances(corners), params)


def spe(corners: np.ndarray, params: SpeParams) -> np.ndarray:
    """Embedding of one voxel's eight corners; (dim,)."""
    return spe_batch(np.asarray(corners).reshape(1, 8, 3), params)[0]


def aggregate_image_feature(
    points_xyz: np.ndarray,
    fmap: FeatureMap,
    cam: CameraModel,
    bilinear: bool = False,
) -> np.ndarray:
    """Mean image feature over the valid projections of a voxel's physical points."""
    uv, _, valid = valid_projections(points_xyz, cam)
    if not valid.any():
        raise NoValidProjectionError("no point of this voxel projects into the image")
    return fmap.sample(uv[valid], bilinear=bilinear).mean(axis=0)


def centroid_image_feature(
    corners: np.ndarray,
    fmap: FeatureMap,
    cam: CameraModel,
    bilinear: bool = False,
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
    return fmap.sample(uv, bilinear=bilinear)[0]


def fuse_token(f3d: np.ndarray, f2d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Concatenate the embedding-shifted halves: [f3d + s, f2d + s]."""
    f3d = np.asarray(f3d, dtype=np.float64).reshape(-1)
    f2d = np.asarray(f2d, dtype=np.float64).reshape(-1)
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if not (len(f3d) == len(f2d) == len(s)):
        raise DimensionMismatchError(
            f"feature dims differ: {len(f3d)}, {len(f2d)}, {len(s)}"
        )
    return np.concatenate([f3d + s, f2d + s])


@dataclass
class VoxelFeatures:
    """Per-voxel feature vectors aligned with a grid's voxel rows."""

    flat_ids: np.ndarray
    feats: np.ndarray  # (M, D)

    @classmethod
    def for_grid(cls, grid: CylGrid, feats: np.ndarray) -> "VoxelFeatures":
        feats = np.asarray(feats, dtype=np.float64)
        if feats.shape[0] != grid.num_voxels:
            raise DimensionMismatchError("voxel features must cover all non-empty voxels")
        return cls(grid.voxel_ids.copy(), feats)

    @classmethod
    def stats_placeholder(cls, grid: CylGrid, dim: int, seed: int = 0) -> "VoxelFeatures":
        """Deterministic stand-in for a learned encoder: per-voxel stats, seed-projected."""
        counts = grid.counts.astype(np.float64)
        xyz = grid.cloud.xyz.astype(np.float64)[grid.order]
        sums = np.add.reduceat(xyz, grid.starts[:-1], axis=0) if grid.num_voxels else np.zeros((0, 3))
        means = sums / np.maximum(counts[:, None], 1.0)
        inten = grid.cloud.intensity.astype(np.float64)[grid.order]
        isum = np.add.reduceat(inten, grid.starts[:-1]) if grid.num_voxels else np.zeros(0)
        raw = np.column_stack([np.log1p(counts), means, isum / np.maximum(counts, 1.0)])
        proj = np.random.default_rng(seed).normal(0.0, 1.0 / np.sqrt(raw.shape[1]), (dim, raw.shape[1]))
        return cls(grid.voxel_ids.copy(), raw @ proj.T)


@dataclass
class TokenSet:
    """Fused tokens for all non-empty voxels, ordered by (r, theta, z).

    `build_tokens` fills every field; a set read back from TOKS holds only the
    voxels and content, with `spe` and `image_valid` left None.
    """

    spec: CylGridSpec
    flat_ids: np.ndarray
    content: np.ndarray                    # (M, 2 * dim)
    spe: np.ndarray | None = None          # (M, dim)
    image_valid: np.ndarray | None = None  # (M,) bool

    @property
    def dim(self) -> int:
        return self.content.shape[1] // 2

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
    camera; voxels invisible in every camera get a zero image half and a
    cleared `image_valid` flag.
    """
    if len(fmaps) != len(cams):
        raise DimensionMismatchError("one feature map per camera")
    if not np.array_equal(voxel_feats.flat_ids, grid.voxel_ids):
        raise DimensionMismatchError("voxel features must cover all non-empty voxels")
    m = grid.num_voxels
    dim = params.dim
    if voxel_feats.feats.shape[1] != dim:
        raise DimensionMismatchError("voxel feature dim must match embedding dim")

    sums = np.zeros((m, dim))
    counts = np.zeros(m, dtype=np.int64)
    pts = grid.cloud.xyz[grid.order]
    rows = grid.point_rows
    for fmap, cam in zip(fmaps, cams):
        if fmap.dim != dim:
            raise DimensionMismatchError("feature map dim must match embedding dim")
        uv, _, valid = valid_projections(pts, cam)
        if not valid.any():
            continue
        feats = fmap.sample(uv[valid], bilinear=bilinear)
        vrows = rows[valid]  # nondecreasing
        uniq, seg_starts = np.unique(vrows, return_index=True)
        sums[uniq] += np.add.reduceat(feats, seg_starts, axis=0)
        counts[uniq] += np.diff(np.append(seg_starts, len(vrows)))

    image_valid = counts > 0
    f2d = np.zeros((m, dim))
    f2d[image_valid] = sums[image_valid] / counts[image_valid, None]

    s = spe_batch(extreme_points_batch(grid.indices3, grid.spec), params)
    content = np.empty((m, 2 * dim))
    np.add(voxel_feats.feats, s, out=content[:, :dim])
    np.add(f2d, s, out=content[:, dim:])
    return TokenSet(grid.spec, grid.voxel_ids.copy(), content, s, image_valid)


def containing_rows(grid: CylGrid, positions: np.ndarray) -> np.ndarray:
    """Row of the occupied voxel containing each position, -1 where there is none."""
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    idx, inside = grid.spec.bin_points(cart_to_polar(pos))
    flat = grid.spec.flatten(idx)
    i = np.searchsorted(grid.voxel_ids, flat)
    hit = inside & (i < grid.num_voxels)
    hit[hit] = grid.voxel_ids[i[hit]] == flat[hit]
    return np.where(hit, i, -1)


def nearest_occupied_rows(grid: CylGrid, positions: np.ndarray) -> np.ndarray:
    """Row of the occupied voxel containing each position, else nearest by centroid.

    Centroids are computed once, only when some position misses every occupied
    voxel; distance ties go to the lowest row. An empty grid gives -1 everywhere.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    rows = containing_rows(grid, pos)
    missed = np.flatnonzero(rows < 0)
    if len(missed) and grid.num_voxels:
        centroids = centroids_batch(grid.indices3, grid.spec)
        for i in missed:
            rows[i] = np.argmin(np.linalg.norm(centroids - pos[i], axis=1))
    return rows


def nearest_occupied_row(grid: CylGrid, position: np.ndarray) -> int:
    """`nearest_occupied_rows` for one position."""
    return int(nearest_occupied_rows(grid, position)[0])
