"""Voxel/image token fusion with scale-aware positional embeddings.

Image features are attached to a voxel by projecting its physical points into
each camera and averaging the feature cells they hit; the virtual voxel center
is never projected, since for large far-range voxels it can miss the image
entirely while the member points are visible. All cameras' valid projections
form one sparse sampling matrix (one cell per projection, or four weighted
cells when sampling bilinearly) over the voxels they reach, applied once to
the stacked feature maps. Each voxel's position embedding combines a
sinusoidal encoding of its centroid (in Cartesian and polar coordinates) with
a small MLP applied to the distances from the centroid to the voxel's eight
corners, so tokens carry both location and physical scale. A voxel's corner
distances depend only on its radial bin, so the scale term is computed once
per radial bin and gathered. The same embedding is added to the LiDAR half
and the image half of a token.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

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

    def cells(self, uv: np.ndarray, bilinear: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """Cells sampled at continuous pixel coordinates and their weights.

        Returns (N, k) flat indices into `data.reshape(-1, dim)` and (N, k)
        float64 weights summing to 1 per row: k = 1 for the nearest cell,
        k = 4 for bilinear interpolation between cell centers.
        """
        uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
        h, w, _ = self.data.shape
        fx = w / self.width
        fy = h / self.height
        x = uv[:, 0] * fx
        y = uv[:, 1] * fy
        if not bilinear:
            cols = np.clip(np.floor(x).astype(np.int64), 0, w - 1)
            rows = np.clip(np.floor(y).astype(np.int64), 0, h - 1)
            return (rows * w + cols)[:, None], np.ones((len(uv), 1))
        x = np.clip(x - 0.5, 0.0, w - 1.0)
        y = np.clip(y - 0.5, 0.0, h - 1.0)
        x0 = np.floor(x).astype(np.int64)
        y0 = np.floor(y).astype(np.int64)
        x1 = np.minimum(x0 + 1, w - 1)
        y1 = np.minimum(y0 + 1, h - 1)
        ax = x - x0
        ay = y - y0
        idx = np.stack([y0 * w + x0, y0 * w + x1, y1 * w + x0, y1 * w + x1], axis=1)
        wts = np.stack([(1 - ax) * (1 - ay), ax * (1 - ay), (1 - ax) * ay, ax * ay], axis=1)
        return idx, wts

    def sample(self, uv: np.ndarray, bilinear: bool = False) -> np.ndarray:
        """Sample features at continuous in-image pixel coordinates, (N, D) float64."""
        idx, wts = self.cells(uv, bilinear)
        flat = self.data.reshape(-1, self.dim).astype(np.float64)
        return (flat[idx] * wts[:, :, None]).sum(axis=1)


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


def _sinusoids(coords: np.ndarray, scales: np.ndarray) -> np.ndarray:
    """Sine and cosine bands of (c, m) coordinates, shape (2 * N_BANDS * c, m).

    Band k of coordinate c is sin and cos of pi * c * scale * 2^k; each band
    after the first comes from the one before by the double-angle formulas.
    """
    feats = np.empty((2, N_BANDS) + coords.shape)  # sine / cosine, band, coordinate
    sin, cos = feats
    args = np.pi * coords * scales[:, None]
    np.sin(args, out=sin[0])
    np.cos(args, out=cos[0])
    for k in range(1, N_BANDS):
        np.multiply(2.0 * sin[k - 1], cos[k - 1], out=sin[k])
        np.multiply(cos[k - 1] - sin[k - 1], cos[k - 1] + sin[k - 1], out=cos[k])
    return feats.reshape(2 * N_BANDS * coords.shape[0], coords.shape[1])


def _psi(params: SpeParams, coords: slice) -> np.ndarray:
    """Rows of psi_w's transpose for some coordinates, in `_sinusoids` order; (2 * N_BANDS * c, dim)."""
    # psi_w's columns run over (coordinate, sine / cosine, band)
    w = params.psi_w.reshape(params.dim, 5, 2, N_BANDS).transpose(2, 3, 1, 0)
    return w[:, :, coords].reshape(-1, params.dim)


def position_encoding(centers: np.ndarray, params: SpeParams) -> np.ndarray:
    """Sinusoidal embedding of centroid positions in Cartesian and polar form."""
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    coords = np.empty((5, len(centers)))  # x, y, z, rho, theta
    coords[:3] = centers.T
    coords[3:] = cart_to_polar(centers)[:, :2].T
    return _sinusoids(coords, params.coord_scales).T @ _psi(params, slice(0, 5))


def scale_encoding(dists: np.ndarray, params: SpeParams) -> np.ndarray:
    """Two-layer tanh MLP over the 8 corner distances."""
    dists = np.asarray(dists, dtype=np.float64).reshape(-1, 8)
    h = np.tanh(dists @ params.phi_w1.T + params.phi_b1)
    return h @ params.phi_w2.T + params.phi_b2


SPE_BLOCK = 1024  # rows per block: a block and its gathered table rows fit in a 2 MB L2 cache


def _bin_tables(spec: CylGridSpec, params: SpeParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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

    r_tab = table(rho[:r_bins], 3)
    r_tab += scale_encoding(corner_distances(corners[:r_bins]), params)
    return r_tab, table(theta[r_bins:r_bins + t_bins], 4), table(z[r_bins + t_bins:], 2)


def spe_batch(idx3: np.ndarray, spec: CylGridSpec, params: SpeParams) -> np.ndarray:
    """Scale-aware positional embedding of voxels given by (M, 3) bin indices; (M, dim).

    Equals `spe` of each voxel's corners up to rounding. Only the x and y
    sinusoids need the voxel's own centroid; the rho, theta, z and scale
    terms come from per-bin tables (`_bin_tables`). Rows are embedded in
    blocks of SPE_BLOCK, each block's three table gathers added while it is
    still in cache.
    """
    idx3 = np.asarray(idx3, dtype=np.int64).reshape(-1, 3)
    xy = centroids_batch(idx3, spec)[:, :2].T  # also rejects indices outside the grid
    tables = _bin_tables(spec, params)
    w_xy = _psi(params, slice(0, 2))
    out = np.empty((len(idx3), params.dim))
    gathered = np.empty((min(len(idx3), SPE_BLOCK), params.dim))
    for a in range(0, len(idx3), SPE_BLOCK):
        rows = slice(a, a + SPE_BLOCK)
        block = out[rows]
        np.matmul(_sinusoids(xy[:, rows], params.coord_scales[:2]).T, w_xy, out=block)
        for axis, table in enumerate(tables):
            # mode="raise" would buffer `out`; the indices are known to be in range
            block += np.take(table, idx3[rows, axis], axis=0, out=gathered[:len(block)], mode="clip")
    return out


def spe(corners: np.ndarray, params: SpeParams) -> np.ndarray:
    """Embedding of one voxel from its eight corners; (dim,)."""
    corners = np.asarray(corners, dtype=np.float64).reshape(8, 3)
    pos = position_encoding(corners.mean(axis=0), params)[0]
    return pos + scale_encoding(corner_distances(corners), params)[0]


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
        sums = np.add.reduceat(xyz, grid.starts[:-1], axis=0)
        means = sums / np.maximum(counts[:, None], 1.0)
        inten = grid.cloud.intensity.astype(np.float64)[grid.order]
        isum = np.add.reduceat(inten, grid.starts[:-1])
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
    camera; voxels invisible in every camera get a zero image feature (their
    image half is the embedding alone) and a cleared `image_valid` flag.
    """
    if len(fmaps) != len(cams):
        raise DimensionMismatchError("one feature map per camera")
    if not np.array_equal(voxel_feats.flat_ids, grid.voxel_ids):
        raise DimensionMismatchError("voxel features must cover all non-empty voxels")
    dim = params.dim
    if voxel_feats.feats.shape[1] != dim:
        raise DimensionMismatchError("voxel feature dim must match embedding dim")
    if any(fmap.dim != dim for fmap in fmaps):
        raise DimensionMismatchError("feature map dim must match embedding dim")

    s = spe_batch(grid.indices3, grid.spec, params)
    content = np.empty((grid.num_voxels, 2 * dim))
    image_valid, means = _image_means(grid, fmaps, cams, dim, bilinear)
    first_mean = 0  # `means` holds the image-valid rows in order
    for a in range(0, grid.num_voxels, SPE_BLOCK):
        rows = slice(a, a + SPE_BLOCK)
        np.add(s[rows], voxel_feats.feats[rows], out=content[rows, :dim])
        image = content[rows, dim:]
        image[...] = s[rows]
        valid = np.flatnonzero(image_valid[rows])
        image[valid] += means[first_mean:first_mean + len(valid)]
        first_mean += len(valid)
    return TokenSet(grid.spec, grid.voxel_ids.copy(), content, s, image_valid)


def _image_means(
    grid: CylGrid, fmaps: list[FeatureMap], cams: list[CameraModel], dim: int, bilinear: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the voxels some camera sees, and their (n, dim) mean image features.

    Every valid (point, camera) projection adds its sampled cells to one
    sparse matrix over those rows; the matrix times the stacked feature maps
    gives per-voxel sums, which are divided by the number of projections.
    """
    pts = grid.cloud.xyz[grid.order]
    point_rows = grid.point_rows
    counts = np.zeros(grid.num_voxels, dtype=np.int64)
    rows, cols, wts = [], [], []
    offset = 0
    for fmap, cam in zip(fmaps, cams):
        uv, _, valid = valid_projections(pts, cam)
        idx, w = fmap.cells(uv[valid], bilinear)
        vrows = point_rows[valid]
        counts += np.bincount(vrows, minlength=grid.num_voxels)
        rows.append(np.repeat(vrows, idx.shape[1]))
        cols.append((idx + offset).ravel())
        wts.append(w.ravel())
        offset += fmap.data.shape[0] * fmap.data.shape[1]
    seen = counts > 0
    if not seen.any():
        return seen, np.zeros((0, dim))
    compact = np.cumsum(seen) - 1
    sampling = sparse.csr_matrix(
        (np.concatenate(wts), (compact[np.concatenate(rows)], np.concatenate(cols))),
        shape=(compact[-1] + 1, offset),
    )
    sums = sampling @ np.concatenate([fmap.data.reshape(-1, dim) for fmap in fmaps])
    sums /= counts[seen, None]
    return seen, sums


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

    Centroids and their k-d tree are built once, only when some position
    misses every occupied voxel. The tree gives each miss its nearest
    distance d and every centroid within d * (1 + 1e-9); the exact
    `np.linalg.norm` argmin over those rows, in ascending order, keeps the
    lowest row on distance ties. An empty grid gives -1 everywhere.
    """
    pos = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    rows = containing_rows(grid, pos)
    missed = np.flatnonzero(rows < 0)
    if len(missed) and grid.num_voxels:
        centroids = centroids_batch(grid.indices3, grid.spec)
        # a few queries do not repay a balanced tree, which takes ~2.5x longer to build
        tree = cKDTree(centroids, balanced_tree=False, compact_nodes=False)
        dist = tree.query(pos[missed])[0]
        for i, near in zip(missed, tree.query_ball_point(pos[missed], dist * (1 + 1e-9))):
            near = np.sort(near)
            rows[i] = near[np.argmin(np.linalg.norm(centroids[near] - pos[i], axis=1))]
    return rows


def nearest_occupied_row(grid: CylGrid, position: np.ndarray) -> int:
    """`nearest_occupied_rows` for one position."""
    return int(nearest_occupied_rows(grid, position)[0])
