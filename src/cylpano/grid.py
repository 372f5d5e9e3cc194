"""Cylindrical voxelization and voxel-to-image-region pairing.

A grid partitions the in-range points of a cloud into R x Theta x Z bins over
(rho, theta, z). Bin intervals are half-open with the last bin closed, so the
partition has no gaps: every in-range point lands in exactly one voxel and
out-of-range points are recorded in a dropped list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError
from .geometry import TWO_PI, CameraModel, cart_to_polar, valid_projections


@dataclass
class PointCloud:
    """Point records: float32 xyz/intensity, uint16 labels, uint8 scan-source tag."""

    xyz: np.ndarray
    intensity: np.ndarray
    semantic: np.ndarray | None = None
    instance: np.ndarray | None = None
    source: np.ndarray | None = None

    def __post_init__(self):
        self.xyz = np.ascontiguousarray(np.asarray(self.xyz, dtype=np.float32).reshape(-1, 3))
        if not np.isfinite(self.xyz).all():
            raise ValueError("point coordinates must be finite")
        n = self.xyz.shape[0]
        self.intensity = np.asarray(self.intensity, dtype=np.float32).reshape(n)
        if self.semantic is not None:
            self.semantic = np.asarray(self.semantic, dtype=np.uint16).reshape(n)
        if self.instance is not None:
            self.instance = np.asarray(self.instance, dtype=np.uint16).reshape(n)
        if self.source is None:
            self.source = np.zeros(n, dtype=np.uint8)
        else:
            self.source = np.asarray(self.source, dtype=np.uint8).reshape(n)

    def __len__(self) -> int:
        return self.xyz.shape[0]

    @property
    def has_labels(self) -> bool:
        return self.semantic is not None and self.instance is not None

    def select(self, idx) -> "PointCloud":
        return PointCloud(
            self.xyz[idx],
            self.intensity[idx],
            None if self.semantic is None else self.semantic[idx],
            None if self.instance is None else self.instance[idx],
            self.source[idx],
        )

    @staticmethod
    def concat(clouds: list["PointCloud"]) -> "PointCloud":
        if not clouds:
            return PointCloud(np.zeros((0, 3)), np.zeros(0))
        labeled = [c.has_labels for c in clouds]
        if any(labeled) and not all(labeled):
            raise ValueError("cannot concatenate labeled and unlabeled clouds")
        return PointCloud(
            np.concatenate([c.xyz for c in clouds]),
            np.concatenate([c.intensity for c in clouds]),
            np.concatenate([c.semantic for c in clouds]) if all(labeled) else None,
            np.concatenate([c.instance for c in clouds]) if all(labeled) else None,
            np.concatenate([c.source for c in clouds]),
        )


@dataclass(frozen=True)
class CylGridSpec:
    """Bin counts and coordinate ranges of a cylindrical grid."""

    r_bins: int = 480
    theta_bins: int = 360
    z_bins: int = 32
    r_range: tuple[float, float] = (0.0, 50.0)
    z_range: tuple[float, float] = (-5.0, 3.0)

    def __post_init__(self):
        if min(self.r_bins, self.theta_bins, self.z_bins) < 1:
            raise ValueError("all bin counts must be >= 1")
        if self.r_range[0] < 0 or self.r_range[0] >= self.r_range[1]:
            raise ValueError("need 0 <= r_min < r_max")
        if self.z_range[0] >= self.z_range[1]:
            raise ValueError("need z_min < z_max")

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.r_bins, self.theta_bins, self.z_bins)

    @property
    def num_cells(self) -> int:
        return self.r_bins * self.theta_bins * self.z_bins

    @property
    def r_edges(self) -> np.ndarray:
        return np.linspace(self.r_range[0], self.r_range[1], self.r_bins + 1)

    @property
    def theta_edges(self) -> np.ndarray:
        return np.linspace(0.0, TWO_PI, self.theta_bins + 1)

    @property
    def z_edges(self) -> np.ndarray:
        return np.linspace(self.z_range[0], self.z_range[1], self.z_bins + 1)

    def flatten(self, idx3: np.ndarray) -> np.ndarray:
        idx3 = np.asarray(idx3, dtype=np.int64).reshape(-1, 3)
        return (idx3[:, 0] * self.theta_bins + idx3[:, 1]) * self.z_bins + idx3[:, 2]

    def unflatten(self, flat: np.ndarray) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.int64)
        r, rem = np.divmod(flat, self.theta_bins * self.z_bins)
        t, z = np.divmod(rem, self.z_bins)
        return np.stack([r, t, z], axis=-1)

    def validate_index(self, idx3) -> tuple[int, int, int]:
        return tuple(_checked_indices(np.asarray(idx3).reshape(3), self)[0].tolist())

    def bin_points(self, polar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assign polar triples to bins: returns ((N, 3) int32 indices, (N,) inside mask).

        Indices follow floor((val - lo) / (hi - lo) * bins), clipped so that
        values exactly on the upper range edge fall in the last bin. Within a
        few ulps of an interior edge that formula and the `linspace` edges can
        round to opposite sides, so such values are checked against the edges
        and moved to the neighbouring bin: every in-range value then satisfies
        edges[i] <= v < edges[i + 1], or v <= edges[-1] in the last bin.
        """
        polar = np.asarray(polar, dtype=np.float64).reshape(-1, 3)
        rho, theta, z = polar[:, 0], polar[:, 1], polar[:, 2]
        r_lo, r_hi = self.r_range
        z_lo, z_hi = self.z_range
        inside = (rho >= r_lo) & (rho <= r_hi) & (z >= z_lo) & (z <= z_hi)
        idx = np.empty((len(polar), 3), dtype=np.int32)
        idx[:, 0] = _edge_bins(rho, r_lo, r_hi, self.r_bins, self.r_edges)
        idx[:, 1] = _edge_bins(theta, 0.0, TWO_PI, self.theta_bins, self.theta_edges)
        idx[:, 2] = _edge_bins(z, z_lo, z_hi, self.z_bins, self.z_edges)
        return idx, inside


def _edge_bins(vals: np.ndarray, lo: float, hi: float, bins: int, edges: np.ndarray) -> np.ndarray:
    """Clipped bin of each value along one axis, consistent with that axis's edges."""
    scaled = vals - lo
    scaled *= bins / (hi - lo)
    idx = np.floor(scaled)
    nearest = np.rint(scaled)
    scaled -= nearest
    # Rounding in `scaled` and in the edges is a few ulps of the range's magnitude,
    # so only values that close to an edge can sit on its wrong side; they take
    # the bin above the edge if they reach it, else the bin below.
    tol = 64 * np.finfo(np.float64).eps * bins * (1.0 + max(abs(lo), abs(hi)) / (hi - lo))
    near = np.flatnonzero(np.abs(scaled, out=scaled) <= tol)
    np.clip(idx, 0, bins - 1, out=idx)
    idx = idx.astype(np.int32)
    if len(near):
        k = np.clip(nearest[near], 0, bins).astype(np.int64)
        idx[near] = np.clip(k - (vals[near] < edges[k]), 0, bins - 1)
    return idx


@dataclass
class PairingTable:
    """Per-camera voxel-to-image rectangles, keyed by sorted flat voxel id."""

    flat_ids: np.ndarray
    rects: np.ndarray  # (n, 4) int32: u_min, v_min, u_max, v_max (inclusive)

    def rect_of(self, flat_id: int) -> np.ndarray | None:
        i = np.searchsorted(self.flat_ids, flat_id)
        if i < len(self.flat_ids) and self.flat_ids[i] == flat_id:
            return self.rects[i]
        return None


@dataclass
class CylGrid:
    """Voxelized cloud: point indices grouped by voxel, plus image pairings.

    `order` lists in-range point indices grouped by voxel (input order within a
    voxel); voxel m owns order[starts[m]:starts[m + 1]] and has flat id
    voxel_ids[m]. `source` carries one provenance tag per voxel.
    """

    spec: CylGridSpec
    cloud: PointCloud
    voxel_ids: np.ndarray
    starts: np.ndarray
    order: np.ndarray
    dropped: np.ndarray
    source: np.ndarray
    pairings: dict[int, PairingTable] = field(default_factory=dict)

    @property
    def num_voxels(self) -> int:
        return len(self.voxel_ids)

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.starts)

    @property
    def indices3(self) -> np.ndarray:
        return self.spec.unflatten(self.voxel_ids)

    @property
    def point_rows(self) -> np.ndarray:
        """Voxel row of each entry of `order`."""
        return np.repeat(np.arange(self.num_voxels), self.counts)

    def row_of(self, flat_id: int) -> int:
        i = int(np.searchsorted(self.voxel_ids, flat_id))
        if i < self.num_voxels and self.voxel_ids[i] == flat_id:
            return i
        return -1

    def points_of_row(self, row: int) -> np.ndarray:
        return self.order[self.starts[row]:self.starts[row + 1]]


def voxelize(cloud: PointCloud, spec: CylGridSpec) -> CylGrid:
    """Partition a cloud into cylindrical voxels.

    Out-of-range points are dropped, not clamped. A voxel's source tag is the
    maximum of its points' tags, so any new-scan point marks the voxel as new.
    """
    polar = cart_to_polar(cloud.xyz)
    idx, inside = spec.bin_points(polar)
    kept = np.flatnonzero(inside)
    flat = spec.flatten(idx[kept])
    n = len(kept)
    if spec.num_cells * n < 2**63:
        # flat * n + position is unique, so one unstable sort of these keys gives
        # the stable order: the sorted flat ids are key // n, the permutation key % n
        key = flat * n + np.arange(n)
        key.sort()
        flat_sorted, perm = np.divmod(key, n)
    else:  # the keys would overflow int64
        perm = np.argsort(flat, kind="stable")
        flat_sorted = flat[perm]
    order = kept[perm]
    first = np.flatnonzero(np.diff(flat_sorted, prepend=-1))  # each voxel's first entry
    voxel_ids = flat_sorted[first]
    starts = np.append(first, n).astype(np.int64)
    source = np.maximum.reduceat(cloud.source[order], starts[:-1]).astype(np.uint8)
    dropped = np.flatnonzero(~inside)
    return CylGrid(spec, cloud, voxel_ids, starts, order, dropped, source)


def _checked_indices(idx3, spec: CylGridSpec) -> np.ndarray:
    """(M, 3) int64 voxel indices; raises if any lies outside the grid."""
    idx3 = np.asarray(idx3, dtype=np.int64).reshape(-1, 3)
    bad = (idx3 < 0) | (idx3 >= spec.shape)
    if bad.any():
        first = tuple(idx3[bad.any(axis=1)][0].tolist())
        raise IndexOutOfRangeError(f"voxel index {first} outside {spec.shape}")
    return idx3


def _corners(idx3: np.ndarray, spec: CylGridSpec):
    """Yield the (x, y, z) arrays of checked voxels' eight corners, one corner at a time.

    Corner order: r varies fastest, then theta, then z (low edge before high).
    Each coordinate comes from a per-edge table: the r edges times the cosine
    or sine of the theta edges, and the z edges.
    """
    r, t, z = idx3.T
    r_e, z_e = spec.r_edges, spec.z_edges
    cos_t, sin_t = np.cos(spec.theta_edges), np.sin(spec.theta_edges)
    for dz in (0, 1):
        for dt in (0, 1):
            for dr in (0, 1):
                yield r_e[r + dr] * cos_t[t + dt], r_e[r + dr] * sin_t[t + dt], z_e[z + dz]


def extreme_points_batch(idx3: np.ndarray, spec: CylGridSpec) -> np.ndarray:
    """Cartesian corners of voxels, shape (M, 8, 3), in `_corners` order."""
    return np.array(list(_corners(_checked_indices(idx3, spec), spec))).transpose(2, 0, 1).copy()


def voxel_extreme_points(idx3, spec: CylGridSpec) -> np.ndarray:
    """Eight Cartesian corners (8, 3) of one voxel."""
    return extreme_points_batch(np.asarray(idx3).reshape(1, 3), spec)[0]


def centroids_batch(idx3: np.ndarray, spec: CylGridSpec) -> np.ndarray:
    """Mean of the eight corners for each voxel, shape (M, 3).

    The corners are summed in `_corners` order, so the result equals the mean
    of `extreme_points_batch` bit for bit without building the (M, 8, 3) corners.
    """
    idx3 = _checked_indices(idx3, spec)
    total = np.zeros((3, len(idx3)))
    for corner in _corners(idx3, spec):
        for axis_total, values in zip(total, corner):
            axis_total += values
    return np.ascontiguousarray(total.T) / 8  # row-major, like the mean it equals


def voxel_centroid(idx3, spec: CylGridSpec) -> np.ndarray:
    """Arithmetic mean of one voxel's eight corners."""
    return centroids_batch(np.asarray(idx3).reshape(1, 3), spec)[0]


def voxel_volume(idx3, spec: CylGridSpec) -> float:
    """Analytic volume of a voxel; grows linearly with the radial bin."""
    r, _, _ = spec.validate_index(idx3)
    r_e = spec.r_edges
    d_theta = TWO_PI / spec.theta_bins
    d_z = (spec.z_range[1] - spec.z_range[0]) / spec.z_bins
    return 0.5 * d_theta * (r_e[r + 1] ** 2 - r_e[r] ** 2) * d_z


def pair_voxel_image(grid: CylGrid, cams: list[CameraModel]) -> CylGrid:
    """Attach per-camera bounding rectangles to every voxel with visible points.

    Rectangles enclose the floor-rounded projections of the voxel's physical
    points that land in front of the camera and inside the image; the virtual
    voxel center plays no part. Voxels with no surviving projection in a
    camera get no pairing for that camera.
    """
    pts = grid.cloud.xyz[grid.order]
    rows = grid.point_rows
    for cam_id, cam in enumerate(cams):
        uv, _, valid = valid_projections(pts, cam)
        cells = np.floor(uv[valid]).astype(np.int32)
        vrows = rows[valid]  # nondecreasing: order is grouped by voxel
        uniq, seg_starts = np.unique(vrows, return_index=True)
        rects = np.empty((len(uniq), 4), dtype=np.int32)
        rects[:, 0] = np.minimum.reduceat(cells[:, 0], seg_starts)
        rects[:, 1] = np.minimum.reduceat(cells[:, 1], seg_starts)
        rects[:, 2] = np.maximum.reduceat(cells[:, 0], seg_starts)
        rects[:, 3] = np.maximum.reduceat(cells[:, 1], seg_starts)
        grid.pairings[cam_id] = PairingTable(grid.voxel_ids[uniq], rects)
    return grid

