"""Cylindrical voxelization and voxel-to-image-region pairing.

A grid partitions the in-range points of a cloud into R x Theta x Z bins over
(rho, theta, z). Bin intervals are half-open with the last bin closed, so the
partition has no gaps: every in-range point lands in exactly one voxel and
out-of-range points are recorded in a dropped list. `voxelize` bins a cloud's
x, y and z columns straight to flat voxel ids by the rule of
`CylGridSpec.bin_points`; `centroids_batch` gathers each edge-table entry of
a voxel once and sums its corners in `extreme_points_batch` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import IndexOutOfRangeError
from .geometry import TWO_PI, CameraModel, polar_columns, valid_projections


@dataclass
class PointCloud:
    """Point records: float32 xyz/intensity, uint16 labels, uint8 scan-source tag.

    A label or tag array left out is zeros: semantic class 0 is "unlabeled"
    and instance 0 is "no instance", as a PLC2 file stores them.
    """

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
        self.semantic = _field(self.semantic, np.uint16, n)
        self.instance = _field(self.instance, np.uint16, n)
        self.source = _field(self.source, np.uint8, n)

    def __len__(self) -> int:
        return self.xyz.shape[0]

    def select(self, idx) -> "PointCloud":
        """The points at integer indices `idx`, in that order."""
        return PointCloud(
            np.take(self.xyz, idx, axis=0),
            self.intensity[idx],
            self.semantic[idx],
            self.instance[idx],
            self.source[idx],
        )

    @staticmethod
    def concat(clouds: list["PointCloud"]) -> "PointCloud":
        if not clouds:
            return PointCloud(np.zeros((0, 3)), np.zeros(0))
        return PointCloud(
            np.concatenate([c.xyz for c in clouds]),
            np.concatenate([c.intensity for c in clouds]),
            np.concatenate([c.semantic for c in clouds]),
            np.concatenate([c.instance for c in clouds]),
            np.concatenate([c.source for c in clouds]),
        )


def _field(values, dtype, n: int) -> np.ndarray:
    """A per-point array of `dtype`, zeros where `values` is None."""
    return np.zeros(n, dtype=dtype) if values is None else np.asarray(values, dtype=dtype).reshape(n)


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
        if not 0 <= self.r_range[0] < self.r_range[1] < np.inf:  # False for NaN too
            raise ValueError("need 0 <= r_min < r_max < inf")
        if not -np.inf < self.z_range[0] < self.z_range[1] < np.inf:
            raise ValueError("need -inf < z_min < z_max < inf")

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

    def bin_points(self, polar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Assign polar triples to bins: returns ((N, 3) int32 indices, (N,) inside mask).

        Each index starts as floor((val - lo) / (hi - lo) * bins), clipped to
        the bins. Within a few ulps of an edge that formula and the `linspace`
        edges can round to opposite sides, so the edges decide: a value below
        its bin's lower edge steps down one bin, then a value at or past its
        bin's upper edge steps up one, and the index is clipped again. Every
        in-range value then satisfies edges[i] <= v < edges[i + 1], or
        v <= edges[-1] in the last bin.
        """
        polar = np.asarray(polar, dtype=np.float64).reshape(-1, 3)
        rho, theta, z = polar.T
        idx = np.empty((len(polar), 3), dtype=np.int32)
        for axis, bins in enumerate(self._axis_bins(rho, theta, z)):
            idx[:, axis] = bins
        return idx, self._inside(rho, z)

    def _inside(self, rho: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Whether each (rho, z) lies in the closed r and z ranges."""
        (r_lo, r_hi), (z_lo, z_hi) = self.r_range, self.z_range
        return (rho >= r_lo) & (rho <= r_hi) & (z >= z_lo) & (z <= z_hi)

    def _axis_bins(self, rho: np.ndarray, theta: np.ndarray, z: np.ndarray):
        """The int64 r, theta and z bins of polar columns, by `_edge_bins`."""
        return (_edge_bins(rho, *self.r_range, self.r_bins, self.r_edges),
                _edge_bins(theta, 0.0, TWO_PI, self.theta_bins, self.theta_edges),
                _edge_bins(z, *self.z_range, self.z_bins, self.z_edges))


def _edge_bins(vals: np.ndarray, lo: float, hi: float, bins: int, edges: np.ndarray) -> np.ndarray:
    """Clipped int64 bin of each value along one axis, consistent with that axis's edges."""
    scaled = vals - lo
    scaled *= bins / (hi - lo)
    idx = np.floor(scaled)
    np.clip(idx, 0, bins - 1, out=idx)
    idx = idx.astype(np.int64)
    # the scaled floor is off by at most one bin, within a few ulps of an edge
    idx -= vals < np.take(edges, idx)
    idx += vals >= np.take(edges, idx + 1)
    return np.clip(idx, 0, bins - 1, out=idx)


def lookup(keys: np.ndarray, q) -> np.ndarray:
    """Position of each of q, of any shape or a scalar, in the sorted distinct keys; -1 where it is not among them."""
    if len(keys) == 0:
        return np.full(np.shape(q), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(keys, q), len(keys) - 1)
    return np.where(keys[at] == q, at, -1)


def ranges(starts, sizes: np.ndarray) -> np.ndarray:
    """The concatenation of range(starts[s], starts[s] + sizes[s]) over segments s; a scalar start serves them all."""
    ends = np.cumsum(sizes)
    return np.arange(sizes.sum()) + np.repeat(starts - (ends - sizes), sizes)


def segment_pairs(a_start, a_size, b_start, b_size) -> tuple[np.ndarray, np.ndarray]:
    """Every (i, j) with i in range(a_start[s], a_start[s] + a_size[s]) and j in range(b_start[s],
    b_start[s] + b_size[s]), segment pair s by segment pair and j fastest; a_size may be the scalar 1.

    Each i pairs with its segment's range of j, so no pair needs a division:
    with a_size 1 the i are the starts as they are, and otherwise each i
    becomes a segment of its own.
    """
    if np.ndim(a_size) == 0 and a_size == 1:
        return np.repeat(a_start, b_size), ranges(b_start, b_size)
    return segment_pairs(ranges(a_start, a_size), 1, np.repeat(b_start, a_size), np.repeat(b_size, a_size))


@dataclass
class PairingTable:
    """Per-camera voxel-to-image rectangles, keyed by sorted flat voxel id."""

    flat_ids: np.ndarray
    rects: np.ndarray  # (n, 4) int32: u_min, v_min, u_max, v_max (inclusive)

    def rect_of(self, flat_id: int) -> np.ndarray | None:
        i = int(lookup(self.flat_ids, flat_id))
        return self.rects[i] if i >= 0 else None


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

    def column_rows(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the occupied voxels of flat (r, theta) columns, column after column, and each column's count."""
        lo = np.searchsorted(self.voxel_ids, cols * self.spec.z_bins)
        sizes = np.searchsorted(self.voxel_ids, (cols + 1) * self.spec.z_bins) - lo
        return ranges(lo, sizes), sizes

    def row_of(self, flat_id: int) -> int:
        return int(lookup(self.voxel_ids, flat_id))


def voxelize(cloud: PointCloud, spec: CylGridSpec) -> CylGrid:
    """Partition a cloud into cylindrical voxels.

    Out-of-range points are dropped, not clamped. A voxel's source tag is the
    maximum of its points' tags, so any new-scan point marks the voxel as new.
    A point's flat id is `flatten` of its `bin_points` triple, computed from
    the cloud's x, y and z columns without the (N, 3) polar or index arrays.
    """
    rho, theta, z = polar_columns(cloud.xyz)
    inside = spec._inside(rho, z)
    dropped = np.flatnonzero(~inside)
    kept = None
    if len(dropped):
        kept = np.flatnonzero(inside)
        rho, theta, z = rho[kept], theta[kept], z[kept]
    r_bins, t_bins, z_bins = spec._axis_bins(rho, theta, z)
    flat = (r_bins * spec.theta_bins + t_bins) * spec.z_bins + z_bins  # `flatten` of the bin triple
    n = len(flat)
    if spec.num_cells * n < 2**63:
        # flat * n + position is unique, so one unstable sort of these keys gives
        # the stable order: the sorted flat ids are key // n, the permutation key % n
        key = flat * n + np.arange(n)
        key.sort()
        flat_sorted, perm = np.divmod(key, n)
    else:  # the keys would overflow int64
        perm = np.argsort(flat, kind="stable")
        flat_sorted = flat[perm]
    order = perm if kept is None else kept[perm]
    is_first = np.diff(flat_sorted, prepend=-1) != 0  # each voxel's first entry
    first = np.flatnonzero(is_first)
    voxel_ids = flat_sorted[first]
    starts = np.append(first, n).astype(np.int64)
    # each entry's tag into its voxel row; uint8 tags are never below the zero start
    source = np.zeros(len(first), dtype=np.uint8)
    np.maximum.at(source, np.cumsum(is_first) - 1, cloud.source[order])
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


def centroids_batch(idx3: np.ndarray, spec: CylGridSpec) -> np.ndarray:
    """Mean of the eight corners for each voxel, shape (M, 3).

    Each edge-table entry is gathered once: the low and high r edges, the
    cosine and sine at the low and high theta edges. The corners' coordinates
    are summed in `_corners` order, so the result equals the mean of
    `extreme_points_batch` bit for bit without building the (M, 8, 3)
    corners. A z sum depends on the z bin alone and comes from a per-bin table.
    """
    idx3 = _checked_indices(idx3, spec)
    r, t, z = idx3.T
    r_e, z_e = spec.r_edges, spec.z_edges
    cos_t, sin_t = np.cos(spec.theta_edges), np.sin(spec.theta_edges)
    r0, r1 = np.take(r_e, r), np.take(r_e[1:], r)
    out = np.empty((len(idx3), 3))
    for axis, trig in enumerate((cos_t, sin_t)):
        lo, hi = np.take(trig, t), np.take(trig[1:], t)
        # the four (dr, dt) corners of a z edge, r fastest, once per z edge
        terms = (r0 * lo, r1 * lo, r0 * hi, r1 * hi)
        total = terms[0] + terms[1]
        for term in terms[2:] + terms:
            total += term
        np.divide(total, 8, out=out[:, axis])
    z_sum = z_e[:-1] + z_e[:-1]
    for term in (z_e[:-1], z_e[:-1], z_e[1:], z_e[1:], z_e[1:], z_e[1:]):
        z_sum += term
    out[:, 2] = np.take(z_sum / 8, z)
    return out


def pair_voxel_image(grid: CylGrid, cams: list[CameraModel]) -> CylGrid:
    """Attach per-camera bounding rectangles to every voxel with visible points.

    Rectangles enclose the floor-rounded projections of the voxel's physical
    points that land in front of the camera and inside the image; the virtual
    voxel center plays no part. Voxels with no surviving projection in a
    camera get no pairing for that camera.
    """
    pts = np.take(grid.cloud.xyz, grid.order, axis=0)
    rows = grid.point_rows
    for cam_id, cam in enumerate(cams):
        uv, _, valid = valid_projections(pts, cam)
        cells = np.floor(uv[valid]).astype(np.int32)
        vrows = rows[valid]  # nondecreasing: order is grouped by voxel
        seg_starts = np.flatnonzero(np.diff(vrows, prepend=-1))
        rects = np.empty((len(seg_starts), 4), dtype=np.int32)
        rects[:, 0] = np.minimum.reduceat(cells[:, 0], seg_starts)
        rects[:, 1] = np.minimum.reduceat(cells[:, 1], seg_starts)
        rects[:, 2] = np.maximum.reduceat(cells[:, 0], seg_starts)
        rects[:, 3] = np.maximum.reduceat(cells[:, 1], seg_starts)
        grid.pairings[cam_id] = PairingTable(grid.voxel_ids[vrows[seg_starts]], rects)
    return grid

