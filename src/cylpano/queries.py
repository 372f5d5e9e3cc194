"""Prior-based query seeding: BEV peaks, frustum lifting, clustering, sampling.

Geometric hints come from a polar bird's-eye-view heatmap: greedy non-maximum
suppression picks well-separated peaks, and each peak is lifted to 3D by
averaging the centroids of the occupied voxels in its (r, theta) column.
Texture hints come from 2D masks: every point whose projection lands inside a
mask is collected into the mask's frustum, clustered with DBSCAN to split
depth-overlapping objects, and each cluster centroid becomes a hint. Both hint
groups are merged and thinned with farthest point sampling to a fixed budget;
each surviving hint indexes the fused token of its (nearest occupied) voxel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree

from .errors import EmptyColumnError, IndexOutOfRangeError, MissingLabelsError
from .grid import CylGrid, PointCloud, centroids_batch, column_rows
from .geometry import CameraModel, cart_to_polar, valid_projections
from .tokens import SpeParams, TokenSet, nearest_occupied_rows, spe_batch


@dataclass
class Mask2D:
    """Binary mask in one camera's pixel grid."""

    camera_id: int
    bitmap: np.ndarray
    class_tag: int | None = None

    def __post_init__(self):
        self.bitmap = np.asarray(self.bitmap).astype(bool)
        if self.bitmap.ndim != 2:
            raise ValueError("bitmap must be H x W")


@dataclass
class LocationHint:
    """Candidate instance center seeding one prior query."""

    position: np.ndarray
    confidence: float
    origin: str  # "geometric" | "texture"

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=np.float64).reshape(3)
        if not np.isfinite(self.position).all():
            raise ValueError("hint position must be finite")


def build_bev_heatmap(grid: CylGrid, mode: str = "gt_gaussian", sigma: float = 2.0) -> np.ndarray:
    """Class-agnostic confidence map over the (r, theta) BEV grid, values in [0, 1].

    gt_gaussian splats a Gaussian of std `sigma` bins at every labeled
    instance center (max-combined, wrapping over theta); density normalizes
    per-column point counts. Both stand in for a learned center head.
    """
    spec = grid.spec
    heat = np.zeros((spec.r_bins, spec.theta_bins))
    if mode == "density":
        counts = np.bincount(grid.voxel_ids // spec.z_bins, grid.counts, spec.r_bins * spec.theta_bins)
        if counts.max() > 0:
            heat = (counts / counts.max()).reshape(spec.r_bins, spec.theta_bins)
        return heat
    if mode != "gt_gaussian":
        raise ValueError("mode must be 'gt_gaussian' or 'density'")
    if grid.cloud.instance is None:
        raise MissingLabelsError("gt_gaussian heatmap needs instance labels")

    inst = grid.cloud.instance
    for inst_id in np.unique(inst[inst > 0]):
        center = grid.cloud.xyz[inst == inst_id].astype(np.float64).mean(axis=0)
        idx, inside = spec.bin_points(cart_to_polar(center[None]))
        if not inside[0]:
            continue
        r0, t0 = int(idx[0, 0]), int(idx[0, 1])
        if sigma <= 0.0:
            heat[r0, t0] = 1.0
            continue
        w = int(np.ceil(4.0 * sigma))
        dr = np.arange(-w, w + 1)
        rr = r0 + dr
        keep_r = (rr >= 0) & (rr < spec.r_bins)
        if 2 * w + 1 >= spec.theta_bins:
            # window wraps all the way around: visit each column once at its
            # minimal circular offset
            off = np.arange(spec.theta_bins)
            tt = (t0 + off) % spec.theta_bins
            dt_sq = np.minimum(off, spec.theta_bins - off) ** 2
        else:
            dt = np.arange(-w, w + 1)
            tt = (t0 + dt) % spec.theta_bins
            dt_sq = dt**2
        g = np.exp(-(dr[keep_r, None] ** 2 + dt_sq[None, :]) / (2.0 * sigma**2))
        sub = heat[np.ix_(rr[keep_r], tt)]
        heat[np.ix_(rr[keep_r], tt)] = np.maximum(sub, g)
    return heat


def bev_bin_distance(a: tuple[int, int], b: tuple[int, int], theta_bins: int) -> float:
    """Euclidean distance in bin units with angular wraparound."""
    dr = a[0] - b[0]
    dt = abs(a[1] - b[1])
    dt = min(dt, theta_bins - dt)
    return float(np.hypot(dr, dt))


def nms_peaks(
    heat: np.ndarray,
    conf_thresh: float = 0.1,
    radius: float = 4.0,
    max_peaks: int = 128,
) -> list[tuple[tuple[int, int], float]]:
    """Greedy peak selection by descending confidence with a separation radius.

    A cell is kept iff its confidence is >= conf_thresh and its BEV bin
    distance (theta wrapping) to every already-kept cell exceeds `radius`.
    Ties in confidence break toward the lower flat index.
    """
    heat = np.asarray(heat, dtype=np.float64)
    theta_bins = heat.shape[1]
    flat = heat.reshape(-1)
    cand = np.flatnonzero(flat >= conf_thresh)
    if len(cand) == 0 or max_peaks <= 0:
        return []
    order = cand[np.lexsort((cand, -flat[cand]))]
    kept_r = np.empty(max_peaks, dtype=np.int64)
    kept_t = np.empty(max_peaks, dtype=np.int64)
    kept: list[tuple[tuple[int, int], float]] = []
    for c in order:
        r, t = divmod(int(c), theta_bins)
        if kept:
            k = len(kept)
            dt = np.abs(kept_t[:k] - t)
            dt = np.minimum(dt, theta_bins - dt)
            if not (np.hypot(kept_r[:k] - r, dt) > radius).all():
                continue
        kept_r[len(kept)] = r
        kept_t[len(kept)] = t
        kept.append(((r, t), float(flat[c])))
        if len(kept) >= max_peaks:
            break
    return kept


def lift_peak_to_3d(peak: tuple[int, int], grid: CylGrid) -> LocationHint:
    """Lift a BEV peak to 3D as the mean centroid of its occupied height column."""
    r, t = int(peak[0]), int(peak[1])
    if not (0 <= r < grid.spec.r_bins and 0 <= t < grid.spec.theta_bins):
        raise IndexOutOfRangeError(f"peak {(r, t)} outside the BEV grid")
    rows = column_rows(grid, r, t)
    if len(rows) == 0:
        raise EmptyColumnError(f"no occupied voxel in column {(r, t)}")
    cents = centroids_batch(grid.spec.unflatten(grid.voxel_ids[rows]), grid.spec)
    return LocationHint(cents.mean(axis=0), 1.0, "geometric")


def geometric_hints(
    grid: CylGrid,
    heat: np.ndarray,
    conf_thresh: float = 0.1,
    radius: float = 4.0,
    max_peaks: int = 128,
) -> list[LocationHint]:
    """NMS peaks lifted to 3D; peaks over empty columns are skipped."""
    hints = []
    for (r, t), conf in nms_peaks(heat, conf_thresh, radius, max_peaks):
        try:
            hint = lift_peak_to_3d((r, t), grid)
        except EmptyColumnError:
            continue
        hint.confidence = conf
        hints.append(hint)
    return hints


def frustum_points(mask: Mask2D, cloud: PointCloud, cam: CameraModel) -> np.ndarray:
    """Indices of points whose projection has positive depth and hits a set mask cell."""
    if mask.bitmap.shape != (cam.height, cam.width):
        raise ValueError("mask must match the camera image size")
    uv, _, valid = valid_projections(cloud.xyz, cam)
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return idx
    cells = np.floor(uv[idx]).astype(np.int64)
    hit = mask.bitmap[cells[:, 1], cells[:, 0]]
    return idx[hit]


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering over 3D Euclidean distance.

    Two points are neighbours when their distance is <= eps; a point is core
    when it has at least min_pts neighbours, counting itself. Clusters are the
    connected components of the graph of core-core neighbour pairs, numbered
    0..C-1 by their lowest core index. A non-core point with core neighbours
    takes the smallest label among them; all other points are noise (-1).
    This is exactly the labeling of the classic expansion that seeds clusters
    in index order (Ester et al., KDD 1996).
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    if eps <= 0 or min_pts < 1:
        raise ValueError("need eps > 0 and min_pts >= 1")
    pairs = cKDTree(pts).query_pairs(eps, output_type="ndarray")
    core = np.bincount(pairs.reshape(-1), minlength=n) + 1 >= min_pts
    a, b = pairs[:, 0], pairs[:, 1]
    # CSR graph over the core points alone, one entry per core-core pair
    local = np.cumsum(core, dtype=np.int32) - 1
    both = core[a] & core[b]
    rows, cols = local[a[both]], local[b[both]]
    by_row = np.argsort(rows)
    m = int(core.sum())
    indptr = np.searchsorted(rows[by_row], np.arange(m + 1))
    graph = csr_matrix((np.ones(len(rows)), cols[by_row], indptr), shape=(m, m))
    comp = connected_components(graph, directed=False)[1]
    # number the components by their lowest core point
    first = np.unique(comp, return_index=True)[1]
    labels[core] = np.argsort(np.argsort(first))[comp]
    # a border point takes the smallest label among its core neighbours
    ends = pairs[core[a] != core[b]]
    c = np.where(core[ends[:, 0]], ends[:, 0], ends[:, 1])
    best = np.full(n, n)
    np.minimum.at(best, ends.sum(axis=1) - c, labels[c])
    labels = np.where(best < n, best, labels)
    return labels


def fps(
    points: np.ndarray,
    k: int,
    start: int | None = None,
    confidences: np.ndarray | None = None,
) -> np.ndarray:
    """Greedy farthest point sampling in 3D Euclidean space.

    Starts at `start` if given, else at the highest-confidence point (ties to
    the lowest index; no confidences means index 0). Each later pick maximizes
    the minimum distance to the selected set, ties again to the lowest index.
    Returns all indices when k >= n.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        return np.arange(n, dtype=np.int64)
    if start is None:
        start = 0 if confidences is None else int(np.argmax(np.asarray(confidences)))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start
    min_d = np.linalg.norm(pts - pts[start], axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(min_d))
        chosen[i] = nxt
        min_d = np.minimum(min_d, np.linalg.norm(pts - pts[nxt], axis=1))
    return chosen


def texture_hints(
    masks: list[Mask2D],
    cloud: PointCloud,
    cams: list[CameraModel],
    eps: float = 0.8,
    min_pts: int = 5,
) -> list[LocationHint]:
    """Cluster each mask's frustum points and emit one hint per cluster centroid.

    A hint's confidence is its cluster's share of the frustum's points; noise
    points produce no hints.
    """
    hints = []
    for mask in masks:
        cam = cams[mask.camera_id]
        idx = frustum_points(mask, cloud, cam)
        if len(idx) == 0:
            continue
        pts = cloud.xyz[idx].astype(np.float64)
        labels = dbscan(pts, eps, min_pts)
        for lab in range(labels.max() + 1):
            members = pts[labels == lab]
            hints.append(
                LocationHint(members.mean(axis=0), len(members) / len(pts), "texture")
            )
    return hints


@dataclass
class QuerySet:
    """Prior queries plus placeholder no-prior and semantic queries."""

    dim: int
    prior_content: np.ndarray  # (P, 2 * dim) float32
    prior_spe: np.ndarray      # (P, dim) float32
    hints: list[LocationHint] = field(default_factory=list)
    no_prior: np.ndarray = None  # (l_lt, dim) float32
    semantic: np.ndarray = None  # (C, dim) float32

    def __post_init__(self):
        if self.prior_content.shape != (len(self.hints), 2 * self.dim):
            raise ValueError("one content row of length 2*dim per hint")

    @property
    def num_prior(self) -> int:
        return self.prior_content.shape[0]


def placeholder_queries(count: int, dim: int, seed: int, stream: int) -> np.ndarray:
    """Deterministic placeholder vectors for queries with no modality prior."""
    rng = np.random.default_rng([seed, stream])
    return rng.normal(0.0, 1.0, (count, dim)).astype(np.float32)


def assemble_queries(
    geo_hints: list[LocationHint],
    tex_hints: list[LocationHint],
    grid: CylGrid,
    tokens: TokenSet,
    params: SpeParams,
    l_pr: int = 128,
    l_lt: int = 128,
    num_classes: int = 17,
) -> QuerySet:
    """Merge hint groups, thin to at most l_pr with FPS, and index token content.

    Each prior query copies the fused token content of the voxel containing
    its hint (nearest occupied voxel by centroid distance when that cell is
    empty) and carries that voxel's embedding, computed for these voxels only.
    Hint shortfall below l_pr is kept as-is, never padded. No-prior and
    semantic queries are deterministic placeholders from the embedding seed.
    """
    hints = list(geo_hints) + list(tex_hints)
    if len(hints) > l_pr:
        pos = np.stack([h.position for h in hints])
        conf = np.array([h.confidence for h in hints])
        sel = fps(pos, l_pr, confidences=conf)
        hints = [hints[i] for i in sel]

    dim = params.dim
    if grid.num_voxels == 0 or len(tokens) == 0:
        hints = []
    rows = nearest_occupied_rows(grid, [h.position for h in hints])
    return QuerySet(
        dim=dim,
        prior_content=tokens.content[rows].astype(np.float32),
        prior_spe=spe_batch(grid.spec.unflatten(grid.voxel_ids[rows]), grid.spec, params).astype(np.float32),
        hints=hints,
        no_prior=placeholder_queries(l_lt, dim, params.seed, 1),
        semantic=placeholder_queries(num_classes, dim, params.seed, 2),
    )
