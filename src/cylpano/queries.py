"""Prior-based query seeding: BEV peaks, frustum lifting, clustering, sampling.

Geometric hints come from a polar bird's-eye-view heatmap, which splats every
instance centre (all taken from one stable sort of the points by instance id):
greedy non-maximum suppression picks well-separated peaks, each kept peak
marking its disc on a suppression mask from one offset stencil, and each peak
is lifted to 3D by averaging the centroids of the occupied voxels in its
(r, theta) column; the centroids of all peak columns come from one batched
call. Texture hints come from 2D masks: the cloud is projected once per
camera, every point whose pixel cell is set in a mask is collected into the
mask's frustum, clustered with DBSCAN to split depth-overlapping objects, and
each cluster centroid becomes a hint. DBSCAN bins the points into cubic cells
of side eps / (2 * sqrt(3)), so points in the same or adjacent cells, or
in cells two apart along one axis, are neighbours without a distance test,
and only the points the cells leave undecided go through a k-d tree (Gan &
Tao, "DBSCAN Revisited", SIGMOD 2015).
Both hint groups are merged and thinned with farthest point sampling to a
fixed budget; each surviving hint indexes the fused token of its voxel, or of
the nearest occupied voxel, found in a growing window of (r, theta) columns
around it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import IndexOutOfRangeError
from .grid import CylGrid, PointCloud, centroids_batch
from .geometry import CameraModel, cart_to_polar, valid_projections
from .tokens import SpeParams, TokenSet, nearest_occupied_rows, spe_batch


@dataclass
class Mask2D:
    """Binary mask in one camera's pixel grid."""

    camera_id: int
    bitmap: np.ndarray

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


def build_bev_heatmap(grid: CylGrid, mode: str, sigma: float) -> np.ndarray:
    """Class-agnostic confidence map over the (r, theta) BEV grid, values in [0, 1].

    gt_gaussian splats a Gaussian of std `sigma` bins at the center of every
    nonzero instance id (max-combined, wrapping over theta), so a cloud without
    one gives an all-zero map; density normalizes per-column point counts.
    Both stand in for a learned center head.
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

    # one Gaussian window over row offsets x theta offsets, each theta offset
    # taken the shorter way round, so columns a wide window visits twice agree
    w = 0 if sigma <= 0.0 else int(np.ceil(4.0 * sigma))
    off = np.arange(-w, w + 1)
    dist_sq = off[:, None] ** 2 + _theta_offset(off % spec.theta_bins, spec.theta_bins) ** 2
    window = np.ones((1, 1)) if sigma <= 0.0 else np.exp(-dist_sq / (2.0 * sigma**2))
    # every instance's points from one stable sort by id, so each centre is the
    # mean of the same rows, in the same order, as a per-id selection gives
    inst = grid.cloud.instance
    labeled = np.flatnonzero(inst)
    by_id = labeled[np.argsort(inst[labeled], kind="stable")]
    bounds = np.append(np.flatnonzero(np.diff(inst[by_id], prepend=0)), len(by_id))
    centers = np.array([grid.cloud.xyz[by_id[a:b]].astype(np.float64).mean(axis=0)
                        for a, b in zip(bounds[:-1], bounds[1:])]).reshape(-1, 3)
    idx, inside = spec.bin_points(cart_to_polar(centers))
    for r, t in idx[inside, :2]:
        rows = r + off
        keep = (rows >= 0) & (rows < spec.r_bins)
        np.maximum.at(heat, (rows[keep, None], (t + off) % spec.theta_bins), window[keep])
    return heat


def _theta_offset(dt, theta_bins: int):
    """Bins between two theta bins `dt` apart (|dt| < theta_bins), the shorter way round."""
    dt = np.abs(dt)
    return np.minimum(dt, theta_bins - dt)


def nms_peaks(
    heat: np.ndarray, conf_thresh: float, radius: float, max_peaks: int
) -> list[tuple[tuple[int, int], float]]:
    """Greedy peak selection by descending confidence with a separation radius.

    A cell is kept iff its confidence is >= conf_thresh and its BEV bin
    distance (theta wrapping) to every already-kept cell exceeds `radius`.
    Ties in confidence break toward the lower flat index. Each kept cell marks
    its disc of radius `radius` on a suppression mask from one offset
    stencil, so a candidate costs one lookup. A NaN radius is rejected.
    """
    if np.isnan(radius):
        raise ValueError("NMS radius must not be NaN")
    if max_peaks <= 0:
        return []
    heat = np.asarray(heat, dtype=np.float64)
    r_bins, theta_bins = heat.shape
    flat = heat.reshape(-1)
    cand = np.flatnonzero(flat >= conf_thresh)
    order = cand[np.lexsort((cand, -flat[cand]))]
    # offsets (row, theta mod theta_bins) of the cells a kept cell suppresses;
    # w = -1 leaves none for a negative radius
    w = int(min(max(np.floor(radius), -1.0), r_bins - 1))
    near = np.hypot(np.arange(-w, w + 1)[:, None], _theta_offset(np.arange(theta_bins), theta_bins)) <= radius
    dr, dt = np.nonzero(near)
    dr -= w
    suppressed = np.zeros(len(flat), dtype=bool)
    kept: list[tuple[tuple[int, int], float]] = []
    for c in order.tolist():
        if suppressed[c]:
            continue
        r, t = divmod(c, theta_bins)
        rows = r + dr
        on = (rows >= 0) & (rows < r_bins)
        suppressed[rows[on] * theta_bins + (t + dt[on]) % theta_bins] = True
        kept.append(((r, t), float(flat[c])))
        if len(kept) >= max_peaks:
            break
    return kept


def lift_peaks_to_3d(peaks, grid: CylGrid) -> tuple[np.ndarray, np.ndarray]:
    """Lift BEV peaks to 3D, each as the mean centroid of its occupied height column.

    Returns the (K, 3) positions and a (K,) mask of the peaks whose column
    holds an occupied voxel; the other positions are NaN. One
    `centroids_batch` call covers every column, and each column is averaged
    on its own.
    """
    spec = grid.spec
    rt = np.asarray(peaks, dtype=np.int64).reshape(-1, 2)
    outside = ~((rt >= 0) & (rt < (spec.r_bins, spec.theta_bins))).all(axis=1)
    if outside.any():
        raise IndexOutOfRangeError(f"peak {tuple(rt[outside][0].tolist())} outside the BEV grid")
    rows, sizes = grid.column_rows(rt[:, 0] * spec.theta_bins + rt[:, 1])
    ends = np.cumsum(sizes)
    starts = ends - sizes
    pos = np.full((len(rt), 3), np.nan)
    if len(rows):
        cents = centroids_batch(spec.unflatten(grid.voxel_ids[rows]), spec)
        for k in np.flatnonzero(sizes):
            pos[k] = cents[starts[k]:ends[k]].mean(axis=0)
    return pos, sizes > 0


def geometric_hints(
    grid: CylGrid, heat: np.ndarray, conf_thresh: float, radius: float, max_peaks: int
) -> list[LocationHint]:
    """NMS peaks lifted to 3D; peaks over empty columns are skipped."""
    peaks = nms_peaks(heat, conf_thresh, radius, max_peaks)
    pos, lifted = lift_peaks_to_3d([rt for rt, _ in peaks], grid)
    return [LocationHint(pos[k], conf, "geometric") for k, (_, conf) in enumerate(peaks) if lifted[k]]


def camera_pixels(cloud: PointCloud, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the points that project with positive depth into the image, and their (u, v) pixel cells."""
    uv, _, valid = valid_projections(cloud.xyz, cam)
    idx = np.flatnonzero(valid)
    return idx, np.floor(uv[idx]).astype(np.int64)


def frustum_points(mask: Mask2D, cam: CameraModel, pixels: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Indices of the points whose pixel cell, from `camera_pixels(cloud, cam)`, is set in the mask."""
    if mask.bitmap.shape != (cam.height, cam.width):
        raise ValueError("mask must match the camera image size")
    idx, cells = pixels
    return idx[mask.bitmap[cells[:, 1], cells[:, 0]]]


def _components(pairs: np.ndarray, n: int) -> np.ndarray:
    """Component of each of n nodes joined by the (E, 2) edge list, as its lowest node.

    Each round hooks the larger of two linked roots under the smaller one and
    then points every node at its root. This takes a few rounds of whole-array
    work, where `scipy.sparse.csgraph.connected_components` costs 0.1-0.3 ms
    per call in graph setup alone.
    """
    root = np.arange(n)
    a, b = pairs[:, 0], pairs[:, 1]
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            return root
        np.minimum.at(root, np.maximum(ra[split], rb[split]), np.minimum(ra[split], rb[split]))
        while not np.array_equal(root[root], root):
            root = root[root]


def _within(p: np.ndarray, q: np.ndarray, eps: float) -> np.ndarray:
    """Whether each row of p lies within eps of the same row of q, by `cKDTree`'s rule:
    the squared differences summed over x, y and z in that order, compared with eps * eps."""
    d = p - q
    return d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= eps * eps


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering over 3D Euclidean distance.

    Two points are neighbours when their distance, as `cKDTree` computes it,
    is <= eps; a point is core when it has at least min_pts neighbours,
    counting itself. Clusters are the connected components of the graph of
    core-core neighbour pairs, numbered 0..C-1 by their lowest core index. A
    non-core point with core neighbours takes the smallest label among them;
    all other points are noise (-1).
    This is exactly the labeling of the classic expansion that seeds clusters
    in index order (Ester et al., KDD 1996).

    The points are binned into cubic cells of side eps / (2 * sqrt(3)), shrunk
    by a relative 1e-9 plus 4 machine epsilons for each cell the cloud's
    extent spans, so any two points in the same or 26-adjacent cells are
    within eps even after rounding. So are two points in cells two apart
    along one axis, which lie at most side * sqrt(11), about 0.96 eps, apart.
    A cell's block is the cell itself, its 26 neighbours and the 6 cells two
    apart along an axis. A point whose block holds min_pts points is core
    without a distance test; only the others are counted by the k-d tree.
    Core cells in one block are linked outright. Two core cells further apart
    (offsets up to 4 cells whose boxes lie within eps) can still hold
    neighbouring core points. Such a pair is kept only when its cells belong
    to different components; then every core point of one cell is tested
    against every core point of the other by `_within`, the distance rule of
    `cKDTree`, and each pair within eps joins two components. Every distance
    decision that the cells do not settle is made by that rule, so the labels
    are exact under it. The k-d tree's distance can round to the other side
    of eps than `np.linalg.norm(p - q)` for a pair within an ulp of eps, so
    labels equal a norm-based expansion only when no pair lies on such a tie.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    if not eps > 0 or min_pts < 1:  # a NaN eps fails here too
        raise ValueError("need eps > 0 and min_pts >= 1")
    rel = pts - pts.min(axis=0)
    side = eps / (2.0 * np.sqrt(3.0))
    side *= 1.0 - 1e-9 - 4.0 * np.finfo(np.float64).eps * rel.max() / side
    ijk = np.floor(rel / side)
    order = np.lexsort(ijk.T[::-1])
    starts = np.ones(n, dtype=bool)
    starts[1:] = (ijk[order[1:]] != ijk[order[:-1]]).any(axis=1)
    cell = np.empty(n, dtype=np.int64)
    cell[order] = np.cumsum(starts) - 1
    coords = ijk[order[starts]]
    m = len(coords)

    # cell pairs linked outright: at most one step apart on every axis
    # (squared offsets sum to <= 3) or two apart along one axis (sum 4)
    near = cKDTree(coords).query_pairs(2.0, output_type="ndarray")
    a, b = near[:, 0], near[:, 1]
    counts = np.bincount(cell, minlength=m)
    block = counts + np.bincount(a, counts[b], m) + np.bincount(b, counts[a], m)
    core = block[cell] >= min_pts
    tree = cKDTree(pts)
    unsure = np.flatnonzero(~core)
    if len(unsure):
        core[unsure] = tree.query_ball_point(pts[unsure], eps, return_length=True) >= min_pts

    core_cell = np.zeros(m, dtype=bool)
    core_cell[cell[core]] = True
    comp = _components(near[core_cell[a] & core_cell[b]], m)
    cc = np.flatnonzero(core_cell)
    if len(np.unique(comp[cc])) > 1:
        # core cells up to 4 steps apart (squared offsets sum to <= 27) whose
        # components differ and whose boxes lie within eps of each other
        far = cc[cKDTree(coords[cc]).query_pairs(5.2, output_type="ndarray")]
        far = far[comp[far[:, 0]] != comp[far[:, 1]]]
        gap = np.maximum(np.abs(coords[far[:, 0]] - coords[far[:, 1]]) - 1.0, 0.0)
        far = far[(gap**2).sum(axis=1) <= 12.0]
        # every core point of one cell against every core point of the other
        by_cell = order[core[order]]  # core points, grouped by cell
        ncore = np.bincount(cell[by_cell], minlength=m)
        start = np.cumsum(ncore) - ncore
        size = ncore[far[:, 0]] * ncore[far[:, 1]]
        pair = np.repeat(np.arange(len(far)), size)
        k = np.arange(len(pair)) - np.repeat(np.cumsum(size) - size, size)
        fa, fb = far[pair].T
        hit = _within(pts[by_cell[start[fa] + k // ncore[fb]]], pts[by_cell[start[fb] + k % ncore[fb]]], eps)
        links = np.unique(comp[fa[hit]] * m + comp[fb[hit]])  # one per pair of components
        comp = _components(np.stack(np.divmod(links, m), axis=1), m)[comp]

    # number the clusters by their lowest core point
    core_comp = comp[cell[core]]
    _, first, inv = np.unique(core_comp, return_index=True, return_inverse=True)
    labels[core] = np.argsort(np.argsort(first))[inv]
    # a border point takes the smallest label among its core neighbours
    border = np.flatnonzero(~core)
    if len(border):
        nbrs = tree.query_ball_point(pts[border], eps)
        lens = np.fromiter(map(len, nbrs), dtype=np.int64, count=len(border))
        flat = np.fromiter(itertools.chain.from_iterable(nbrs), dtype=np.int64, count=int(lens.sum()))
        best = np.minimum.reduceat(np.where(core[flat], labels[flat], n), np.cumsum(lens) - lens)
        labels[border] = np.where(best < n, best, -1)
    return labels


def fps(
    points: np.ndarray,
    k: int,
    confidences: np.ndarray,
) -> np.ndarray:
    """Greedy farthest point sampling in 3D Euclidean space.

    Starts at the highest-confidence point (ties to the lowest index). Each
    later pick maximizes the minimum distance to the selected set, ties again
    to the lowest index. Returns all indices when k >= n.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k >= n:
        return np.arange(n, dtype=np.int64)
    start = int(np.argmax(np.asarray(confidences)))
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = start
    min_d = np.linalg.norm(pts - pts[start], axis=1)
    for i in range(1, k):
        nxt = int(np.argmax(min_d))
        chosen[i] = nxt
        min_d = np.minimum(min_d, np.linalg.norm(pts - pts[nxt], axis=1))
    return chosen


def texture_hints(
    masks: list[Mask2D], cloud: PointCloud, cams: list[CameraModel], eps: float, min_pts: int
) -> list[LocationHint]:
    """Cluster each mask's frustum points and emit one hint per cluster centroid.

    The cloud is projected once for each camera that has a mask. A hint's
    confidence is its cluster's share of the frustum's points; noise points
    produce no hints.
    """
    hints = []
    pixels = {}  # camera id -> its projection of the cloud, made once per camera
    for mask in masks:
        cam = cams[mask.camera_id]
        if mask.camera_id not in pixels:
            pixels[mask.camera_id] = camera_pixels(cloud, cam)
        idx = frustum_points(mask, cam, pixels[mask.camera_id])
        pts = cloud.xyz[idx].astype(np.float64)
        labels = dbscan(pts, eps, min_pts)
        for lab in range(labels.max(initial=-1) + 1):
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
    hints: list[LocationHint]
    no_prior: np.ndarray  # (l_lt, dim) float32
    semantic: np.ndarray  # (C, dim) float32

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
    l_pr: int,
    l_lt: int,
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
        prior_content=tokens.content[rows].astype(np.float32, copy=False),
        prior_spe=spe_batch(grid.spec.unflatten(grid.voxel_ids[rows]), grid.spec, params).astype(np.float32),
        hints=hints,
        no_prior=placeholder_queries(l_lt, dim, params.seed, 1),
        semantic=placeholder_queries(num_classes, dim, params.seed, 2),
    )
