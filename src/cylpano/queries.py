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
in cells two apart along one axis, are neighbours without a distance test
(Gan & Tao, "DBSCAN Revisited", SIGMOD 2015), and the cells, found by int64
keys, also hold every other candidate pair, as in exact grid DBSCAN
(Gunawan, "A faster algorithm for DBSCAN", 2013).
Both hint groups are merged and thinned with farthest point sampling to a
fixed budget; each surviving hint indexes the fused token of its voxel, or of
the nearest occupied voxel, found in a growing window of (r, theta) columns
around it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError
from .grid import CylGrid, PointCloud, centroids_batch, lookup, ranges, segment_pairs
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
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _within(xyz: np.ndarray, i: np.ndarray, j: np.ndarray, eps: float) -> np.ndarray:
    """Whether each point i lies within eps of the point j beside it, by `cKDTree`'s rule: the squared
    differences summed over x, y and z in that order, compared with eps * eps. xyz is (3, n), one row per axis."""
    x, y, z = xyz
    dx, dy, dz = x[i] - x[j], y[i] - y[j], z[i] - z[j]
    return dx * dx + dy * dy + dz * dz <= eps * eps


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sorted distinct keys, one position of each in keys, and each key's index among them.

    Unlike `np.unique`'s `return_index`, the position need not be the first
    one, so the default sort serves, which is faster than the stable one.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.diff(ordered, prepend=ordered[:1] - 1) != 0
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(new) - 1
    return ordered[new], order[new], inverse


# the offsets after zero, in lexicographic order, of the cells linked outright
# (at most one step on every axis, or two along one axis) and of the coarse
# blocks around a block (at most one step on every axis); the mirror of each
# is not among them
_NEAR = np.array([d for d in itertools.product(range(-2, 3), repeat=3) if d > (0, 0, 0) and np.dot(d, d) <= 4])
_CUBE = np.array([d for d in itertools.product(range(-1, 2), repeat=3) if d > (0, 0, 0)])
_KEY_LIMIT = 2**63  # keys stay below int64's bound


def _keys(rows: np.ndarray, steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Int64 keys of the (n, 3) int64 rows, and (n, k) keys of each row plus each of the k steps.

    The rows hold values >= 0 and the steps values in [-4, 4]. The keys of
    the rows follow the rows' lexicographic order, and the key of a row plus
    a step equals the key of a row only where that row is. One key holds
    (x, y, z) with 4 empty places past the largest value of each axis, so a
    step past the end of an axis lands on no row. Where that key would
    overflow int64, the key is (rank of (x, y), z): with compressed cell
    coordinates, that takes a cloud of more than about 420k points, and
    (x, y) alone holds for up to about 6e8. Ranking every time would cost
    each call one more sort and one more lookup.
    """
    span = rows.max(axis=0) + 5
    xy = rows[:, 0] * span[1] + rows[:, 1]
    dxy = steps[:, 0] * span[1] + steps[:, 1]
    if math.prod(span.tolist()) < _KEY_LIMIT:
        keys = xy * span[2] + rows[:, 2]
        return keys, keys[:, None] + (dxy * span[2] + steps[:, 2])
    pairs, rank = np.unique(xy, return_inverse=True)
    at = lookup(pairs, xy[:, None] + dxy)
    # a step to a missing (x, y) gets a negative key, which is no row's
    return rank * span[2] + rows[:, 2], at * span[2] + rows[:, 2:] + steps[:, 2]


def dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Density clustering over 3D Euclidean distance.

    Two points are neighbours when their squared differences, summed over x,
    y and z in that order, are <= eps * eps (`_within`, the rule of scipy's
    `cKDTree`); a point is core when it has at least min_pts neighbours,
    counting itself. Clusters are the connected components of the graph of
    core-core neighbour pairs, numbered 0..C-1 by their lowest core index. A
    non-core point with core neighbours takes the smallest label among them;
    all other points are noise (-1).
    This is exactly the labeling of the classic expansion that seeds clusters
    in index order (Ester et al., KDD 1996).

    Cells. The points are binned into cubic cells of side eps / (2 * sqrt(3)),
    shrunk by a relative 1e-9 plus 4 machine epsilons for each cell the
    cloud's extent spans, so any two points in the same or 26-adjacent cells
    are within eps even after rounding. So are two points in cells two apart
    along one axis, which lie at most side * sqrt(11), about 0.96 eps, apart.
    A cell's block is the cell itself, those 26 and the 6 cells two apart.
    A point whose block holds min_pts points is core without a distance
    test, and core cells in one block are linked outright.

    Keys. Two points within eps lie at most 4 cells apart on every axis, so
    each axis' occupied cell coordinates are compressed: a gap of more than
    4 cells counts as 5, which keeps every offset up to 4 as it is and every
    larger one above 4. A cell is then one int64 key (`_keys`), and all its
    neighbour cells are found by one `lookup` among the sorted keys.

    Coarse blocks. Cells group into coarse blocks of 4 x 4 x 4 compressed
    cells, keyed the same way, and two points within eps always lie in the
    same or adjacent coarse blocks. Every point the cells leave unsure is
    tested against every point of the 27 coarse blocks around its own, which
    are listed once for each block that holds such a point: this gives its
    exact neighbour count and, if it is not core, its core neighbours. Core
    cells in different components can still hold neighbouring core points:
    the core points are grouped by (coarse block, component), and each group
    is tested against the groups of other components in its own and the
    adjacent coarse blocks, so no pair inside one component is formed; two
    groups that hold a pair within eps join their components.

    Every distance decision that the cells do not settle is made by
    `_within` on the x, y and z columns, copied once per call, so the labels
    are exact under that rule. It can round to the other side of eps than
    `np.linalg.norm(p - q)` for a pair within an ulp of eps, so labels equal
    a norm-based expansion only when no pair lies on such a tie.
    """
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    n = len(pts)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    if not eps > 0 or min_pts < 1:  # a NaN eps fails here too
        raise ValueError("need eps > 0 and min_pts >= 1")
    xyz = pts.T.copy()  # the x, y and z columns that every distance test reads
    rel = xyz - xyz.min(axis=1, keepdims=True)
    side = eps / (2.0 * np.sqrt(3.0))
    side *= 1.0 - 1e-9 - 4.0 * np.finfo(np.float64).eps * rel.max() / side
    ijk = np.floor(rel / side)
    # each axis' cell coordinates, with every gap of more than 4 cells cut to 5
    order, axes = np.argsort(ijk, axis=1), np.arange(3)[:, None]
    c = np.empty((3, n), dtype=np.int64)
    c[axes, order] = np.minimum(np.diff(ijk[axes, order], axis=1, prepend=0.0), 5.0).cumsum(axis=1)
    key, reach = _keys(c.T, _NEAR)
    cells, rep, cell = _distinct(key)
    m = len(cells)

    # pairs of cells linked outright, each pair once
    nb = lookup(cells, reach[rep])
    a, k = np.nonzero(nb >= 0)
    b = nb[a, k]
    counts = np.bincount(cell, minlength=m)
    core = (counts + np.bincount(a, counts[b], m) + np.bincount(b, counts[a], m))[cell] >= min_pts
    # the coarse blocks, the points of each and the blocks around each: the
    # block itself, the 13 after it, then the 13 that it comes after
    key, reach = _keys(c[:, rep].T // 4, np.concatenate([np.zeros((1, 3), dtype=np.int64), _CUBE, -_CUBE]))
    blocks, b_rep, cell_block = _distinct(key)
    around = lookup(blocks, reach[b_rep])
    block = cell_block[cell]
    by_block = np.argsort(block)
    size = np.bincount(block, minlength=len(blocks))
    start = np.cumsum(size) - size

    # every point the cells leave unsure against every point of the coarse
    # blocks around its own, listed once for each block that holds one
    unsure = np.flatnonzero(~core)
    held = np.zeros(len(blocks), dtype=bool)
    held[block[unsure]] = True
    dst = np.where(held[:, None], around, -1).reshape(-1)
    near_size = np.where(dst >= 0, size[dst], 0)
    near = by_block[ranges(start[dst], near_size)]
    near_size = near_size.reshape(len(blocks), -1).sum(axis=1)
    near_start = np.cumsum(near_size) - near_size
    i, j = segment_pairs(unsure, 1, near_start[block[unsure]], near_size[block[unsure]])
    j = near[j]
    hit = np.flatnonzero(_within(xyz, i, j, eps))
    i, j = i[hit], j[hit]
    core[unsure] = np.bincount(i, minlength=n)[unsure] >= min_pts

    # core cells linked outright
    core_cell = np.zeros(m, dtype=bool)
    core_cell[cell[core]] = True
    link = core_cell[a] & core_cell[b]
    comp = _components(np.stack([a[link], b[link]], axis=1), m)
    if np.count_nonzero(comp[core_cell] == np.flatnonzero(core_cell)) > 1:  # two components or more
        # groups of core points by (coarse block, component), in that order;
        # each group against the groups of other components in its own block
        # (each pair once) and in the 13 blocks after it
        cp = np.flatnonzero(core)
        group = block[cp] * m + comp[cell[cp]]
        order = np.argsort(group)
        members, group = cp[order], group[order]
        g_start = np.flatnonzero(np.diff(group, prepend=-1))
        g_size = np.diff(g_start, append=len(cp))
        g_block, g_comp = np.divmod(group[g_start], m)
        run = np.bincount(g_block, minlength=len(blocks))  # each block's groups
        dst = around[g_block, :1 + len(_CUBE)].reshape(-1)
        ga, gb = segment_pairs(np.repeat(np.arange(len(g_start)), 1 + len(_CUBE)), 1,
                               np.cumsum(run)[dst] - run[dst], np.where(dst >= 0, run[dst], 0))
        cross = (g_comp[ga] != g_comp[gb]) & ((ga < gb) | (g_block[ga] != g_block[gb]))
        ga, gb = ga[cross], gb[cross]
        pa, pb = segment_pairs(g_start[ga], g_size[ga], g_start[gb], g_size[gb])
        # the pairs of groups that hold a pair within eps; each pair of groups is one run of point pairs
        runs = g_size[ga] * g_size[gb]
        joined = np.logical_or.reduceat(_within(xyz, members[pa], members[pb], eps), np.cumsum(runs) - runs)
        comp = _components(np.stack([g_comp[ga[joined]], g_comp[gb[joined]]], axis=1), m)[comp]

    # number the clusters by their lowest core point
    core_comp = comp[cell[core]]
    _, first, inv = np.unique(core_comp, return_index=True, return_inverse=True)
    labels[core] = np.argsort(np.argsort(first))[inv]
    # a non-core point takes the smallest label among its core neighbours,
    # which are among the pairs tested for the unsure points
    border = ~core[i] & core[j]
    best = np.full(n, n)
    np.minimum.at(best, i[border], labels[j[border]])
    labels[best < n] = best[best < n]
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
        # one bincount per axis adds each cluster's points in index order, as
        # an axis-0 mean does; the noise points fall in bin 0
        bins = dbscan(pts, eps, min_pts) + 1
        sizes = np.bincount(bins)[1:]
        centroids = np.stack([np.bincount(bins, weights=pts[:, ax])[1:] for ax in range(3)], axis=1) / sizes[:, None]
        hints += [LocationHint(c, size / len(pts), "texture") for c, size in zip(centroids, sizes.tolist())]
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
        if self.prior_spe.shape != (len(self.hints), self.dim):
            raise ValueError("one embedding row of length dim per hint")
        if any(a.ndim != 2 or a.shape[1] != self.dim for a in (self.no_prior, self.semantic)):
            raise ValueError("no-prior and semantic queries must be rows of length dim")

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
