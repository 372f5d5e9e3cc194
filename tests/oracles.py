"""Independent brute-force reference implementations used as test oracles.

These deliberately avoid the library's vectorized code paths: plain loops,
dicts, and set algebra, so a bug in the implementation cannot hide in its own
oracle.
"""

import numpy as np


def azimuth_filter_points(cloud, spec, selected_theta_bins):
    """Point indices whose azimuth falls in the selected angular intervals (in range only)."""
    edges = [b * 2.0 * np.pi / spec.theta_bins for b in range(spec.theta_bins + 1)]
    chosen = set(int(b) for b in selected_theta_bins)
    out = set()
    for i, (x, y, z) in enumerate(np.asarray(cloud.xyz, dtype=np.float64)):
        rho = np.sqrt(x * x + y * y)
        if not (spec.r_range[0] <= rho <= spec.r_range[1] and spec.z_range[0] <= z <= spec.z_range[1]):
            continue
        az = np.arctan2(y, x)
        if az < 0:
            az += 2.0 * np.pi
        for b in chosen:
            if edges[b] <= az < edges[b + 1] or (b == spec.theta_bins - 1 and az >= edges[b]):
                out.add(i)
                break
    return out


def z_interval_filter_points(cloud, spec, selected_z_bins):
    """Point indices whose height falls in the selected z-bin intervals (in range only)."""
    z_lo, z_hi = spec.z_range
    width = (z_hi - z_lo) / spec.z_bins
    chosen = set(int(b) for b in selected_z_bins)
    out = set()
    for i, (x, y, z) in enumerate(np.asarray(cloud.xyz, dtype=np.float64)):
        rho = np.sqrt(x * x + y * y)
        if not (spec.r_range[0] <= rho <= spec.r_range[1] and z_lo <= z <= z_hi):
            continue
        for b in chosen:
            lo = z_lo + b * width
            hi = z_lo + (b + 1) * width
            if lo <= z < hi or (b == spec.z_bins - 1 and z == z_hi):
                out.add(i)
                break
    return out


def mask_selected_points(grid, mask):
    """Point indices sitting in voxels where the mask is set."""
    flat = np.asarray(mask).reshape(-1)
    out = set()
    for row in range(grid.num_voxels):
        if flat[grid.voxel_ids[row]]:
            out.update(int(i) for i in grid.order[grid.starts[row]:grid.starts[row + 1]])
    return out


def greedy_nms(heat, conf_thresh, radius, max_peaks):
    """Reference NMS: sort cells, then O(n * k) suppression with theta wraparound."""
    heat = np.asarray(heat, dtype=np.float64)
    n_theta = heat.shape[1]
    cells = [
        (r, t, heat[r, t])
        for r in range(heat.shape[0])
        for t in range(n_theta)
        if heat[r, t] >= conf_thresh
    ]
    cells.sort(key=lambda c: (-c[2], c[0] * n_theta + c[1]))
    kept = []
    for r, t, conf in cells:
        ok = True
        for (kr, kt), _ in kept:
            dt = abs(kt - t)
            dt = min(dt, n_theta - dt)
            if np.hypot(kr - r, dt) <= radius:
                ok = False
                break
        if ok:
            kept.append(((r, t), conf))
            if len(kept) >= max_peaks:
                break
    return kept


def reference_heatmap(centers, shape, sigma):
    """Reference gt_gaussian heatmap, cell by cell, from the (r, theta) bins of the in-range centres.

    A centre reaches a cell when the row offset and the theta offset, taken the
    shorter way round, are both at most ceil(4 * sigma) bins; it then adds
    exp(-(dr^2 + dtheta^2) / (2 * sigma^2)), or 1 at its own cell when
    sigma <= 0. A cell holds the largest of these, or 0.
    """
    r_bins, theta_bins = shape
    w = int(np.ceil(4.0 * sigma)) if sigma > 0.0 else 0
    args = np.full((len(centers), r_bins, theta_bins), -np.inf)
    for k, (r0, t0) in enumerate(centers):
        for r in range(r_bins):
            for t in range(theta_bins):
                dr = abs(r - r0)
                dt = min(abs(t - t0), theta_bins - abs(t - t0))
                if dr <= w and dt <= w:
                    args[k, r, t] = 0.0 if sigma <= 0.0 else -(dr * dr + dt * dt) / (2.0 * sigma**2)
    return np.exp(args).max(axis=0, initial=0.0)


def reference_dbscan(points, eps, min_pts):
    """Textbook DBSCAN over a full distance matrix, seeds expanding in index order."""
    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    neighbors = [sorted(np.flatnonzero(dist[i] <= eps).tolist()) for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = [-1] * n
    visited = [False] * n
    cluster = 0
    for seed in range(n):
        if visited[seed] or not core[seed]:
            continue
        visited[seed] = True
        labels[seed] = cluster
        frontier = [seed]
        while frontier:
            p = frontier.pop(0)
            for q in neighbors[p]:
                if labels[q] == -1:
                    labels[q] = cluster
                if not visited[q] and core[q]:
                    visited[q] = True
                    frontier.append(q)
        cluster += 1
    return np.array(labels)


def pairs_dbscan(points, eps, min_pts):
    """DBSCAN from every neighbour pair `cKDTree.query_pairs(eps)` lists, for inputs too large for a distance matrix.

    Clusters are the connected components of the core-core pairs, found by
    `scipy.sparse.csgraph`, and numbered in the order of their lowest core
    index; a border point takes the smallest label among its core neighbours.
    It shares the k-d tree's distance rule with `dbscan` but none of its cells.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    pts = np.asarray(points, dtype=np.float64)
    n = len(pts)
    i, j = cKDTree(pts).query_pairs(eps, output_type="ndarray").T
    core = np.bincount(i, minlength=n) + np.bincount(j, minlength=n) + 1 >= min_pts
    both = core[i] & core[j]
    graph = coo_matrix((np.ones(both.sum()), (i[both], j[both])), shape=(n, n))
    comp = connected_components(graph, directed=False)[1]
    number = {}
    labels = np.full(n, -1, dtype=np.int64)
    for p in np.flatnonzero(core):
        labels[p] = number.setdefault(comp[p], len(number))
    best = np.full(n, n, dtype=np.int64)
    for src, dst in ((i, j), (j, i)):
        edge = core[src] & ~core[dst]
        np.minimum.at(best, dst[edge], labels[src[edge]])
    border = ~core & (best < n)
    labels[border] = best[border]
    return labels


def clusters_as_sets(labels):
    """Canonical form for comparing clusterings up to relabeling."""
    labels = np.asarray(labels)
    groups = {}
    for i, lab in enumerate(labels):
        if lab >= 0:
            groups.setdefault(int(lab), set()).add(i)
    noise = frozenset(int(i) for i in np.flatnonzero(labels < 0))
    return frozenset(frozenset(g) for g in groups.values()), noise


def fps_step_is_greedy(points, chosen, confidences=None):
    """Check every FPS pick maximizes the min distance to the already-chosen set.

    Distances compare exactly; ties must break to the lowest index, and the
    start must be the (first) highest-confidence point.
    """
    pts = np.asarray(points, dtype=np.float64)
    chosen = [int(c) for c in chosen]
    if confidences is None:
        expected_start = 0
    else:
        conf = np.asarray(confidences, dtype=np.float64)
        expected_start = int(np.flatnonzero(conf == conf.max())[0])
    if chosen[0] != expected_start:
        return False
    for step in range(1, len(chosen)):
        selected = chosen[:step]
        d = np.array(
            [min(float(np.linalg.norm(pts[i] - pts[j])) for j in selected) for i in range(len(pts))]
        )
        if chosen[step] != int(np.flatnonzero(d == d.max())[0]):
            return False
    return True


def segments_of(semantic, instance, table):
    """Map (class, instance) -> point index set, with stuff collapsed to instance 0."""
    segments = {}
    things = set(table.things)
    ignored = set(table.ignored)
    for i, (s, inst) in enumerate(zip(semantic.tolist(), instance.tolist())):
        if s in ignored:
            continue
        key = (s, inst if s in things else 0)
        segments.setdefault(key, set()).add(i)
    return segments


def reference_panoptic_report(pred_sem, pred_inst, gt_sem, gt_inst, table):
    """Independent PQ matcher: all-pairs IoU table, strict 0.5 threshold.

    Returns per-class tallies and metric values in plain dicts, computed with
    set algebra over segment membership.
    """
    valid = [i for i, s in enumerate(gt_sem.tolist()) if s not in set(table.ignored)]
    keep = np.asarray(valid, dtype=int)
    g_segs = segments_of(gt_sem[keep], gt_inst[keep], table)
    p_segs = segments_of(pred_sem[keep], pred_inst[keep], table)

    tp = {}
    matched_p = set()
    for g_key in sorted(g_segs):
        g_set = g_segs[g_key]
        for p_key in sorted(p_segs):
            if p_key[0] != g_key[0] or p_key in matched_p:
                continue
            inter = len(g_set & p_segs[p_key])
            if inter == 0:
                continue
            iou = inter / len(g_set | p_segs[p_key])
            if iou > 0.5:
                tp.setdefault(g_key[0], []).append((g_key, p_key, iou))
                matched_p.add(p_key)
                break
    matched_g = {gk for lst in tp.values() for gk, _, _ in lst}
    fp = {}
    for p_key in sorted(p_segs):
        if p_key not in matched_p:
            fp[p_key[0]] = fp.get(p_key[0], 0) + 1
    fn = {}
    for g_key in sorted(g_segs):
        if g_key not in matched_g:
            fn[g_key[0]] = fn.get(g_key[0], 0) + 1

    classes = sorted(set(tp) | set(fp) | set(fn))
    per_class = {}
    for c in classes:
        n_tp = len(tp.get(c, []))
        n_fp = fp.get(c, 0)
        n_fn = fn.get(c, 0)
        iou_sum = sum(iou for _, _, iou in tp.get(c, []))
        sq = iou_sum / n_tp if n_tp else 0.0
        denom = n_tp + 0.5 * n_fp + 0.5 * n_fn
        rq = n_tp / denom if denom else 0.0
        per_class[c] = {"tp": n_tp, "fp": n_fp, "fn": n_fn, "sq": sq, "rq": rq, "pq": sq * rq}

    iou_sem = reference_miou(pred_sem, gt_sem, table)
    participating = [c for c in classes if per_class[c]["tp"] + per_class[c]["fp"] + per_class[c]["fn"] > 0]
    things = [c for c in participating if table.kind(c) == "thing"]
    stuff = [c for c in participating if table.kind(c) == "stuff"]

    def mean(vals):
        return sum(vals) / len(vals) if vals else 0.0

    agg = {
        "pq": mean([per_class[c]["pq"] for c in participating]),
        "sq": mean([per_class[c]["sq"] for c in participating]),
        "rq": mean([per_class[c]["rq"] for c in participating]),
        "pq_things": mean([per_class[c]["pq"] for c in things]),
        "sq_things": mean([per_class[c]["sq"] for c in things]),
        "rq_things": mean([per_class[c]["rq"] for c in things]),
        "pq_stuff": mean([per_class[c]["pq"] for c in stuff]),
        "sq_stuff": mean([per_class[c]["sq"] for c in stuff]),
        "rq_stuff": mean([per_class[c]["rq"] for c in stuff]),
        "pq_dagger": mean(
            [
                per_class[c]["pq"] if table.kind(c) == "thing" else iou_sem[0].get(c, 0.0)
                for c in participating
            ]
        ),
        "miou": iou_sem[1],
    }
    return per_class, agg, participating


def reference_miou(pred_sem, gt_sem, table):
    """Confusion-matrix mIoU over classes present in gt or pred."""
    ignored = set(table.ignored)
    conf = {}
    for p, g in zip(pred_sem.tolist(), gt_sem.tolist()):
        if g in ignored:
            continue
        conf[(g, p)] = conf.get((g, p), 0) + 1
    classes = sorted(
        {g for g, _ in conf} | {p for _, p in conf if p not in ignored} - ignored
    )
    ious = {}
    for c in classes:
        inter = conf.get((c, c), 0)
        union = (
            sum(v for (g, _), v in conf.items() if g == c)
            + sum(v for (_, p), v in conf.items() if p == c)
            - inter
        )
        ious[c] = inter / union if union else 0.0
    mean = sum(ious.values()) / len(ious) if ious else 0.0
    return ious, mean


def polar_to_cart(pol):
    """Inverse of `cart_to_polar`: (..., 3) (rho, theta, z) triples to (x, y, z)."""
    pol = np.asarray(pol, dtype=np.float64)
    rho, theta = pol[..., 0], pol[..., 1]
    return np.stack([rho * np.cos(theta), rho * np.sin(theta), pol[..., 2]], axis=-1)


def backproject(u, v, depth, cam):
    """Lift a pixel with known camera-frame depth back into the LiDAR frame."""
    ray = np.linalg.solve(cam.intrinsic, np.array([u, v, 1.0]))
    R, t = cam.extrinsic[:3, :3], cam.extrinsic[:3, 3]
    return R.T @ (ray / ray[2] * depth - t)


def reference_rasterize(uv, depth, width, height, splat_radius):
    """Per-candidate z-buffer over projected points: (pixel, point index, depth) per painted pixel.

    A point in front of the camera and inside the image paints every pixel of
    the disk of `splat_radius` around its cell; each pixel keeps the candidate
    with the smallest (depth, point index). Rows come out in pixel order.
    """
    best = {}
    r = splat_radius
    for i, ((u, v), d) in enumerate(zip(np.asarray(uv).tolist(), np.asarray(depth).tolist())):
        if not (d > 0.0 and 0.0 <= u < width and 0.0 <= v < height):
            continue
        for dx in range(-r, r + 1):
            for dy in range(-r, r + 1):
                pu, pv = int(np.floor(u)) + dx, int(np.floor(v)) + dy
                if dx * dx + dy * dy <= r * r and 0 <= pu < width and 0 <= pv < height:
                    pix = pv * width + pu
                    if pix not in best or (d, i) < best[pix]:
                        best[pix] = (d, i)
    pixels = sorted(best)
    return (np.array(pixels, dtype=np.int64), np.array([best[p][1] for p in pixels], dtype=np.int64),
            np.array([best[p][0] for p in pixels], dtype=np.float64))


def reference_sample_box(rng, n, w, d, h):
    """Box surface points sampled face by face, drawing face, a, b from `rng` in that order.

    Faces 0/1 are x = +-w/2, faces 2/3 are y = +-d/2 and face 4 is the top,
    z = h; each face is chosen with probability proportional to its area.
    """
    areas = np.array([d * h, d * h, w * h, w * h, w * d])
    face = rng.choice(5, size=n, p=areas / areas.sum())
    a = rng.uniform(-0.5, 0.5, n)
    b = rng.uniform(0.0, 1.0, n)
    pts = np.empty((n, 3))
    for f in range(5):
        m = face == f
        if not m.any():
            continue
        if f in (0, 1):
            pts[m, 0] = (w / 2.0) if f == 0 else (-w / 2.0)
            pts[m, 1] = a[m] * d
            pts[m, 2] = b[m] * h
        elif f in (2, 3):
            pts[m, 0] = a[m] * w
            pts[m, 1] = (d / 2.0) if f == 2 else (-d / 2.0)
            pts[m, 2] = b[m] * h
        else:
            pts[m, 0] = a[m] * w
            pts[m, 1] = (b[m] - 0.5) * d
            pts[m, 2] = h
    return pts


# The plain expressions that the one-pass kernels of `grid`, `geometry` and
# `tokens` replaced. Unlike the brute-force oracles above they are vectorized:
# the kernels must equal them bit for bit, not only up to rounding.


def stable_sort_voxelize(cloud, spec):
    """order, voxel_ids, starts, source and dropped of `voxelize`, from `bin_points` of
    `cart_to_polar`, `flatten` and a stable argsort of the flat ids."""
    from cylpano.geometry import cart_to_polar

    idx, inside = spec.bin_points(cart_to_polar(cloud.xyz))
    kept = np.flatnonzero(inside)
    flat = spec.flatten(idx[kept])
    perm = np.argsort(flat, kind="stable")
    order = kept[perm]
    voxel_ids, counts = np.unique(flat[perm], return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    source = (np.maximum.reduceat(cloud.source[order], starts[:-1]) if len(voxel_ids)
              else np.zeros(0, dtype=np.uint8))
    return order, voxel_ids, starts, source, np.flatnonzero(~inside)


def reference_projections(xyz, cam):
    """(uv, depth, valid) of `valid_projections` as `xyz @ R.T + t`, then `@ K.T`, one divide
    and five comparisons."""
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    cam_pts = xyz @ cam.extrinsic[:3, :3].T + cam.extrinsic[:3, 3]
    depth = cam_pts[:, 2]
    hom = cam_pts @ cam.intrinsic.T
    with np.errstate(divide="ignore", invalid="ignore"):
        uv = hom[:, :2] / depth[:, None]
    valid = ((depth > 0.0) & (uv[:, 0] >= 0.0) & (uv[:, 0] < cam.width)
             & (uv[:, 1] >= 0.0) & (uv[:, 1] < cam.height))
    return uv, depth, valid


def reference_pairings(grid, cams):
    """Per camera, the flat ids and rectangles of `pair_voxel_image`, with segments from `np.unique`."""
    pts = grid.cloud.xyz[grid.order]
    rows = np.repeat(np.arange(grid.num_voxels), grid.counts)
    tables = []
    for cam in cams:
        uv, _, valid = reference_projections(pts, cam)
        cells = np.floor(uv[valid]).astype(np.int32)
        uniq, seg = np.unique(rows[valid], return_index=True)
        rects = np.empty((len(uniq), 4), dtype=np.int32)
        for col, (ufunc, axis) in enumerate([(np.minimum, 0), (np.minimum, 1), (np.maximum, 0), (np.maximum, 1)]):
            rects[:, col] = ufunc.reduceat(cells[:, axis], seg)
        tables.append((grid.voxel_ids[uniq], rects))
    return tables


def _sampled_entries(grid, fmaps, cams, bilinear):
    """Per (point, camera) pair with a valid projection, in camera then point order, its voxel row,
    and its `FeatureMap.cells` indices (offset into the stacked maps) and weights; also the
    stacked maps as float64 and the projection count per row."""
    from cylpano.geometry import valid_projections

    pts = grid.cloud.xyz[grid.order]
    point_rows = np.repeat(np.arange(grid.num_voxels), grid.counts)
    entries, counts, offset = [], np.zeros(grid.num_voxels, dtype=np.int64), 0
    for fmap, cam in zip(fmaps, cams):
        uv, _, valid = valid_projections(pts, cam)
        idx, w = fmap.cells(uv[valid], bilinear)
        entries.append((point_rows[valid], idx + offset, w))
        counts += np.bincount(point_rows[valid], minlength=grid.num_voxels)
        offset += fmap.data.shape[0] * fmap.data.shape[1]
    stacked = np.concatenate([fmap.data.reshape(-1, fmap.dim) for fmap in fmaps]).astype(np.float64)
    return entries, stacked, counts


def reference_image_half(grid, fmaps, cams, spe, bilinear):
    """Image half of `build_tokens`: the embedding plus each voxel's sampled feature sum over its
    valid (point, camera) projections, one `scipy.sparse` product, divided by max(count, 1) on every row."""
    from scipy.sparse import csr_matrix

    entries, stacked, counts = _sampled_entries(grid, fmaps, cams, bilinear)
    rows = np.concatenate([np.repeat(r, idx.shape[1]) for r, idx, _ in entries])
    cols = np.concatenate([idx.ravel() for _, idx, _ in entries])
    wts = np.concatenate([w.ravel() for _, _, w in entries])
    sampling = csr_matrix((wts, (rows, cols)), shape=(grid.num_voxels, len(stacked)))
    return spe + (sampling @ stacked) / np.maximum(counts, 1.0)[:, None], counts


def looped_image_means(grid, fmaps, cams, bilinear):
    """Each voxel's image mean, row by row: the weights of a repeated cell summed in input order
    (camera, point, corner) from 0.0, then 0.0 plus weight * feature for each distinct cell in
    ascending order, divided by the projection count where it is above 1; (M, D) float64 and counts."""
    entries, stacked, counts = _sampled_entries(grid, fmaps, cams, bilinear)
    weights = [{} for _ in range(grid.num_voxels)]
    for rows, idx, w in entries:
        for row, cells, ws in zip(rows.tolist(), idx.tolist(), w.tolist()):
            for cell, wt in zip(cells, ws):
                weights[row][cell] = weights[row].get(cell, 0.0) + wt
    means = np.zeros((grid.num_voxels, stacked.shape[1]))
    for row, cell_w in enumerate(weights):
        acc = np.zeros(stacked.shape[1])
        for cell in sorted(cell_w):
            acc = acc + cell_w[cell] * stacked[cell]
        means[row] = acc / counts[row] if counts[row] > 1 else acc
    return means, counts


def position_encoding(centers, params):
    """Sinusoidal embedding of centroid positions, band by band: sin and cos of pi * c * scale * 2^k
    for each of x, y, z, rho and theta and each band k, projected by `psi_w`."""
    from cylpano.geometry import cart_to_polar
    from cylpano.tokens import N_BANDS

    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    coords = np.column_stack([centers, cart_to_polar(centers)[:, :2]])
    args = np.pi * coords[:, :, None] * params.coord_scales[None, :, None] * 2.0 ** np.arange(N_BANDS)
    feats = np.concatenate([np.sin(args), np.cos(args)], axis=2).reshape(len(centers), params.psi_w.shape[1])
    return feats @ params.psi_w.T


def bilinear_sample(fmap, uv):
    """Features at continuous pixel coordinates, interpolated between the four nearest feature-cell
    centers, clamped to the outermost cells at the map's borders; (N, D) float64."""
    h, w, _ = fmap.data.shape
    d = fmap.data.astype(np.float64)
    uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
    x = np.clip(uv[:, 0] * w / fmap.width - 0.5, 0, w - 1)
    y = np.clip(uv[:, 1] * h / fmap.height - 0.5, 0, h - 1)
    x0, y0 = np.floor(x).astype(int), np.floor(y).astype(int)
    x1, y1 = np.minimum(x0 + 1, w - 1), np.minimum(y0 + 1, h - 1)
    ax, ay = (x - x0)[:, None], (y - y0)[:, None]
    return (d[y0, x0] * (1 - ax) * (1 - ay) + d[y0, x1] * ax * (1 - ay)
            + d[y1, x0] * (1 - ax) * ay + d[y1, x1] * ax * ay)
