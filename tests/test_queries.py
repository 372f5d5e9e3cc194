import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from cylpano.config import QueryConfig
from cylpano.formats import read_point_cloud, write_point_cloud
from cylpano.geometry import cart_to_polar, valid_projections
from cylpano.grid import CylGridSpec, PointCloud, centroids_batch, voxelize
from cylpano import queries
from cylpano.queries import (
    LocationHint,
    Mask2D,
    assemble_queries,
    build_bev_heatmap,
    camera_pixels,
    dbscan,
    fps,
    frustum_points,
    geometric_hints,
    lift_peaks_to_3d,
    nms_peaks,
    texture_hints,
    _keys,
    _within,
)
from cylpano.synth import SceneConfig, generate_scene, ring_camera
from cylpano.tokens import (
    FeatureMap, SpeParams, VoxelFeatures, build_tokens, containing_rows, nearest_occupied_rows, spe_batch,
)

from oracles import (
    clusters_as_sets, fps_step_is_greedy, greedy_nms, pairs_dbscan, reference_dbscan, reference_heatmap,
)

SPEC = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))


@st.composite
def cell_grid_clouds(draw):
    """(points, eps, min_pts) laid out against dbscan's cells of side about eps / (2 * sqrt(3))."""
    kind = draw(st.sampled_from(
        ["cell_multiples", "lattice", "eps_pairs", "far_blobs", "two_apart", "far_offsets", "eps_ties",
         "duplicates", "offset", "tiny_eps"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    min_pts = draw(st.integers(1, 6))
    if kind == "cell_multiples":  # every coordinate on a cell boundary
        eps = draw(st.sampled_from([0.5, 0.8, 1.0, 1.5]))
        pts = rng.integers(0, 10, (n, 3)) * (eps / (2.0 * np.sqrt(3.0)))
    elif kind == "lattice":  # many pairs exactly eps apart
        eps = draw(st.sampled_from([1.0, np.sqrt(2.0), 2.0]))
        pts = rng.integers(0, 5, (n, 3)).astype(np.float64)
    elif kind == "eps_pairs":  # each point has a partner exactly eps away, two or more cells off
        eps = 1.25
        steps = np.array([[1.25, 0, 0], [0, 1.25, 0], [0, 0, 1.25], [0.75, 1.0, 0], [0, 0.75, 1.0], [1.0, 0, 0.75]])
        base = rng.integers(0, 8, (n, 3)) * 0.5
        pts = np.concatenate([base, base + steps[rng.integers(0, len(steps), n)]])
    elif kind == "far_blobs":  # two core blobs 2 to 4 cells apart along x
        eps = 1.0
        k = max(min_pts, 2)
        gap = draw(st.floats(0.7, 1.15))
        blobs = rng.uniform(-0.01, 0.01, (2 * k, 3)) + np.repeat([[0.0, 0.0, 0.0], [gap, 0.0, 0.0]], k, axis=0)
        pts = np.concatenate([blobs, rng.uniform(-2.0, 3.0, (n % 4, 3))])
    elif kind in ("two_apart", "far_offsets"):
        # a point at the origin fixes the cell grid; two core blobs sit in cells
        # two apart along one axis (linked without a distance test), or at
        # offset (2, 1, 0) or (3, 3, 3), which only the far test can join
        eps = draw(st.sampled_from([0.8, 1.0]))
        side = eps / (2.0 * np.sqrt(3.0))
        k = max(min_pts, 2)
        if kind == "two_apart":
            lo, hi = rng.uniform(0.05, 0.95, (2, k, 3)) * side
            hi[:, 0] += 2.0 * side
        elif draw(st.booleans()):  # near the cells' far corners: 0.98 to 1.06 eps apart
            lo = rng.uniform(0.02, 0.08, (k, 3)) * side
            hi = rng.uniform([2.92, 1.92, 0.3], [2.98, 1.98, 0.98], (k, 3)) * side
        else:
            # each axis 2 sides apart, give or take a few 1e-9 sides: within
            # eps or not, while the cells' relative shrink of about 1e-9 keeps
            # each blob in its cell
            lo = side * (1.0 - rng.uniform(1.2e-9, 2.0e-9, (k, 3)))
            hi = side * (3.0 - rng.uniform(-0.5e-9, 2.5e-9, (k, 3)))
        pts = np.concatenate([np.zeros((1, 3)), lo, hi])[:, rng.permutation(3)]
    elif kind == "eps_ties":  # core blobs of duplicates, each pair of blobs exactly eps or just over it apart
        eps = 1.25
        steps = np.array([[1.25, 0, 0], [0, 0.75, 1.0], [1.0, 0, 0.75], [0.75 + 2**-40, 1.0, 0], [0, 1.25 + 2**-40, 0]])
        k = max(min_pts, 1)
        blobs = np.cumsum(steps[rng.integers(0, len(steps), 3)], axis=0) + rng.integers(0, 8, 3) * 0.5
        pts = np.concatenate([np.repeat(blobs, k, axis=0), rng.integers(0, 8, (n % 4, 3)) * 0.5])
    elif kind == "duplicates":
        eps = 0.8
        min_pts = 1
        base = rng.uniform(0, 3, (max(n // 4, 1), 3))
        pts = base[rng.integers(0, len(base), n)]
    elif kind == "offset":  # a cloud 10 km from the origin
        eps = 0.8
        pts = rng.uniform(0, 4, (n, 3)) + 1e4
    else:  # tiny eps over 2 km: ~7e9 cells per axis
        eps = 1e-6
        base = rng.uniform(-1e3, 1e3, (n, 3))
        pts = np.concatenate([base, base + rng.uniform(-1e-6, 1e-6, (n, 3)), base[: n // 2]])
    return pts[rng.permutation(len(pts))], eps, min_pts


@pytest.fixture(scope="module")
def reference_masks():
    """Frustum points of every mask of acceptance test 10's reference scenes 0-3."""
    gen = dict(ground_points=70000, n_objects=(12, 12), points_per_object=(2000, 3000),
               extent=45.0, camera_count=2)
    out = []
    for seed in range(4):
        synth = generate_scene(SceneConfig(rng_seed=seed, **gen))
        cloud, cams = synth.sample.cloud, synth.sample.cams
        pixels = [camera_pixels(cloud, cam) for cam in cams]
        for mask in synth.masks:
            idx = frustum_points(mask, cams[mask.camera_id], pixels[mask.camera_id])
            out.append(cloud.xyz[idx].astype(np.float64))
    return out


@pytest.fixture(scope="module")
def default_masks():
    """Frustum points of every mask of the default `init-config` scene, seeds 0-39."""
    out = []
    for seed in range(40):
        synth = generate_scene(SceneConfig(rng_seed=seed))
        cloud, cams = synth.sample.cloud, synth.sample.cams
        pixels = [camera_pixels(cloud, cam) for cam in cams]
        for mask in synth.masks:
            idx = frustum_points(mask, cams[mask.camera_id], pixels[mask.camera_id])
            out.append(cloud.xyz[idx].astype(np.float64))
    return out


def labeled_cloud(xyz, instance):
    xyz = np.asarray(xyz, dtype=np.float64)
    return PointCloud(xyz, np.zeros(len(xyz)), np.full(len(xyz), 2), instance)


class TestHeatmap:
    def test_no_instances_gives_zero_map(self, tmp_path):
        """Instance ids all 0, or labels left out: in memory and read back from PLC2 alike."""
        xyz = np.array([[5.0, 0.0, 0.0], [7.0, 1.0, 0.0]])
        unlabeled = PointCloud(xyz, np.zeros(2))
        write_point_cloud(tmp_path / "c.plcd", unlabeled)
        for cloud in (labeled_cloud(xyz, [0, 0]), unlabeled, read_point_cloud(tmp_path / "c.plcd")):
            heat = build_bev_heatmap(voxelize(cloud, SPEC), "gt_gaussian", QueryConfig().heatmap_sigma)
            assert heat.shape == (SPEC.r_bins, SPEC.theta_bins)
            assert heat.sum() == 0

    def test_sigma_zero_is_a_delta(self):
        cloud = labeled_cloud(np.array([[5.0, 0.0, 0.0]] * 3), [1, 1, 1])
        heat = build_bev_heatmap(voxelize(cloud, SPEC), "gt_gaussian", sigma=0.0)
        assert heat.sum() == 1.0
        idx, _ = SPEC.bin_points(np.array([[5.0, 0.0, 0.0]]))
        assert heat[idx[0, 0], idx[0, 1]] == 1.0

    def test_two_far_instances_are_local_maxima(self):
        xyz = np.array([[5.0, 0.0, 0.0], [5.1, 0.0, 0.0], [-15.0, 0.0, 0.0], [-15.1, 0.0, 0.0]])
        cloud = labeled_cloud(xyz, [1, 1, 2, 2])
        heat = build_bev_heatmap(voxelize(cloud, SPEC), "gt_gaussian", sigma=1.0)
        from cylpano.geometry import cart_to_polar

        centers = []
        for pts in ([5.05, 0.0, 0.0], [-15.05, 0.0, 0.0]):
            idx, _ = SPEC.bin_points(cart_to_polar(np.asarray(pts).reshape(1, 3)))
            centers.append((int(idx[0, 0]), int(idx[0, 1])))
        assert all(heat[c] == 1.0 for c in centers)
        # both splat centers are strict local maxima of the combined map
        for r, t in centers:
            for dr in (-1, 0, 1):
                for dt in (-1, 0, 1):
                    if (dr, dt) == (0, 0):
                        continue
                    rr = r + dr
                    if 0 <= rr < SPEC.r_bins:
                        assert heat[rr, (t + dt) % SPEC.theta_bins] <= heat[r, t]

    def test_density_mode_normalized(self):
        rng = np.random.default_rng(0)
        xyz = np.column_stack([rng.uniform(-20, 20, (500, 2)), rng.uniform(-1, 1, 500)])
        heat = build_bev_heatmap(voxelize(PointCloud(xyz, np.zeros(500)), SPEC), "density", QueryConfig().heatmap_sigma)
        assert heat.max() == 1.0 and heat.min() >= 0.0

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_density_equals_rebinned_points(self, seed):
        rng = np.random.default_rng(seed)
        # some points fall outside the radial and height ranges
        xyz = np.column_stack([rng.uniform(-30, 30, (400, 2)), rng.uniform(-3, 3, 400)])
        grid = voxelize(PointCloud(xyz, np.zeros(400)), SPEC)
        idx, _ = SPEC.bin_points(cart_to_polar(grid.cloud.xyz[grid.order]))
        cols = idx[:, 0].astype(np.int64) * SPEC.theta_bins + idx[:, 1]
        counts = np.bincount(cols, minlength=SPEC.r_bins * SPEC.theta_bins)
        expected = (counts / counts.max()).reshape(SPEC.r_bins, SPEC.theta_bins)
        assert np.array_equal(build_bev_heatmap(grid, "density", QueryConfig().heatmap_sigma), expected)

    def test_density_of_empty_cloud_is_zero(self):
        heat = build_bev_heatmap(voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), SPEC), "density",
                                 QueryConfig().heatmap_sigma)
        assert heat.shape == (SPEC.r_bins, SPEC.theta_bins) and not heat.any()

    def test_wide_splat_wraps_cleanly_on_small_grid(self):
        spec = CylGridSpec(6, 5, 2, (0.0, 12.0), (-1.0, 1.0))
        cloud = labeled_cloud(np.array([[5.0, 0.0, 0.0]] * 2), [1, 1])
        heat = build_bev_heatmap(voxelize(cloud, spec), "gt_gaussian", sigma=10.0)
        assert heat.max() == 1.0 and heat.min() > 0.0
        idx, _ = spec.bin_points(np.array([[5.0, 0.0, 0.0]]))
        assert heat[idx[0, 0], idx[0, 1]] == 1.0
        # symmetric columns around the center share one wrapped distance
        assert heat[idx[0, 0], 1] == pytest.approx(heat[idx[0, 0], 4])

    @pytest.mark.parametrize("theta_bins", [3, 5, 36])
    @pytest.mark.parametrize("sigma", [0.0, 0.5, 2.0, 7.0])
    def test_equals_per_cell_oracle(self, sigma, theta_bins):
        spec = CylGridSpec(10, theta_bins, 2, (0.0, 20.0), (-2.0, 2.0))
        rng = np.random.default_rng(theta_bins)
        # instance centres near both radial ends, at theta near 0 and 2*pi, anywhere,
        # and one beyond r_max whose splat must not appear
        rho = np.array([0.5, 19.5, 7.0, 12.0, 3.3, 25.0])
        theta = np.array([0.01, 6.27, 6.27, 0.01, rng.uniform(0, 2 * np.pi), 1.0])
        centers = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), np.zeros(6)])
        xyz = np.repeat(centers, 3, axis=0) + rng.uniform(-0.01, 0.01, (18, 3))
        cloud = labeled_cloud(xyz, np.repeat(np.arange(1, 7), 3))
        in_range = []
        for k in range(1, 7):
            center = cloud.xyz[cloud.instance == k].astype(np.float64).mean(axis=0)
            idx, inside = spec.bin_points(cart_to_polar(center[None]))
            if inside[0]:
                in_range.append((int(idx[0, 0]), int(idx[0, 1])))
        assert len(in_range) == 5
        heat = build_bev_heatmap(voxelize(cloud, spec), "gt_gaussian", sigma)
        assert np.array_equal(heat, reference_heatmap(in_range, (spec.r_bins, theta_bins), sigma))

    @settings(max_examples=150, deadline=None)
    @given(
        theta_bins=st.sampled_from([1, 2, 3, 7, 36]),
        r_bins=st.integers(1, 8),
        sigma=st.sampled_from([0.0, 0.5, 1.3, 4.0]),
        ids=st.lists(st.integers(1, 2**16 - 1), max_size=6, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_per_cell_oracle_for_sparse_ids_and_outside_centres(self, theta_bins, r_bins, sigma, ids, seed):
        spec = CylGridSpec(r_bins, theta_bins, 2, (1.0, 9.0), (-1.0, 1.0))
        rng = np.random.default_rng(seed)
        # instances with ids far apart and out of order, some centred beyond the
        # radial or height range, interleaved with each other and with background points
        rho, phi = rng.uniform(0.0, 12.0, len(ids)), rng.uniform(0, 2 * np.pi, len(ids))
        centers = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-1.5, 1.5, len(ids))])
        inst = np.concatenate([np.repeat(np.array(ids, dtype=np.int64), 3), np.zeros(4, dtype=np.int64)])
        xyz = np.concatenate([np.repeat(centers, 3, axis=0), rng.uniform(-9, 9, (4, 3))])
        xyz += rng.uniform(-0.3, 0.3, xyz.shape)
        perm = rng.permutation(len(inst))
        cloud = labeled_cloud(xyz[perm], inst[perm])
        in_range = []
        for k in ids:
            center = cloud.xyz[cloud.instance == k].astype(np.float64).mean(axis=0)
            idx, inside = spec.bin_points(cart_to_polar(center[None]))
            if inside[0]:
                in_range.append((int(idx[0, 0]), int(idx[0, 1])))
        heat = build_bev_heatmap(voxelize(cloud, spec), "gt_gaussian", sigma)
        assert np.array_equal(heat, reference_heatmap(in_range, (r_bins, theta_bins), sigma))

    def test_values_bounded(self):
        rng = np.random.default_rng(1)
        xyz = np.column_stack([rng.uniform(-20, 20, (200, 2)), rng.uniform(-1, 1, 200)])
        inst = rng.integers(0, 5, 200)
        heat = build_bev_heatmap(voxelize(labeled_cloud(xyz, inst), SPEC), "gt_gaussian", 2.0)
        assert heat.min() >= 0.0 and heat.max() <= 1.0


class TestNms:
    def test_single_cell_kept(self):
        heat = np.zeros((6, 6))
        heat[2, 3] = 0.9
        assert nms_peaks(heat, 0.5, 2.0, 10) == [((2, 3), 0.9)]

    def test_nearby_weaker_cell_suppressed(self):
        heat = np.zeros((6, 6))
        heat[2, 3] = 0.9
        heat[2, 4] = 0.8
        kept = nms_peaks(heat, 0.5, 2.0, 10)
        assert kept == [((2, 3), 0.9)]

    def test_all_below_threshold(self):
        assert nms_peaks(np.full((4, 4), 0.05), 0.1, 1.0, 10) == []

    def test_pairwise_separation_with_wraparound(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            heat = rng.random((10, 12))
            kept = nms_peaks(heat, 0.2, 2.5, 20)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    (ri, ti), (rj, tj) = kept[i][0], kept[j][0]
                    dt = abs(ti - tj)
                    assert np.hypot(ri - rj, min(dt, 12 - dt)) > 2.5

    def test_oracle_equality_50_random_heatmaps(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            heat = rng.random((24, 18))
            thresh = float(rng.uniform(0.1, 0.6))
            radius = float(rng.uniform(0.5, 5.0))
            max_peaks = int(rng.integers(1, 20))
            assert nms_peaks(heat, thresh, radius, max_peaks) == greedy_nms(
                heat, thresh, radius, max_peaks
            )

    @settings(max_examples=200, deadline=None)
    @given(
        theta_bins=st.sampled_from([1, 2, 3, 360]),
        r_bins=st.integers(1, 5),
        radius_kind=st.sampled_from(["zero", "fraction", "half_theta", "r_bins", "inf"]),
        offset=st.floats(0.0, 3.0),
        max_peaks=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_oracle_equality_on_edge_grids(self, theta_bins, r_bins, radius_kind, offset, max_peaks, seed):
        rng = np.random.default_rng(seed)
        # few levels, so confidence ties are common
        heat = rng.integers(0, 5, (r_bins, theta_bins)) / 4.0
        radius = {"zero": 0.0, "fraction": np.floor(offset) + 0.5, "half_theta": theta_bins / 2 + offset,
                  "r_bins": r_bins + offset, "inf": np.inf}[radius_kind]
        assert nms_peaks(heat, 0.25, radius, max_peaks) == greedy_nms(heat, 0.25, radius, max_peaks)

    def test_nan_radius_is_rejected(self):
        heat = np.array([[0.9, 0.0, 0.8, 0.7]])
        with pytest.raises(ValueError, match="NaN"):
            nms_peaks(heat, 0.1, float("nan"), 4)

    @pytest.mark.parametrize("max_peaks", [0, -1])
    def test_empty_budget_keeps_nothing(self, max_peaks, monkeypatch):
        # the candidates are never ranked
        monkeypatch.setattr(np, "lexsort", None)
        assert nms_peaks(np.full((3, 4), 0.9), 0.1, 1.0, max_peaks) == []


class TestLift:
    def test_single_occupied_voxel(self):
        cloud = PointCloud(np.array([[5.0, 0.0, 0.0]]), np.zeros(1))
        grid = voxelize(cloud, SPEC)
        r, t, _ = grid.indices3[0]
        pos, lifted = lift_peaks_to_3d([(r, t)], grid)
        assert lifted.tolist() == [True]
        assert np.allclose(pos, centroids_batch(grid.indices3, SPEC))

    def test_mean_over_height_column(self):
        cloud = PointCloud(np.array([[5.0, 0.0, -1.5], [5.0, 0.0, 1.5]]), np.zeros(2))
        grid = voxelize(cloud, SPEC)
        r, t, _ = grid.indices3[0]
        pos, lifted = lift_peaks_to_3d([(r, t)], grid)
        c0, c1 = centroids_batch(grid.indices3, SPEC)
        assert lifted.tolist() == [True]
        assert np.allclose(pos[0], (c0 + c1) / 2)

    def test_empty_column(self):
        grid = voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), SPEC)
        pos, lifted = lift_peaks_to_3d([(0, 0)], grid)
        assert lifted.tolist() == [False]
        assert np.isnan(pos).all()

    def test_geometric_hints_equal_per_peak_lifts_with_one_centroid_call(self, monkeypatch):
        import cylpano.queries

        calls = []
        orig = cylpano.queries.centroids_batch
        monkeypatch.setattr(cylpano.queries, "centroids_batch", lambda idx3, spec: calls.append(1) or orig(idx3, spec))
        rng = np.random.default_rng(19)
        xyz = np.column_stack([rng.uniform(-20, 20, (150, 2)), rng.uniform(-2, 2, 150)])
        grid = voxelize(PointCloud(xyz, np.zeros(150)), SPEC)
        heat = rng.random((SPEC.r_bins, SPEC.theta_bins))
        peaks = nms_peaks(heat, 0.2, 1.0, 64)
        lifted_pos, lifted = lift_peaks_to_3d([rt for rt, _ in peaks], grid)
        expected = []
        for k, ((r, t), conf) in enumerate(peaks):
            # the column's rows found by brute force, averaged as one array
            rows = np.flatnonzero(grid.voxel_ids // SPEC.z_bins == r * SPEC.theta_bins + t)
            assert lifted[k] == (len(rows) > 0)
            if len(rows) == 0:
                assert np.isnan(lifted_pos[k]).all()
                continue
            pos = orig(SPEC.unflatten(grid.voxel_ids[rows]), SPEC).mean(axis=0)
            assert (lifted_pos[k] == pos).all()
            expected.append(pos.tolist() + [conf])
        assert 0 < len(expected) < len(peaks)
        calls.clear()
        hints = geometric_hints(grid, heat, 0.2, 1.0, 64)
        assert calls == [1]
        assert [h.position.tolist() + [h.confidence] for h in hints] == expected
        assert all(h.origin == "geometric" for h in hints)

        calls.clear()
        empty = voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), SPEC)
        assert geometric_hints(empty, heat, 0.2, 1.0, 64) == []
        assert calls == []

    def test_peak_outside_grid(self):
        from cylpano.errors import IndexOutOfRangeError

        grid = voxelize(PointCloud(np.array([[5.0, 0.0, 0.0]]), np.zeros(1)), SPEC)
        with pytest.raises(IndexOutOfRangeError):
            lift_peaks_to_3d([(SPEC.r_bins, 0)], grid)


class TestFrustum:
    def test_empty_bitmap(self):
        cam = ring_camera(0.0, 16, 16, 8.0, 0.0)
        cloud = PointCloud(np.array([[5.0, 0.0, 0.0]]), np.zeros(1))
        assert len(frustum_points(Mask2D(0, np.zeros((16, 16), bool)), cam, camera_pixels(cloud, cam))) == 0

    def test_full_bitmap_keeps_all_visible(self):
        from cylpano.geometry import valid_projections

        rng = np.random.default_rng(4)
        cam = ring_camera(0.0, 16, 16, 8.0, 0.0)
        xyz = np.column_stack([rng.uniform(-10, 10, (200, 2)), rng.uniform(-2, 2, 200)])
        cloud = PointCloud(xyz, np.zeros(200))
        got = frustum_points(Mask2D(0, np.ones((16, 16), bool)), cam, camera_pixels(cloud, cam))
        _, _, valid = valid_projections(cloud.xyz, cam)
        assert np.array_equal(got, np.flatnonzero(valid))

    def test_oracle_equality_random_scenes(self):
        from cylpano.geometry import project_points

        rng = np.random.default_rng(5)
        cam = ring_camera(0.3, 24, 18, 10.0, 0.2)
        for _ in range(10):
            xyz = np.column_stack([rng.uniform(-10, 10, (150, 2)), rng.uniform(-2, 2, 150)])
            cloud = PointCloud(xyz, np.zeros(150))
            bitmap = rng.random((18, 24)) < 0.3
            got = set(frustum_points(Mask2D(0, bitmap), cam, camera_pixels(cloud, cam)).tolist())
            uv, depth = project_points(cloud.xyz, cam)
            want = set()
            for i in range(150):
                u, v = uv[i]
                if depth[i] > 0 and 0 <= u < 24 and 0 <= v < 18 and bitmap[int(np.floor(v)), int(np.floor(u))]:
                    want.add(i)
            assert got == want


class TestDbscan:
    def test_two_separated_blobs(self):
        rng = np.random.default_rng(6)
        eps = 0.5
        a = rng.normal(0, 0.1, (20, 3))
        b = rng.normal(0, 0.1, (20, 3)) + [10 * eps, 0, 0]
        labels = dbscan(np.vstack([a, b]), eps, 3)
        assert set(labels[:20]) == {0}
        assert set(labels[20:]) == {1}

    def test_min_pts_above_n_is_all_noise(self):
        pts = np.random.default_rng(7).normal(0, 1, (5, 3))
        assert (dbscan(pts, 10.0, 6) == -1).all()

    def test_single_point_min_pts_one(self):
        assert dbscan(np.zeros((1, 3)), 1.0, 1).tolist() == [0]

    def test_oracle_equality_up_to_relabeling(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            n = int(rng.integers(2, 50))
            pts = rng.uniform(0, 4, (n, 3))
            eps = float(rng.uniform(0.3, 1.5))
            min_pts = int(rng.integers(1, 6))
            assert clusters_as_sets(dbscan(pts, eps, min_pts)) == clusters_as_sets(
                reference_dbscan(pts, eps, min_pts)
            )

    @pytest.mark.parametrize("seed, kind", enumerate(["uniform", "lattice", "duplicates", "min_pts_one"]))
    def test_labels_equal_oracle_exactly(self, seed, kind):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            n = int(rng.integers(1, 60))
            eps = float(rng.uniform(0.3, 1.5))
            min_pts = int(rng.integers(1, 7))
            if kind == "uniform":
                pts = rng.uniform(0, 4, (n, 3))
            elif kind == "lattice":  # many pairs exactly eps apart
                pts = rng.integers(0, 4, (n, 3)).astype(np.float64)
                eps = float(rng.choice([1.0, np.sqrt(2.0), 2.0]))
            elif kind == "duplicates":
                base = rng.uniform(0, 4, (max(n // 4, 1), 3))
                pts = base[rng.integers(0, len(base), n)]
            else:
                pts = rng.uniform(0, 4, (n, 3))
                min_pts = 1
            got = dbscan(pts, eps, min_pts)
            assert got.dtype == np.int64
            assert got.tolist() == reference_dbscan(pts, eps, min_pts).tolist()

    @settings(max_examples=400, deadline=None)
    @given(cloud=cell_grid_clouds())
    def test_labels_equal_oracle_on_cell_grid_layouts(self, cloud):
        pts, eps, min_pts = cloud
        # the oracle's np.linalg.norm and the k-d tree's distance can round to
        # opposite sides of eps for a pair within an ulp of it; such inputs have
        # no single right answer, so only inputs where both agree are compared
        near = np.linalg.norm(pts[:, None] - pts[None], axis=2) <= eps
        assume(set(zip(*np.nonzero(np.triu(near, 1)))) == cKDTree(pts).query_pairs(eps))
        assert dbscan(pts, eps, min_pts).tolist() == reference_dbscan(pts, eps, min_pts).tolist()

    def test_far_rule_is_the_kd_tree_rule(self):
        # partners eps * (1 + k ulp) away in random directions, k in -4..4, from
        # points 3 eps apart, so the partners are the only pairs the tree can find
        rng = np.random.default_rng(18)
        grid = np.stack(np.meshgrid(*[np.arange(16.0)] * 3), axis=-1).reshape(-1, 3)
        norm_misses = 0
        for eps in (0.8, 1.0, 1.25, 0.3, 1e-3, float(rng.uniform(0.1, 2.0))):
            for origin in (0.0, -1e4):
                p = origin + 3.0 * eps * grid
                u = rng.normal(size=p.shape)
                dist = eps * (1.0 + rng.integers(-4, 5, len(p)) * np.finfo(np.float64).eps)
                q = p + u / np.linalg.norm(u, axis=1, keepdims=True) * dist[:, None]
                found = cKDTree(np.concatenate([p, q])).query_pairs(eps, output_type="ndarray")
                assert (found[:, 1] == found[:, 0] + len(p)).all()
                tree = np.zeros(len(p), dtype=bool)
                tree[found[:, 0]] = True
                d = p - q  # the rule on rows of p and q
                assert np.array_equal(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2] <= eps * eps, tree)
                # the column form `dbscan` calls, on the pairs of one cloud, in either order
                xyz, k = np.concatenate([p, q]).T.copy(), np.arange(len(p))
                assert np.array_equal(_within(xyz, k, k + len(p), eps), tree)
                assert np.array_equal(_within(xyz, k + len(p), k, eps), tree)
                norm_misses += np.count_nonzero((np.linalg.norm(p - q, axis=1) <= eps) != tree)
        # the layout reaches pairs on which the rounding of the rule decides
        assert norm_misses > 0

    def test_pairs_oracle_equals_reference_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(60):
            n = int(rng.integers(1, 60))
            if rng.random() < 0.5:
                pts, eps = rng.uniform(0, 4, (n, 3)), float(rng.uniform(0.3, 1.5))
            else:  # many pairs exactly eps apart
                pts, eps = rng.integers(0, 4, (n, 3)).astype(np.float64), float(rng.choice([1.0, 2.0]))
            min_pts = int(rng.integers(1, 7))
            assert pairs_dbscan(pts, eps, min_pts).tolist() == reference_dbscan(pts, eps, min_pts).tolist()

    def test_labels_equal_pairs_oracle_on_reference_masks(self, reference_masks):
        # up to a few hundred components reach the far test here, where the
        # exact-label tests above stop at 60 points
        for pts in reference_masks:
            assert np.array_equal(dbscan(pts, 0.8, 5), pairs_dbscan(pts, 0.8, 5))

    def test_labels_equal_pairs_oracle_on_default_config_masks(self, default_masks):
        assert len(default_masks) > 100
        for pts in default_masks:
            assert np.array_equal(dbscan(pts, 0.8, 5), pairs_dbscan(pts, 0.8, 5))

    @pytest.mark.parametrize("gap", [4, 5, 6])
    def test_labels_equal_pairs_oracle_across_axis_gaps(self, gap):
        # occupied cell coordinates exactly `gap` cells apart on every axis, at
        # the bound where the keys cut a gap of more than 4 cells to 5; points
        # sit near the cells' faces, so across a gap of 4 some pairs are within
        # eps and across 5 or 6 none is
        eps = 1.0
        side = eps / (2.0 * np.sqrt(3.0))
        rng = np.random.default_rng(40 + gap)
        across = 0
        for _ in range(30):
            n = int(rng.integers(8, 60))
            frac = np.where(rng.random((n, 3)) < 0.5, rng.uniform(0.02, 0.2, (n, 3)), rng.uniform(0.8, 0.98, (n, 3)))
            pts = np.concatenate([np.zeros((1, 3)), (rng.integers(0, 3, (n, 3)) * gap + frac) * side])
            min_pts = int(rng.integers(1, 5))
            assert np.array_equal(dbscan(pts, eps, min_pts), pairs_dbscan(pts, eps, min_pts))
            i, j = cKDTree(pts).query_pairs(eps, output_type="ndarray").T
            across += np.count_nonzero((np.abs(np.floor(pts[i] / side) - np.floor(pts[j] / side)) == gap).any(axis=1))
        assert (across > 0) == (gap == 4)

    @pytest.mark.parametrize("eps, lo, hi", [(1e-6, 0.0, 1e4), (0.8, 1e4, 1e4 + 4.0), (1e-6, 1e4, 2e4)])
    def test_labels_equal_pairs_oracle_at_extreme_scales(self, eps, lo, hi):
        # tiny eps over a 10 km extent (about 3.5e10 cells per axis) and a cloud
        # 10 km from the origin; partners within a few eps make clusters at every scale
        rng = np.random.default_rng(41)
        for _ in range(20):
            base = rng.uniform(lo, hi, (int(rng.integers(1, 30)), 3))
            pts = np.concatenate([base, base + rng.uniform(-eps, eps, base.shape), base[::2] + eps * 0.5])
            min_pts = int(rng.integers(1, 4))
            assert np.array_equal(dbscan(pts, eps, min_pts), pairs_dbscan(pts, eps, min_pts))

    def test_labels_equal_pairs_oracle_on_duplicate_points(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            base = rng.uniform(0, 3, (int(rng.integers(1, 6)), 3))
            pts = base[rng.integers(0, len(base), int(rng.integers(1, 60)))]
            eps, min_pts = float(rng.choice([0.2, 0.8, 1.5])), int(rng.integers(1, 12))
            assert np.array_equal(dbscan(pts, eps, min_pts), pairs_dbscan(pts, eps, min_pts))
        assert dbscan(np.ones((7, 3)), 0.5, 7).tolist() == [0] * 7  # one cell holds every point
        assert dbscan(np.ones((7, 3)), 0.5, 8).tolist() == [-1] * 7

    def test_keys_past_int64_are_exact(self):
        # two clusters of rows 2**21 apart on every axis: one (x, y, z) key
        # would pass int64, so the keys rank (x, y) first
        rng = np.random.default_rng(43)
        rows = np.concatenate([rng.integers(0, 6, (40, 3)), 2**21 + rng.integers(0, 6, (40, 3))])
        assert math.prod((rows.max(axis=0) + 5).tolist()) >= 2**63
        steps = np.array(list(itertools.product(range(-4, 5), repeat=3)))
        keys, reach = _keys(rows, steps)
        order = np.lexsort(rows.T[::-1])
        assert (np.diff(keys[order]) >= 0).all()
        key_of = {}
        for row, key in zip(map(tuple, rows.tolist()), keys.tolist()):
            assert key_of.setdefault(row, key) == key  # equal rows, equal keys
        assert len(set(key_of.values())) == len(key_of)  # distinct rows, distinct keys
        rows_of = {key: row for row, key in key_of.items()}
        for r, row in enumerate(rows):
            for s, step in enumerate(steps):
                assert rows_of.get(int(reach[r, s]), tuple((row + step).tolist())) == tuple((row + step).tolist())
                assert (int(reach[r, s]) in rows_of) == (tuple((row + step).tolist()) in key_of)

    def test_labels_equal_pairs_oracle_with_ranked_keys(self, monkeypatch, reference_masks):
        # every key takes the ranked (x, y) path that clouds of more than about
        # 420k points need; its labels equal the oracle's as the one-key path's do
        monkeypatch.setattr(queries, "_KEY_LIMIT", 0)
        rng = np.random.default_rng(44)
        for pts in reference_masks[::3]:
            assert np.array_equal(dbscan(pts, 0.8, 5), pairs_dbscan(pts, 0.8, 5))
        for _ in range(40):
            pts, eps = rng.uniform(0, 4, (int(rng.integers(1, 60)), 3)), float(rng.uniform(0.3, 1.5))
            min_pts = int(rng.integers(1, 7))
            assert np.array_equal(dbscan(pts, eps, min_pts), pairs_dbscan(pts, eps, min_pts))

    def test_empty_input(self):
        got = dbscan(np.zeros((0, 3)), 1.0, 3)
        assert got.dtype == np.int64 and got.shape == (0,)

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 3)), 0.0, 3)
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 3)), 1.0, 0)
        with pytest.raises(ValueError, match="eps"):
            dbscan(np.zeros((2, 3)), np.nan, 3)

    def test_permutation_invariance_on_blobs(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            blobs = [
                rng.normal(0, 0.2, (15, 3)) + offset
                for offset in ([0, 0, 0], [8, 0, 0], [0, 8, 0])
            ]
            pts = np.vstack(blobs)
            perm = rng.permutation(len(pts))
            base, base_noise = clusters_as_sets(dbscan(pts, 0.8, 3))
            shuf0, shuf_noise = clusters_as_sets(dbscan(pts[perm], 0.8, 3))
            # map shuffled indices back through the permutation
            remapped = frozenset(frozenset(int(perm[i]) for i in g) for g in shuf0)
            assert remapped == base
            assert frozenset(int(perm[i]) for i in shuf_noise) == base_noise


class TestFps:
    def test_k_at_least_n_returns_all(self):
        pts = np.random.default_rng(10).normal(0, 1, (4, 3))
        assert fps(pts, 9, np.zeros(4)).tolist() == [0, 1, 2, 3]

    def test_collinear_hand_case(self):
        pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
        assert fps(pts, 2, np.zeros(3)).tolist() == [0, 2]

    def test_greedy_argmax_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(-5, 5, (n, 3))
            k = int(rng.integers(1, min(4, n + 1)))
            conf = rng.random(n)
            chosen = fps(pts, k, confidences=conf)
            if k >= n:
                continue
            assert fps_step_is_greedy(pts, chosen, conf)

    def test_min_pairwise_distance_monotone_in_k(self):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 10, (30, 3))

        def min_pairwise(sel):
            d = [
                np.linalg.norm(pts[a] - pts[b])
                for i, a in enumerate(sel)
                for b in sel[i + 1:]
            ]
            return min(d)

        prev = np.inf
        for k in range(2, 12):
            sel = fps(pts, k, np.zeros(len(pts))).tolist()
            cur = min_pairwise(sel)
            assert cur <= prev + 1e-12
            prev = cur


class TestAssemble:
    def _grid_tokens(self, rng, dim=8):
        xyz = np.column_stack([rng.uniform(-20, 20, (400, 2)), rng.uniform(-2, 2, 400)])
        cloud = PointCloud(xyz, np.zeros(400))
        grid = voxelize(cloud, SPEC)
        params = SpeParams.create(SPEC, dim=dim, seed=0)
        feats = VoxelFeatures.for_grid(grid, rng.normal(size=(grid.num_voxels, dim)))
        tokens = build_tokens(grid, feats, [], [], params)
        return grid, tokens, params

    def test_no_hints_gives_empty_prior_full_no_prior(self):
        rng = np.random.default_rng(13)
        grid, tokens, params = self._grid_tokens(rng)
        qs = assemble_queries([], [], grid, tokens, params, l_pr=128, l_lt=64, num_classes=5)
        assert qs.num_prior == 0
        assert qs.no_prior.shape == (64, 8)
        assert qs.semantic.shape == (5, 8)

    def test_overfull_hints_reduced_by_fps(self):
        rng = np.random.default_rng(14)
        grid, tokens, params = self._grid_tokens(rng)
        hints = [
            LocationHint(np.append(rng.uniform(-20, 20, 2), rng.uniform(-2, 2)), rng.random(), "geometric")
            for _ in range(300)
        ]
        qs = assemble_queries(hints, [], grid, tokens, params, l_pr=128, l_lt=8, num_classes=3)
        assert qs.num_prior == 128
        pos = np.stack([h.position for h in hints])
        conf = np.array([h.confidence for h in hints])
        sel = fps(pos, 128, confidences=conf)
        want = {tuple(np.round(pos[i], 9)) for i in sel}
        got = {tuple(np.round(h.position, 9)) for h in qs.hints}
        assert got == want

    def test_hint_at_occupied_voxel_copies_its_token(self):
        rng = np.random.default_rng(15)
        grid, tokens, params = self._grid_tokens(rng)
        row = 3
        center = centroids_batch(grid.indices3[row:row + 1], SPEC)[0]
        qs = assemble_queries(
            [LocationHint(center, 1.0, "geometric")], [], grid, tokens, params, l_pr=4, l_lt=2, num_classes=2
        )
        assert np.allclose(qs.prior_content[0], tokens.content[row].astype(np.float32))

    @staticmethod
    def _count_centroid_calls(monkeypatch):
        import cylpano.queries
        import cylpano.tokens

        calls = []
        orig = cylpano.tokens.centroids_batch

        def counting(idx3, spec):
            calls.append(len(idx3))
            return orig(idx3, spec)

        monkeypatch.setattr(cylpano.queries, "centroids_batch", counting)
        monkeypatch.setattr(cylpano.tokens, "centroids_batch", counting)
        return calls

    def test_centroids_computed_at_most_once(self, monkeypatch):
        rng = np.random.default_rng(17)
        grid, tokens, params = self._grid_tokens(rng)
        # centroids of four empty cells, and one hint outside the grid
        empty = np.setdiff1d(np.arange(SPEC.num_cells), grid.voxel_ids)[::7][:4]
        misses = [LocationHint(c, 1.0, "texture") for c in centroids_batch(SPEC.unflatten(empty), SPEC)]
        misses.append(LocationHint([0.0, 0.0, 50.0], 1.0, "geometric"))
        hits = [LocationHint(grid.cloud.xyz[i], 1.0, "geometric") for i in grid.order[:5]]
        assert (containing_rows(grid, [h.position for h in misses]) == -1).all()
        assert (containing_rows(grid, [h.position for h in hits]) >= 0).all()
        calls = self._count_centroid_calls(monkeypatch)
        qs = assemble_queries(hits, misses, grid, tokens, params, l_pr=16, l_lt=2, num_classes=2)
        # the embedding centres only the prior voxels
        assert calls[-1] == qs.num_prior
        rows = nearest_occupied_rows(grid, [h.position for h in qs.hints])
        assert np.array_equal(qs.prior_content, tokens.content[rows].astype(np.float32))

        # misses one bin from an occupied voxel search windows of columns, never the whole grid
        gap = np.abs(grid.indices3[None] - SPEC.unflatten(empty)[:, None]).max(axis=2).min(axis=1)
        assert gap.tolist() == [1] * 4
        calls.clear()
        qs = assemble_queries(hits, misses[:4], grid, tokens, params, l_pr=16, l_lt=2, num_classes=2)
        assert len(calls) > 1 and max(calls) < grid.num_voxels and calls[-1] == qs.num_prior

        calls.clear()
        qs = assemble_queries(hits, [], grid, tokens, params, l_pr=16, l_lt=2, num_classes=2)
        assert calls == [qs.num_prior]

    def test_prior_spe_is_the_token_embedding(self):
        rng = np.random.default_rng(18)
        grid, tokens, params = self._grid_tokens(rng)
        hits = [LocationHint(grid.cloud.xyz[i], 1.0, "geometric") for i in grid.order[::9]]
        misses = [LocationHint(np.append(rng.uniform(-30, 30, 2), rng.uniform(-3, 3)), 0.5, "texture")
                  for _ in range(20)]
        for l_pr in (64, 16, 1):
            qs = assemble_queries(hits, misses, grid, tokens, params, l_pr=l_pr, l_lt=2, num_classes=2)
            rows = nearest_occupied_rows(grid, [h.position for h in qs.hints])
            assert qs.prior_spe.shape == (qs.num_prior, params.dim) and qs.prior_spe.dtype == np.float32
            assert np.array_equal(qs.prior_spe, tokens.spe[rows].astype(np.float32))

    def test_placeholders_deterministic(self):
        rng = np.random.default_rng(16)
        grid, tokens, params = self._grid_tokens(rng)
        a = assemble_queries([], [], grid, tokens, params, l_pr=4, l_lt=16, num_classes=4)
        b = assemble_queries([], [], grid, tokens, params, l_pr=4, l_lt=16, num_classes=4)
        assert np.array_equal(a.no_prior, b.no_prior)
        assert np.array_equal(a.semantic, b.semantic)


class TestFrustumRecall:
    def test_fully_masked_instances_are_fully_recovered(self):
        # On synthetic scenes the rendered mask covers exactly an instance's
        # visible projection; when every projected cell of the instance lies
        # inside the mask, the frustum must recover all its visible points.
        from cylpano.geometry import valid_projections
        from cylpano.synth import SceneConfig, generate_scene

        synth = generate_scene(
            SceneConfig(rng_seed=21, ground_points=500, points_per_object=(80, 150),
                        image_size=(96, 72), focal=60.0, extent=12.0)
        )
        cloud = synth.sample.cloud
        checked = 0
        for mask in synth.masks:
            cam = synth.sample.cams[mask.camera_id]
            inst_id = int(np.unique(synth.instance_maps[mask.camera_id][mask.bitmap])[0])
            members = np.flatnonzero(cloud.instance == inst_id)
            uv, _, valid = valid_projections(cloud.xyz[members], cam)
            visible = members[valid]
            cells = np.floor(uv[valid]).astype(int)
            if len(visible) == 0 or not mask.bitmap[cells[:, 1], cells[:, 0]].all():
                continue  # occluded somewhere; "fully inside" premise fails
            got = set(frustum_points(mask, cam, camera_pixels(cloud, cam)).tolist())
            assert set(visible.tolist()) <= got
            checked += 1
        assert checked > 0


class TestTextureHints:
    def test_cluster_centroids_become_hints(self):
        rng = np.random.default_rng(17)
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        blob_a = rng.normal(0, 0.05, (30, 3)) + [5.0, 0.3, 0.0]
        blob_b = rng.normal(0, 0.05, (30, 3)) + [9.0, -0.3, 0.0]
        cloud = PointCloud(np.vstack([blob_a, blob_b]), np.zeros(60))
        masks = [Mask2D(0, np.zeros((32, 32), bool)), Mask2D(0, np.ones((32, 32), bool))]  # the first sees no point
        hints = texture_hints(masks, cloud, [cam], eps=0.5, min_pts=3)
        assert len(hints) == 2
        got = sorted(float(h.position[0]) for h in hints)
        assert got[0] == pytest.approx(5.0, abs=0.1)
        assert got[1] == pytest.approx(9.0, abs=0.1)
        assert all(h.origin == "texture" for h in hints)
        assert sum(h.confidence for h in hints) == pytest.approx(1.0)

    def test_several_masks_per_camera_equal_per_mask_frustums(self, monkeypatch):
        import cylpano.queries

        synth = generate_scene(SceneConfig(rng_seed=3, n_objects=(6, 6), image_size=(96, 72), focal=60.0))
        cloud, cams = synth.sample.cloud, synth.sample.cams
        rng = np.random.default_rng(23)
        masks = list(synth.masks) + [Mask2D(c, rng.random((72, 96)) < 0.3) for c in (1, 0, 1)]
        per_cam = np.bincount([m.camera_id for m in masks], minlength=2)
        assert len(cams) == 2 and (per_cam >= 2).all()
        expected = []
        for mask in masks:
            cam = cams[mask.camera_id]
            idx = frustum_points(mask, cam, camera_pixels(cloud, cam))
            if len(idx) == 0:
                continue
            pts = cloud.xyz[idx].astype(np.float64)
            labels = dbscan(pts, 0.8, 5)
            for lab in range(labels.max() + 1):
                members = pts[labels == lab]
                expected.append(members.mean(axis=0).tolist() + [len(members) / len(pts)])
        assert len(expected) > len(masks)

        projected = []
        orig = cylpano.queries.valid_projections
        monkeypatch.setattr(cylpano.queries, "valid_projections",
                            lambda xyz, cam: projected.append(1) or orig(xyz, cam))
        hints = texture_hints(masks, cloud, cams, eps=0.8, min_pts=5)
        assert [h.position.tolist() + [h.confidence] for h in hints] == expected
        assert len(projected) == 2  # once per camera, not once per mask
        projected.clear()
        texture_hints([m for m in masks if m.camera_id == 1], cloud, cams, eps=0.8, min_pts=5)
        assert len(projected) == 1

        with pytest.raises(ValueError):
            texture_hints(masks + [Mask2D(0, np.ones((72, 95), bool))], cloud, cams, eps=0.8, min_pts=5)


# an even theta bin count, so a half turn is a whole number of bins
HALF_TURN_SPEC = CylGridSpec(100, 72, 16, (0.0, 25.0), (-3.0, 3.0))


def fused_scene(cloud, cams):
    """The grid, the fused tokens and the gt_gaussian heatmap of a cloud on `HALF_TURN_SPEC`."""
    grid = voxelize(cloud, HALF_TURN_SPEC)
    dim = 16
    rng = np.random.default_rng(0)
    fmaps = [FeatureMap(rng.standard_normal((c.height // 8, c.width // 8, dim)).astype(np.float32), c.width, c.height)
             for c in cams]
    tokens = build_tokens(grid, VoxelFeatures.stats_placeholder(grid, dim, 0), fmaps, cams,
                          SpeParams.create(HALF_TURN_SPEC, dim, 0))
    return grid, tokens, build_bev_heatmap(grid, "gt_gaussian", 2.0)


class TestMetamorphicRelations:
    """How whole-scene outputs move under input transforms that should not matter
    (Chen et al., "Metamorphic Testing: A Review of Challenges and Opportunities", ACM Computing Surveys, 2018)."""

    @pytest.fixture(scope="class")
    def scene(self):
        sample = generate_scene(SceneConfig(rng_seed=3)).sample
        cloud = sample.cloud
        cloud.source = np.random.default_rng(1).integers(0, 3, len(cloud)).astype(np.uint8)
        return cloud, sample.cams, fused_scene(cloud, sample.cams)

    def test_point_shuffle_keeps_voxels_tags_tokens_and_geometric_hints(self, scene):
        cloud, cams, (grid, tokens, heat) = scene
        perm = np.random.default_rng(2).permutation(len(cloud))
        s_grid, s_tokens, s_heat = fused_scene(cloud.select(perm), cams)
        assert np.array_equal(s_grid.voxel_ids, grid.voxel_ids)
        assert np.array_equal(s_grid.counts, grid.counts)
        point_row = np.empty(len(cloud), dtype=np.int64)
        point_row[grid.order] = grid.point_rows
        assert np.array_equal(point_row[perm[s_grid.order]], s_grid.point_rows)  # each point keeps its voxel
        assert len(np.unique(grid.source)) == 3
        assert np.array_equal(s_grid.source, grid.source)
        assert 0 < tokens.image_valid.sum() < len(tokens)
        assert np.array_equal(s_tokens.image_valid, tokens.image_valid)
        assert s_tokens.content.tobytes() == tokens.content.tobytes()
        qc = QueryConfig()
        radius = qc.radius_in_bins(HALF_TURN_SPEC)
        hints, s_hints = (geometric_hints(g, h, qc.nms_conf_thresh, radius, qc.nms_max_peaks)
                          for g, h in ((grid, heat), (s_grid, s_heat)))
        assert len(hints) > 0
        assert [(h.position.tobytes(), h.confidence) for h in s_hints] == [
            (h.position.tobytes(), h.confidence) for h in hints]

    def test_rotation_by_pi_moves_every_voxel_half_a_turn_and_rolls_the_heatmap(self, scene):
        cloud, cams, (grid, tokens, heat) = scene
        turned = PointCloud(cloud.xyz * [-1.0, -1.0, 1.0], cloud.intensity, cloud.semantic, cloud.instance,
                            cloud.source)
        turned_cams = []
        for cam in cams:
            extrinsic = cam.extrinsic.copy()
            extrinsic[:3, :2] *= -1.0  # the camera sees the negated x and y where it saw x and y
            turned_cams.append(dataclasses.replace(cam, extrinsic=extrinsic))
        t_grid, t_tokens, t_heat = fused_scene(turned, turned_cams)
        half = HALF_TURN_SPEC.theta_bins // 2
        r, t, z = grid.indices3.T
        moved = HALF_TURN_SPEC.flatten(np.column_stack([r, (t + half) % HALF_TURN_SPEC.theta_bins, z]))
        order = np.argsort(moved)
        assert np.array_equal(t_grid.voxel_ids, moved[order])
        assert np.array_equal(t_grid.counts, grid.counts[order])
        assert 0 < tokens.image_valid.sum() < len(tokens)
        assert np.array_equal(t_tokens.image_valid, tokens.image_valid[order])
        assert heat.max() == 1.0
        assert np.array_equal(t_heat, np.roll(heat, half, axis=1))

    def test_rotation_by_pi_negates_x_and_y_of_image_means_and_geometric_hints(self, scene):
        cloud, cams, (grid, tokens, heat) = scene
        turned = PointCloud(cloud.xyz * [-1.0, -1.0, 1.0], cloud.intensity, cloud.semantic, cloud.instance,
                            cloud.source)
        turned_cams = []
        for cam in cams:
            extrinsic = cam.extrinsic.copy()
            extrinsic[:3, :2] *= -1.0
            turned_cams.append(dataclasses.replace(cam, extrinsic=extrinsic))
        t_grid, t_tokens, t_heat = fused_scene(turned, turned_cams)
        half = HALF_TURN_SPEC.theta_bins // 2
        r, t, z = grid.indices3.T
        order = np.argsort(HALF_TURN_SPEC.flatten(np.column_stack([r, (t + half) % HALF_TURN_SPEC.theta_bins, z])))
        # image means: the image half less the embedding. Each content value is mean + embedding rounded to
        # float32, so the means agree to half a float32 ulp of each side's value (measured: 3.8e-7 at most)
        params = SpeParams.create(HALF_TURN_SPEC, tokens.dim, 0)
        means = tokens.content[order, tokens.dim:] - spe_batch(grid.indices3[order], HALF_TURN_SPEC, params)
        t_means = t_tokens.content[:, tokens.dim:] - spe_batch(t_grid.indices3, HALF_TURN_SPEC, params)
        assert np.abs(means[t_tokens.image_valid]).max() > 1.0
        halves = (tokens.content[order, tokens.dim:], t_tokens.content[:, tokens.dim:])
        ulps = sum(np.spacing(np.abs(c)) for c in halves)
        assert (np.abs(t_means - means) <= ulps / 2 + 1e-12).all()
        # every column at or above the threshold, with no suppression, so no tie between equal peaks decides
        # which one is kept; positions agree to 1e-12 m (measured: 8.9e-15 m at most, on 175 hints)
        radius, max_peaks = 0.0, HALF_TURN_SPEC.r_bins * HALF_TURN_SPEC.theta_bins
        hints, t_hints = (geometric_hints(g, h, QueryConfig().nms_conf_thresh, radius, max_peaks)
                          for g, h in ((grid, heat), (t_grid, t_heat)))
        assert len(hints) > 100 and len(t_hints) == len(hints)
        expected = np.array([h.position for h in hints]) * [-1.0, -1.0, 1.0]
        gap = np.abs(expected[:, None] - np.array([h.position for h in t_hints])[None]).max(axis=2)
        match = gap.argmin(axis=1)
        assert sorted(match.tolist()) == list(range(len(hints)))
        assert gap[np.arange(len(hints)), match].max() <= 1e-12
        assert [t_hints[k].confidence for k in match] == [h.confidence for h in hints]

    @pytest.mark.parametrize("bilinear", [False, True])
    def test_camera_order_keeps_the_lidar_half_and_image_valid_and_the_image_half_to_one_ulp(self, scene, bilinear):
        cloud, _, (grid, _, _) = scene
        cfg = SceneConfig()
        cams = [ring_camera(yaw, *cfg.image_size, cfg.focal, cfg.cam_height) for yaw in (0.0, 0.5)]  # views overlap
        dim = 16
        rng = np.random.default_rng(0)
        fmaps = [FeatureMap(rng.standard_normal((c.height // 8, c.width // 8, dim)).astype(np.float32),
                            c.width, c.height) for c in cams]
        pts = np.take(cloud.xyz, grid.order, axis=0)
        seen = [np.bincount(grid.point_rows[valid_projections(pts, c)[2]], minlength=grid.num_voxels) > 0
                for c in cams]
        assert (seen[0] & seen[1]).any()
        feats = VoxelFeatures.stats_placeholder(grid, dim, 0)
        params = SpeParams.create(HALF_TURN_SPEC, dim, 0)
        tokens, swapped = (build_tokens(grid, feats, f, c, params, bilinear=bilinear)
                           for f, c in ((fmaps, cams), (fmaps[::-1], cams[::-1])))
        assert swapped.content[:, :dim].tobytes() == tokens.content[:, :dim].tobytes()
        assert np.array_equal(swapped.image_valid, tokens.image_valid)
        # only the summation order of the voxels both cameras see changes
        a, b = tokens.content[:, dim:], swapped.content[:, dim:]
        assert (np.abs(a - b) <= np.spacing(np.maximum(np.abs(a), np.abs(b)))).all()
