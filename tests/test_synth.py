import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylpano.geometry import project_points
from cylpano.grid import CylGridSpec, voxelize
from cylpano.metrics import SegLabeling, evaluate
from cylpano.synth import (
    COLORMAP,
    SceneConfig,
    _sample_box,
    generate_scene,
    rasterize,
    render_overlay,
    ring_camera,
)

from oracles import backproject, reference_rasterize, reference_sample_box

FAST = dict(ground_points=600, points_per_object=(60, 150), image_size=(96, 72), focal=60.0)


class TestGenerate:
    def test_zero_objects_is_ground_only(self):
        cfg = SceneConfig(rng_seed=0, n_objects=(0, 0), **FAST)
        synth = generate_scene(cfg)
        assert (synth.sample.cloud.semantic == 1).all()
        assert (synth.sample.cloud.instance == 0).all()
        assert synth.masks == []

    def test_same_seed_bit_identical(self):
        cfg = SceneConfig(rng_seed=7, **FAST)
        a = generate_scene(cfg)
        b = generate_scene(cfg)
        assert np.array_equal(a.sample.cloud.xyz, b.sample.cloud.xyz)
        assert np.array_equal(a.sample.cloud.instance, b.sample.cloud.instance)
        for ia, ib in zip(a.sample.images, b.sample.images):
            assert np.array_equal(ia, ib)

    def test_masks_equal_instance_provenance(self):
        cfg = SceneConfig(rng_seed=3, **FAST)
        synth = generate_scene(cfg)
        assert synth.masks, "expected at least one visible instance"
        for mask in synth.masks:
            imap = synth.instance_maps[mask.camera_id]
            inst_ids = np.unique(imap[mask.bitmap])
            assert len(inst_ids) == 1
            assert np.array_equal(mask.bitmap, imap == inst_ids[0])

    def test_one_mask_per_visible_instance_in_each_camera(self):
        for seed in range(3):
            synth = generate_scene(SceneConfig(rng_seed=seed, n_objects=(6, 10), camera_count=3, **FAST))
            for cam_id, imap in enumerate(synth.instance_maps):
                ids = [int(np.unique(imap[m.bitmap])[0]) for m in synth.masks if m.camera_id == cam_id]
                assert ids == np.unique(imap[imap > 0]).tolist()

    def test_pixel_tags_consistent_with_labels(self):
        cfg = SceneConfig(rng_seed=4, scan_id=9, **FAST)
        synth = generate_scene(cfg)
        for img, imap in zip(synth.sample.images, synth.instance_maps):
            assert (img[:, :, 1] == 9).all()
            hit = imap > 0
            assert (img[hit, 2] == (imap[hit] & 0xFF)).all()

    def test_gt_self_evaluation_is_perfect(self):
        for seed in range(3):
            synth = generate_scene(SceneConfig(rng_seed=seed, **FAST))
            cloud = synth.sample.cloud
            grid = voxelize(cloud, CylGridSpec(48, 36, 8, (0.0, 30.0), (-2.0, 5.0)))
            assert grid.counts.sum() + len(grid.dropped) == len(cloud)
            gt = SegLabeling(cloud.semantic, cloud.instance, synth.table)
            report = evaluate(gt, gt)
            assert report.pq == 1.0 and report.rq == 1.0 and report.sq == 1.0

    def test_visibility_soundness_close_range_rig(self):
        # Long focal + near objects keep the pixel footprint under 1 cm, so a
        # painted pixel must back-project into its instance's box + 1 cm.
        # max depth ~ 4.8 m at focal 1200 px: half-pixel + splat footprint
        # (2.12 px * z / f) stays below 8.5 mm, within the 1 cm inflation.
        cfg = SceneConfig(
            rng_seed=5,
            extent=4.0,
            min_center_dist=1.5,
            focal=1200.0,
            image_size=(640, 360),
            splat_radius=1,
            ground_points=200,
            points_per_object=(150, 300),
            n_objects=(4, 7),
            camera_count=8,
            cam_height=0.8,
        )
        synth = generate_scene(cfg)
        cloud = synth.sample.cloud
        checked = 0
        for cam_id, (imap, dmap) in enumerate(zip(synth.instance_maps, synth.depth_maps)):
            cam = synth.sample.cams[cam_id]
            for inst_id in np.unique(imap[imap > 0]):
                pts = cloud.xyz[cloud.instance == inst_id].astype(np.float64)
                lo = pts.min(axis=0) - 0.01
                hi = pts.max(axis=0) + 0.01
                rows, cols = np.nonzero(imap == inst_id)
                for v, u in zip(rows[::5], cols[::5]):
                    p = backproject(u + 0.5, v + 0.5, dmap[v, u], cam)
                    assert (p >= lo - 1e-9).all() and (p <= hi + 1e-9).all()
                    checked += 1
        assert checked > 50


class TestOverlay:
    def test_empty_cloud_leaves_images_unchanged(self):
        from cylpano.grid import PointCloud

        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        base = np.full((32, 32, 3), 7, dtype=np.uint8)
        for xyz in (np.zeros((0, 3)), [[-5.0, 0.0, 0.0], [-2.0, 1.0, 0.5]]):  # no point, all behind the camera
            cloud = PointCloud(xyz, np.zeros(len(xyz)))
            out = render_overlay(cloud, [base], [cam])
            assert np.array_equal(out[0], base)
            pix, pid, depth = rasterize(cloud.xyz, cam, 1)
            assert (pix.dtype, pid.dtype, depth.dtype) == (np.int64, np.int64, np.float64)
            assert len(pix) == len(pid) == len(depth) == 0

    def test_point_on_optical_axis_paints_principal_point(self):
        from cylpano.grid import PointCloud

        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        for semantic, color in (([2], COLORMAP[2]), (None, COLORMAP[0])):  # labels left out: class 0, "unlabeled"
            cloud = PointCloud(np.array([[5.0, 0.0, 0.0]]), np.zeros(1), semantic)
            out = render_overlay(cloud, [np.zeros((32, 32, 3), np.uint8)], [cam])
            painted = np.argwhere(out[0].any(axis=2))
            assert painted.tolist() == [[16, 16]]
            assert out[0][16, 16].tolist() == color.tolist()

    def test_painted_set_equals_projection_oracle(self):
        from cylpano.geometry import project_points
        from cylpano.grid import PointCloud

        rng = np.random.default_rng(6)
        cam = ring_camera(0.5, 48, 36, 24.0, 0.3)
        xyz = np.column_stack([rng.uniform(-12, 12, (300, 2)), rng.uniform(-1, 2, 300)])
        cloud = PointCloud(xyz, np.zeros(300), np.full(300, 2), np.ones(300))
        out = render_overlay(cloud, [np.zeros((36, 48, 3), np.uint8)], [cam])
        got = {tuple(p) for p in np.argwhere(out[0].any(axis=2))}
        uv, depth = project_points(cloud.xyz, cam)
        want = set()
        for i in range(300):
            u, v = uv[i]
            if depth[i] > 0 and 0 <= u < 48 and 0 <= v < 36:
                want.add((int(np.floor(v)), int(np.floor(u))))
        assert got == want


def _oracle_render(cloud, cam, scan_id, splat_radius):
    """Provenance image, depth map and instance map painted from the brute-force z-buffer."""
    uv, depth = project_points(cloud.xyz, cam)
    pix, pid, dep = reference_rasterize(uv, depth, cam.width, cam.height, splat_radius)
    rows, cols = np.divmod(pix, cam.width)
    img = np.zeros((cam.height, cam.width, 3), dtype=np.uint8)
    img[:, :, 1] = scan_id
    img[rows, cols, 0] = cloud.semantic[pid] & 0xFF
    img[rows, cols, 2] = cloud.instance[pid] & 0xFF
    dmap = np.full((cam.height, cam.width), np.inf)
    dmap[rows, cols] = dep
    imap = np.zeros((cam.height, cam.width), dtype=np.int32)
    imap[rows, cols] = cloud.instance[pid]
    return img, dmap, imap


lattice_points = st.lists(st.tuples(st.integers(-3, 8), st.integers(-7, 7), st.integers(-5, 5)), max_size=30)


class TestRasterize:
    @settings(max_examples=200, deadline=None)
    @given(points=lattice_points, dup=st.lists(st.integers(0, 29), max_size=12),
           step=st.sampled_from([1.0, 0.25, 0.1]), radius=st.integers(0, 3),
           yaw=st.sampled_from([0.0, 0.3, np.pi / 2]))
    @example(points=[], dup=[], step=1.0, radius=1, yaw=0.0)
    @example(points=[(4, 0, 0)], dup=[0, 0], step=1.0, radius=3, yaw=0.0)
    def test_equals_brute_force_z_buffer(self, points, dup, step, radius, yaw):
        # Integer lattices give many exact depth ties; duplicates tie on every key but the index.
        # x <= 0 puts points behind the camera, large |y| or |z| puts them off the image.
        pts = points + [points[j % len(points)] for j in dup if points]
        xyz = np.array(pts, dtype=np.float64).reshape(-1, 3) * step
        cam = ring_camera(yaw, 16, 12, 6.0, 0.0)
        uv, depth = project_points(xyz, cam)
        got = rasterize(xyz, cam, radius)
        want = reference_rasterize(uv, depth, cam.width, cam.height, radius)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_generated_buffers_equal_oracle_render(self):
        cfg = SceneConfig(rng_seed=2, splat_radius=2, scan_id=5, camera_count=3, **FAST)
        synth = generate_scene(cfg)
        for k, cam in enumerate(synth.sample.cams):
            img, dmap, imap = _oracle_render(synth.sample.cloud, cam, cfg.scan_id, cfg.splat_radius)
            assert np.array_equal(synth.sample.images[k], img)
            assert np.array_equal(synth.depth_maps[k], dmap)
            assert np.array_equal(synth.instance_maps[k], imap)


class TestSampleBox:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 500),
           size=st.tuples(*[st.floats(0.01, 10.0)] * 3))
    @example(seed=0, n=0, size=(1.0, 1.0, 1.0))
    @example(seed=3, n=500, size=(6.0, 0.15, 2.0))  # a wall
    def test_equals_per_face_loop(self, seed, n, size):
        # Twin generators: both draw the same numbers, so the points must match bit for bit.
        got = _sample_box(np.random.default_rng(seed), n, *size)
        want = reference_sample_box(np.random.default_rng(seed), n, *size)
        assert got.dtype == want.dtype and got.shape == want.shape == (n, 3)
        assert got.tobytes() == want.tobytes()
