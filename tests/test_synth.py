import numpy as np

from cylpano.grid import CylGridSpec, voxelize
from cylpano.metrics import SegLabeling, evaluate
from cylpano.synth import (
    SceneConfig,
    generate_scene,
    rasterize,
    render_overlay,
    ring_camera,
)

from oracles import backproject

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
        cloud = PointCloud(np.array([[5.0, 0.0, 0.0]]), np.zeros(1), [2], [1])
        out = render_overlay(cloud, [np.zeros((32, 32, 3), np.uint8)], [cam])
        painted = np.argwhere(out[0].any(axis=2))
        assert painted.tolist() == [[16, 16]]

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
