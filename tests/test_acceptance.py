"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import hashlib
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cylpano import formats
from cylpano.augment import AugConfig, augment, paste_instances, scene_swap_mask, alternating_slices
from cylpano.cli import main
from cylpano.config import PipelineConfig, save_config
from cylpano.errors import NoValidProjectionError
from cylpano.geometry import InstanceTransform, rotation_z, transform_instance
from cylpano.grid import CylGridSpec, PointCloud, extreme_points_batch, voxelize
from cylpano.metrics import ClassTable, SegLabeling, evaluate
from cylpano.config import QueryConfig
from cylpano.queries import (
    LocationHint,
    Mask2D,
    QuerySet,
    assemble_queries,
    build_bev_heatmap,
    dbscan,
    fps,
    geometric_hints,
    nms_peaks,
    texture_hints,
)
from cylpano.synth import SceneConfig, generate_scene, ring_camera
from cylpano.tokens import (
    FeatureMap,
    SpeParams,
    TokenSet,
    VoxelFeatures,
    aggregate_image_feature,
    build_tokens,
    centroid_image_feature,
    corner_distances,
    scale_encoding,
)

from oracles import (
    azimuth_filter_points,
    clusters_as_sets,
    fps_step_is_greedy,
    greedy_nms,
    mask_selected_points,
    reference_dbscan,
    reference_panoptic_report,
    z_interval_filter_points,
)


@contextmanager
def criterion(num, name):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"\n[acceptance] criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


METRIC_TABLE = ClassTable(
    {
        0: ("void", "ignore"),
        1: ("car", "thing"),
        2: ("person", "thing"),
        3: ("pole", "thing"),
        4: ("road", "stuff"),
        5: ("grass", "stuff"),
    }
)

FAST_SCENE = dict(ground_points=800, points_per_object=(80, 200), image_size=(96, 72),
                  focal=60.0, extent=15.0)
FAST_SPEC = CylGridSpec(48, 36, 8, (0.0, 30.0), (-3.0, 5.0))


def random_metric_scene(rng):
    n = int(rng.integers(20, 201))
    gt_sem = rng.integers(0, 6, n)
    gt_inst = np.where(np.isin(gt_sem, (1, 2, 3)), rng.integers(1, 9, n), 0)
    pred_sem = gt_sem.copy()
    flip = rng.random(n) < 0.3
    pred_sem[flip] = rng.integers(0, 6, flip.sum())
    pred_inst = np.where(np.isin(pred_sem, (1, 2, 3)), rng.integers(1, 9, n), 0)
    agree = np.isin(gt_sem, (1, 2, 3)) & (pred_sem == gt_sem) & (rng.random(n) < 0.7)
    pred_inst[agree] = gt_inst[agree]
    return (
        SegLabeling(pred_sem, pred_inst, METRIC_TABLE),
        SegLabeling(gt_sem, gt_inst, METRIC_TABLE),
    )


def test_01_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(101)
        for _ in range(100):
            pred, gt = random_metric_scene(rng)
            report = evaluate(pred, gt)
            ref_classes, ref_agg, ref_part = reference_panoptic_report(
                pred.semantic, pred.instance, gt.semantic, gt.instance, METRIC_TABLE
            )
            assert sorted(report.per_class) == sorted(ref_classes)
            for c, st in report.per_class.items():
                ref = ref_classes[c]
                assert (st.tp, st.fp, st.fn) == (ref["tp"], ref["fp"], ref["fn"])
                assert st.sq == ref["sq"] and st.rq == ref["rq"] and st.pq == ref["pq"]
            assert report.participating == ref_part
            agg = report.to_dict()["aggregates"]
            for key, val in ref_agg.items():
                assert agg[key] == val, key
        # hand case: one TP at IoU 0.6 plus one FP in the same class
        gt = SegLabeling(
            np.array([1] * 100 + [4] * 30), np.array([1] * 100 + [0] * 30), METRIC_TABLE
        )
        pred = SegLabeling(
            np.array([1] * 60 + [4] * 40 + [1] * 30),
            np.array([1] * 60 + [0] * 40 + [2] * 30),
            METRIC_TABLE,
        )
        st = evaluate(pred, gt).per_class[1]
        assert abs(st.pq - 0.4) <= 1e-12
        assert time.perf_counter() - t0 < 10.0


def test_02_self_evaluation_identity():
    with criterion(2, "synthetic GT self-evaluation scores 1.0"):
        for seed in range(20):
            synth = generate_scene(SceneConfig(rng_seed=seed, **FAST_SCENE))
            cloud = synth.sample.cloud
            gt = SegLabeling(cloud.semantic, cloud.instance, synth.table)
            report = evaluate(gt, gt)
            assert report.pq == 1.0 and report.rq == 1.0 and report.sq == 1.0


def test_03_mask_mixing_generalization():
    with criterion(3, "mask algebra generalizes azimuth/height/instance mixing"):
        rng = np.random.default_rng(303)
        # (a) angle swaps == brute-force azimuth interval filter
        for _ in range(10):
            spec = CylGridSpec(
                int(rng.integers(4, 16)), int(rng.integers(4, 24)), int(rng.integers(2, 8)),
                (0.0, float(rng.uniform(15, 40))), (-3.0, 3.0),
            )
            xyz = np.column_stack([rng.uniform(-30, 30, (500, 2)), rng.uniform(-4, 4, 500)])
            cloud = PointCloud(xyz, rng.random(500))
            selected = alternating_slices(spec.theta_bins, int(rng.choice([2, 3, 4, 5])))
            mask = scene_swap_mask("angle", selected, spec)
            assert mask_selected_points(voxelize(cloud, spec), mask) == azimuth_filter_points(
                cloud, spec, selected
            )
        # (b) height swaps == brute-force z interval filter on aligned edges
        for _ in range(10):
            spec = CylGridSpec(
                int(rng.integers(4, 16)), int(rng.integers(4, 16)), int(rng.integers(2, 10)),
                (0.0, 25.0), (float(rng.uniform(-4, -1)), float(rng.uniform(1, 4))),
            )
            xyz = np.column_stack([rng.uniform(-20, 20, (500, 2)), rng.uniform(-5, 5, 500)])
            cloud = PointCloud(xyz, rng.random(500))
            selected = alternating_slices(spec.z_bins, int(rng.choice([2, 3, 4])))
            mask = scene_swap_mask("height", selected, spec)
            assert mask_selected_points(voxelize(cloud, spec), mask) == z_interval_filter_points(
                cloud, spec, selected
            )
        # (c) instance pasting reproduces the transformed donor points exactly
        for trial in range(10):
            seed = 400 + trial
            org = generate_scene(SceneConfig(rng_seed=seed, **FAST_SCENE)).sample
            donor = generate_scene(SceneConfig(rng_seed=seed + 50, scan_id=2, **FAST_SCENE)).sample
            avail = np.unique(donor.cloud.instance[donor.cloud.instance > 0])
            s = int(rng.integers(1, min(3, len(avail)) + 1))
            ids = rng.choice(avail, size=s, replace=False)
            transforms = [
                InstanceTransform(
                    np.array([rng.uniform(-2, 2), rng.uniform(-2, 2), 0.0]),
                    rng.uniform(-np.pi, np.pi),
                    rng.uniform(0.9, 1.1),
                )
                for _ in range(s)
            ]
            out, _, _ = paste_instances(org, donor, FAST_SPEC, s, transforms, instance_ids=ids)
            expected = set()
            for inst_id, t in zip(ids, transforms):
                pts = donor.cloud.xyz[donor.cloud.instance == inst_id]
                moved = transform_instance(pts, t).astype(np.float32)
                sem = donor.cloud.semantic[donor.cloud.instance == inst_id]
                for p, s_id in zip(moved, sem):
                    expected.add((float(p[0]), float(p[1]), float(p[2]), int(s_id)))
            pasted = out.cloud.source == 1
            got = {
                (float(x), float(y), float(z), int(s_id))
                for (x, y, z), s_id in zip(out.cloud.xyz[pasted], out.cloud.semantic[pasted])
            }
            assert got == expected


def test_04_modality_synchronization():
    with criterion(4, "swapped image pixels carry exactly the new-scan tag"):
        cfg = AugConfig(
            p_instance=0.0, p_height_swap=0.0, p_angle_swap=1.0,
            rotation_range=0.0, flip_prob=0.0, scale_range=(1.0, 1.0),
        )
        for seed in range(10):
            org = generate_scene(SceneConfig(rng_seed=seed, scan_id=1, **FAST_SCENE)).sample
            new = generate_scene(SceneConfig(rng_seed=seed + 100, scan_id=2, **FAST_SCENE)).sample
            cfg.rng_seed = seed
            result = augment(org, new, FAST_SPEC, cfg)
            assert result.applied["angle"]
            for cam_id, img in enumerate(result.sample.images):
                inside = np.zeros(img.shape[:2], dtype=bool)
                for u0, v0, u1, v1 in result.swapped_rects.get(cam_id, []):
                    inside[v0:v1 + 1, u0:u1 + 1] = True
                assert (img[inside, 1] == 2).all(), "pixel inside a swapped rect kept the old tag"
                assert (img[~inside, 1] == 1).all(), "pixel outside all swapped rects was overwritten"


def test_05_physical_point_projection_necessity():
    with criterion(5, "physical points pair and aggregate where the centroid fails"):
        spec = CylGridSpec(25, 4, 4, (0.0, 50.0), (-5.0, 3.0))
        cam = ring_camera(0.0, 640, 360, 2000.0, 0.0)
        theta = 0.03
        pts = np.array(
            [
                [49.0 * np.cos(theta), 49.0 * np.sin(theta), 0.0],
                [49.5 * np.cos(theta), 49.5 * np.sin(theta), 0.1],
            ]
        )
        cloud = PointCloud(pts, np.zeros(2))
        from cylpano.grid import centroids_batch, pair_voxel_image
        from cylpano.geometry import valid_projections

        grid = pair_voxel_image(voxelize(cloud, spec), [cam])
        assert grid.num_voxels == 1
        centroid = centroids_batch(grid.indices3, spec)
        _, _, valid = valid_projections(centroid, cam)
        assert not valid[0], "construction must place the centroid outside the image"
        assert grid.pairings[0].rect_of(int(grid.voxel_ids[0])) is not None
        fmap = FeatureMap(np.full((36, 64, 4), 5.0, dtype=np.float32), 640, 360)
        agg = aggregate_image_feature(pts, fmap, cam)
        assert np.abs(agg).max() > 0
        corners = extreme_points_batch(grid.indices3, spec)[0]
        with pytest.raises(NoValidProjectionError):
            centroid_image_feature(corners, fmap, cam)


def test_06_spe_scale_term_rotation_invariance():
    with criterion(6, "corner-distance vector is rotation invariant"):
        rng = np.random.default_rng(606)
        spec = CylGridSpec(32, 24, 8, (0.0, 50.0), (-5.0, 3.0))
        params = SpeParams.create(spec, dim=32, seed=0)
        idx = np.column_stack(
            [rng.integers(0, spec.r_bins, 1000), rng.integers(0, spec.theta_bins, 1000),
             rng.integers(0, spec.z_bins, 1000)]
        )
        corners = extreme_points_batch(idx, spec)
        angles = rng.uniform(0, 2 * np.pi, 1000)
        d0 = corner_distances(corners)
        rotated = np.einsum("mij,mkj->mki", np.stack([rotation_z(a) for a in angles]), corners)
        d1 = corner_distances(rotated)
        assert np.abs(d0 - d1).max() < 1e-9
        # identical params and identical inputs give bit-identical outputs
        assert np.array_equal(scale_encoding(d0, params), scale_encoding(d0.copy(), params))
        assert np.abs(scale_encoding(d0, params) - scale_encoding(d1, params)).max() < 1e-9


def test_07_query_seeding_oracles():
    with criterion(7, "NMS, DBSCAN, and FPS match brute-force oracles"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(707)
        for _ in range(50):
            heat = rng.random((24, 18))
            thresh = float(rng.uniform(0.1, 0.6))
            radius = float(rng.uniform(0.5, 5.0))
            max_peaks = int(rng.integers(1, 20))
            assert nms_peaks(heat, thresh, radius, max_peaks) == greedy_nms(
                heat, thresh, radius, max_peaks
            )
        for _ in range(50):
            n = int(rng.integers(2, 51))
            pts = rng.uniform(0, 4, (n, 3))
            eps = float(rng.uniform(0.3, 1.5))
            min_pts = int(rng.integers(1, 6))
            assert clusters_as_sets(dbscan(pts, eps, min_pts)) == clusters_as_sets(
                reference_dbscan(pts, eps, min_pts)
            )
        for _ in range(300):
            n = int(rng.integers(2, 9))
            pts = rng.uniform(-5, 5, (n, 3))
            conf = rng.random(n)
            for k in range(1, min(4, n)):
                assert fps_step_is_greedy(pts, fps(pts, k, confidences=conf), conf)
        assert time.perf_counter() - t0 < 30.0


def test_08_image_aggregation_oracle():
    with criterion(8, "voxel image-feature means match independent accumulation"):
        from cylpano.geometry import valid_projections

        rng = np.random.default_rng(808)
        cam = ring_camera(0.0, 64, 48, 40.0, 0.5)
        fmap = FeatureMap(rng.standard_normal((12, 16, 8)).astype(np.float32), 64, 48)
        checked = 0
        worst = 0.0
        while checked < 1000:
            pts = np.column_stack(
                [rng.uniform(2, 20, (6, 1)), rng.uniform(-4, 4, (6, 1)), rng.uniform(-1, 2, (6, 1))]
            )
            uv, _, valid = valid_projections(pts, cam)
            if not valid.any():
                continue
            got = aggregate_image_feature(pts, fmap, cam)
            acc = np.zeros(8)
            n = 0
            for i in np.flatnonzero(valid):
                col = int(np.floor(uv[i, 0] * 16 / 64))
                row = int(np.floor(uv[i, 1] * 12 / 48))
                acc += fmap.data[row, col].astype(np.float64)
                n += 1
            ref = acc / n
            rel = np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-12)
            worst = max(worst, rel)
            checked += 1
        assert worst < 1e-6


def _run_chain(tmp_path, tag, seed, cfg_path):
    base = tmp_path / f"{tag}-{seed}"
    org = base / "org"
    new = base / "new"
    assert main(["synth", "--config", cfg_path, "--seed", str(seed), "--out", str(org)]) == 0
    assert main(["synth", "--config", cfg_path, "--seed", str(seed + 1000), "--out", str(new)]) == 0
    vox = base / "vox"
    assert main(["voxelize", "--config", cfg_path, "--cloud", str(org / "cloud.plcd"), "--out", str(vox)]) == 0
    aug = base / "aug"
    assert main(["augment", "--config", cfg_path, "--seed", str(seed), "--org", str(org),
                 "--new", str(new), "--out", str(aug)]) == 0
    fuse = base / "fuse"
    assert main(["fuse", "--config", cfg_path, "--sample", str(aug), "--out", str(fuse)]) == 0
    qrs = base / "queries"
    assert main(["queries", "--config", cfg_path, "--sample", str(aug),
                 "--tokens", str(fuse / "tokens.toks"), "--masks", str(org / "masks"),
                 "--classes", str(org / "classes.cfg"), "--out", str(qrs)]) == 0
    rep = base / "report.json"
    assert main(["eval", "--pred", str(aug / "cloud.plcd"), "--gt", str(aug / "cloud.plcd"),
                 "--classes", str(org / "classes.cfg"), "--report", str(rep)]) == 0
    hashes = {}
    for p in sorted(base.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            hashes[str(p.relative_to(base))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return hashes


def test_09_determinism_and_round_trip(tmp_path):
    with criterion(9, "byte-identical reruns and bit-exact codec round-trips"):
        cfg = PipelineConfig()
        cfg.grid = FAST_SPEC
        cfg.tokens.dim = 16
        cfg.tokens.feat_downsample = 4
        cfg.queries.l_pr = 16
        cfg.queries.l_lt = 16
        for key, val in FAST_SCENE.items():
            setattr(cfg.synth, key, val)
        cfg_path = tmp_path / "pipeline.cfg"
        save_config(cfg_path, cfg)
        for seed in (1, 2, 3):
            a = _run_chain(tmp_path, "a", seed, str(cfg_path))
            b = _run_chain(tmp_path, "b", seed, str(cfg_path))
            assert a == b and len(a) > 10

        # codec fuzz: 1000 round-trips across every binary format
        rng = np.random.default_rng(909)
        spec = CylGridSpec(16, 12, 4, (0.0, 20.0), (-2.0, 2.0))
        count = 0
        for i in range(400):  # point clouds
            n = int(rng.integers(0, 120))
            cloud = PointCloud(
                rng.uniform(-50, 50, (n, 3)).astype(np.float32),
                rng.random(n).astype(np.float32),
                rng.integers(0, 2**16, n),
                rng.integers(0, 2**16, n),
            )
            p = tmp_path / "c.plcd"
            formats.write_point_cloud(p, cloud)
            got = formats.read_point_cloud(p)
            assert np.array_equal(got.xyz, cloud.xyz)
            assert np.array_equal(got.intensity, cloud.intensity)
            assert np.array_equal(got.semantic, cloud.semantic)
            assert np.array_equal(got.instance, cloud.instance)
            count += 1
        for i in range(150):  # masks
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            mask = Mask2D(int(rng.integers(0, 8)), rng.random((h, w)) < rng.random())
            p = tmp_path / "m.msk2"
            formats.write_mask(p, mask)
            got = formats.read_mask(p)
            assert got.camera_id == mask.camera_id and np.array_equal(got.bitmap, mask.bitmap)
            count += 1
        for i in range(100):  # feature maps
            maps = rng.standard_normal(
                (int(rng.integers(1, 3)), int(rng.integers(1, 6)), int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            ).astype(np.float32)
            p = tmp_path / "f.fmap"
            formats.write_feature_maps(p, maps)
            assert np.array_equal(formats.read_feature_maps(p), maps)
            count += 1
        for i in range(100):  # tokens
            m = int(rng.integers(0, 30))
            ids = np.unique(rng.integers(0, spec.num_cells, m)).astype(np.int64)
            dim = int(rng.integers(1, 9))
            content = rng.standard_normal((len(ids), 2 * dim)).astype(np.float32)
            tokens = TokenSet(spec, ids, content.astype(np.float64),
                              np.zeros((len(ids), dim)), np.ones(len(ids), bool))
            p = tmp_path / "t.toks"
            formats.write_tokens(p, tokens)
            idx3, got = formats.read_tokens(p, spec)
            assert np.array_equal(got, content) and np.array_equal(idx3, spec.unflatten(ids))
            count += 1
        for i in range(100):  # query sets
            dim = int(rng.integers(1, 6))
            n_prior = int(rng.integers(0, 5))
            hints = [
                LocationHint(
                    rng.normal(size=3).astype(np.float32),
                    float(np.float32(rng.random())),
                    "geometric" if rng.random() < 0.5 else "texture",
                )
                for _ in range(n_prior)
            ]
            qs = QuerySet(
                dim=dim,
                prior_content=rng.standard_normal((n_prior, 2 * dim)).astype(np.float32),
                prior_spe=np.zeros((n_prior, dim), np.float32),
                hints=hints,
                no_prior=rng.standard_normal((int(rng.integers(0, 5)), dim)).astype(np.float32),
                semantic=rng.standard_normal((int(rng.integers(1, 5)), dim)).astype(np.float32),
            )
            p = tmp_path / "q.qrys"
            formats.write_queries(p, qs)
            got = formats.read_queries(p)
            assert np.array_equal(got.prior_content, qs.prior_content)
            assert np.array_equal(got.no_prior, qs.no_prior)
            assert np.array_equal(got.semantic, qs.semantic)
            for ha, hb in zip(got.hints, qs.hints):
                assert np.array_equal(ha.position, hb.position) and ha.confidence == hb.confidence
            count += 1
        for i in range(100):  # images
            img = rng.integers(0, 256, (int(rng.integers(1, 24)), int(rng.integers(1, 24)), 3)).astype(np.uint8)
            p = tmp_path / "i.ppm"
            formats.write_ppm(p, img)
            assert np.array_equal(formats.read_ppm(p), img)
            count += 1
        for i in range(50):  # provenance sidecars
            m = int(rng.integers(0, 60))
            idx3 = np.column_stack(
                [rng.integers(0, 480, m), rng.integers(0, 360, m), rng.integers(0, 32, m)]
            )
            tags = rng.integers(0, 2, m).astype(np.uint8)
            p = tmp_path / "v.pvox"
            formats.write_provenance(p, idx3, tags)
            gi, gtg = formats.read_provenance(p)
            assert np.array_equal(gi, idx3.astype(np.int64)) and np.array_equal(gtg, tags)
            count += 1
        assert count == 1000


def test_10_throughput_100k_points():
    try:
        from threadpoolctl import threadpool_limits
        limits = threadpool_limits(limits=1)  # keep the measurement single-threaded
    except ImportError:
        limits = None
    with criterion(10, "voxelize + augment + fuse on 100k points under 5 s"):
        spec = CylGridSpec()  # the full 480 x 360 x 32 production grid
        gen = dict(ground_points=70000, n_objects=(12, 12), points_per_object=(2000, 3000),
                   extent=45.0, camera_count=2)
        org = generate_scene(SceneConfig(rng_seed=0, **gen)).sample
        new = generate_scene(SceneConfig(rng_seed=1, scan_id=2, **gen)).sample
        assert len(org.cloud) >= 90000

        dim = 128
        params = SpeParams.create(spec, dim, 0)
        rng = np.random.default_rng(0)
        fmaps = [
            FeatureMap(rng.standard_normal((45, 80, dim)).astype(np.float32), c.width, c.height)
            for c in org.cams
        ]

        def one_pass():
            grid = voxelize(org.cloud, spec)
            result = augment(org, new, spec, AugConfig(rng_seed=0))
            feats = VoxelFeatures.stats_placeholder(result.grid, dim, 0)
            tokens = build_tokens(result.grid, feats, fmaps, result.sample.cams, params)
            return grid, tokens

        # min over repeats: standard wall-clock methodology, since a shared
        # machine's scheduler noise says nothing about the cost of the work
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            grid, tokens = one_pass()
            times.append(time.perf_counter() - t0)
        elapsed = min(times)
        print(f"\n[acceptance] 100k-point voxelize+augment+fuse: best {elapsed:.2f}s "
              f"of {sorted(round(t, 2) for t in times)} "
              f"({grid.num_voxels} voxels, {len(tokens)} tokens)")
        assert elapsed < 5.0


def test_11_query_stage_on_reference_scene():
    with criterion(11, "heatmap + geometric + texture hints + assemble on the reference scene under 1.5 s"):
        spec = CylGridSpec()
        gen = dict(ground_points=70000, n_objects=(12, 12), points_per_object=(2000, 3000),
                   extent=45.0, camera_count=2)
        synth = generate_scene(SceneConfig(rng_seed=0, **gen))
        cloud, cams = synth.sample.cloud, synth.sample.cams
        assert len(synth.masks) == 6

        dim = 128
        params = SpeParams.create(spec, dim, 0)
        rng = np.random.default_rng(0)
        fmaps = [
            FeatureMap(rng.standard_normal((45, 80, dim)).astype(np.float32), c.width, c.height)
            for c in cams
        ]
        grid = voxelize(cloud, spec)
        tokens = build_tokens(grid, VoxelFeatures.stats_placeholder(grid, dim, 0), fmaps, cams, params)
        qc = QueryConfig()

        def one_pass():
            heat = build_bev_heatmap(grid, qc.heatmap_mode, qc.heatmap_sigma)
            geo = geometric_hints(grid, heat, qc.nms_conf_thresh, qc.radius_in_bins(spec), qc.nms_max_peaks)
            tex = texture_hints(synth.masks, cloud, cams, qc.dbscan_eps, qc.dbscan_min_pts)
            return assemble_queries(geo, tex, grid, tokens, params, qc.l_pr, qc.l_lt)

        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            qs = one_pass()
            times.append(time.perf_counter() - t0)
        elapsed = min(times)
        print(f"\n[acceptance] reference-scene query stage: best {elapsed:.2f}s "
              f"of {sorted(round(t, 2) for t in times)} ({qs.num_prior} prior queries)")
        assert qs.num_prior > 0
        assert elapsed < 1.5
