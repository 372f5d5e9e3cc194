import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpano import formats
from cylpano.config import PipelineConfig, load_config, save_config
from cylpano.errors import BadConfigError, BadMagicError, ShapeMismatchError, TruncatedFileError
from cylpano.geometry import similarity_matrix, transform_camera
from cylpano.grid import CylGridSpec, PointCloud
from cylpano.queries import LocationHint, Mask2D, QuerySet
from cylpano.synth import ring_camera
from cylpano.tokens import TokenSet


def random_cloud(rng, n):
    return PointCloud(
        rng.uniform(-50, 50, (n, 3)).astype(np.float32),
        rng.random(n).astype(np.float32),
        rng.integers(0, 2**16, n).astype(np.uint16),
        rng.integers(0, 2**16, n).astype(np.uint16),
    )


def clouds_equal(a, b):
    return (
        np.array_equal(a.xyz, b.xyz)
        and np.array_equal(a.intensity, b.intensity)
        and np.array_equal(a.semantic, b.semantic)
        and np.array_equal(a.instance, b.instance)
    )


class TestPointCloudCodec:
    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "c.plcd"
        formats.write_point_cloud(path, PointCloud(np.zeros((0, 3)), np.zeros(0), [], []))
        assert len(formats.read_point_cloud(path)) == 0

    def test_fuzz_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        for i in range(50):
            cloud = random_cloud(rng, int(rng.integers(0, 200)))
            path = tmp_path / f"c{i}.plcd"
            formats.write_point_cloud(path, cloud)
            assert clouds_equal(cloud, formats.read_point_cloud(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.plcd"
        path.write_bytes(b"XXXX" + b"\0" * 16)
        with pytest.raises(BadMagicError):
            formats.read_point_cloud(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.plcd"
        path.write_bytes(b"PLCD" + np.asarray([5], dtype="<u4").tobytes() + b"\0" * 10)
        with pytest.raises(TruncatedFileError):
            formats.read_point_cloud(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "x.plcd"
        formats.write_point_cloud(path, random_cloud(rng, 3))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(ShapeMismatchError):
            formats.read_point_cloud(path)


class TestTensorCodecs:
    def test_feature_map_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        maps = rng.standard_normal((2, 6, 8, 4)).astype(np.float32)
        formats.write_feature_maps(tmp_path / "f.fmap", maps)
        assert np.array_equal(formats.read_feature_maps(tmp_path / "f.fmap"), maps)

    def test_tokens_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        spec = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))
        idx = np.unique(rng.integers(0, spec.num_cells, 40))
        content = rng.standard_normal((len(idx), 6)).astype(np.float32)
        tokens = TokenSet(spec, idx.astype(np.int64), content.astype(np.float64),
                          np.zeros((len(idx), 3)), np.ones(len(idx), bool))
        formats.write_tokens(tmp_path / "t.toks", tokens)
        idx3, got = formats.read_tokens(tmp_path / "t.toks", spec)
        assert np.array_equal(idx3, spec.unflatten(idx))
        assert np.array_equal(got, content)

    def test_mask_round_trip_fuzz(self, tmp_path):
        rng = np.random.default_rng(4)
        for i in range(30):
            h, w = int(rng.integers(1, 24)), int(rng.integers(1, 24))
            mask = Mask2D(int(rng.integers(0, 6)), rng.random((h, w)) < rng.random())
            formats.write_mask(tmp_path / f"m{i}.msk2", mask)
            got = formats.read_mask(tmp_path / f"m{i}.msk2")
            assert got.camera_id == mask.camera_id
            assert np.array_equal(got.bitmap, mask.bitmap)

    @pytest.mark.parametrize(
        "bitmap",
        [
            np.array([[1, 1, 0], [0, 1, 0]], dtype=bool),  # starts set
            np.zeros((3, 4), dtype=bool),
            np.ones((3, 4), dtype=bool),
            np.zeros((0, 5), dtype=bool),
            np.zeros((0, 0), dtype=bool),
        ],
        ids=["starts_set", "all_clear", "all_set", "zero_rows", "zero_pixels"],
    )
    def test_mask_round_trip_edges(self, tmp_path, bitmap):
        formats.write_mask(tmp_path / "m.msk2", Mask2D(2, bitmap))
        got = formats.read_mask(tmp_path / "m.msk2")
        assert got.camera_id == 2
        assert got.bitmap.dtype == bool and got.bitmap.shape == bitmap.shape
        assert np.array_equal(got.bitmap, bitmap)

    def test_mask_runs_must_cover_image(self, tmp_path):
        path = tmp_path / "m.msk2"
        header = b"MSK2" + np.asarray([0, 4, 4, 1], dtype="<u4").tobytes()
        path.write_bytes(header + np.asarray([3], dtype="<u4").tobytes())
        with pytest.raises(ShapeMismatchError):
            formats.read_mask(path)

    def test_queries_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        dim = 4
        hints = [
            LocationHint(rng.normal(size=3).astype(np.float32), float(np.float32(rng.random())), "texture"),
            LocationHint(rng.normal(size=3).astype(np.float32), 0.5, "geometric"),
        ]
        qs = QuerySet(
            dim=dim,
            prior_content=rng.standard_normal((2, 2 * dim)).astype(np.float32),
            prior_spe=rng.standard_normal((2, dim)).astype(np.float32),
            hints=hints,
            no_prior=rng.standard_normal((3, dim)).astype(np.float32),
            semantic=rng.standard_normal((5, dim)).astype(np.float32),
        )
        formats.write_queries(tmp_path / "q.qrys", qs)
        got = formats.read_queries(tmp_path / "q.qrys")
        assert np.array_equal(got.prior_content, qs.prior_content)
        assert np.array_equal(got.prior_spe, qs.prior_spe)
        assert np.array_equal(got.no_prior, qs.no_prior)
        assert np.array_equal(got.semantic, qs.semantic)
        for ha, hb in zip(got.hints, qs.hints):
            assert np.array_equal(ha.position, hb.position)
            assert ha.confidence == hb.confidence and ha.origin == hb.origin

    @staticmethod
    def _one_query_file(path, dim=2):
        qs = QuerySet(
            dim=dim,
            prior_content=np.ones((1, 2 * dim), np.float32),
            prior_spe=np.ones((1, dim), np.float32),
            hints=[LocationHint([1.0, 2.0, 0.5], 0.75, "texture")],
            no_prior=np.zeros((1, dim), np.float32),
            semantic=np.zeros((1, dim), np.float32),
        )
        formats.write_queries(path, qs)
        return bytearray(path.read_bytes())

    def test_old_query_magic_rejected(self, tmp_path):
        path = tmp_path / "q.qrys"
        data = self._one_query_file(path)
        path.write_bytes(b"QRYS" + data[4:])
        with pytest.raises(BadMagicError):
            formats.read_queries(path)

    def test_unknown_origin_code_rejected(self, tmp_path):
        path = tmp_path / "q.qrys"
        data = self._one_query_file(path)
        data[4 + 16 + 16] = 7  # origin byte of the first prior record, after xyz and confidence
        path.write_bytes(bytes(data))
        with pytest.raises(ShapeMismatchError, match="origin code 7"):
            formats.read_queries(path)

    def test_provenance_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        idx3 = np.column_stack([rng.integers(0, 480, 25), rng.integers(0, 360, 25), rng.integers(0, 32, 25)])
        tags = rng.integers(0, 2, 25).astype(np.uint8)
        formats.write_provenance(tmp_path / "p.pvox", idx3, tags)
        got_idx, got_tags = formats.read_provenance(tmp_path / "p.pvox")
        assert np.array_equal(got_idx, idx3)
        assert np.array_equal(got_tags, tags)


class TestImagesAndCalibration:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        img = rng.integers(0, 256, (9, 13, 3)).astype(np.uint8)
        formats.write_ppm(tmp_path / "i.ppm", img)
        assert np.array_equal(formats.read_ppm(tmp_path / "i.ppm"), img)

    def test_ppm_bad_magic(self, tmp_path):
        (tmp_path / "x.ppm").write_bytes(b"P5\n2 2\n255\n\0\0\0\0")
        with pytest.raises(BadMagicError):
            formats.read_ppm(tmp_path / "x.ppm")

    def test_calibration_round_trip_bit_exact(self, tmp_path):
        cams = [ring_camera(0.3, 640, 360, 351.75, 1.61), ring_camera(2.1, 640, 360, 351.75, 1.61)]
        formats.write_calibration(tmp_path / "c.json", cams)
        got = formats.read_calibration(tmp_path / "c.json")
        for a, b in zip(got, cams):
            assert np.array_equal(a.intrinsic, b.intrinsic)
            assert np.array_equal(a.extrinsic, b.extrinsic)
            assert (a.width, a.height) == (b.width, b.height)

    def test_mirrored_calibration_round_trip(self, tmp_path):
        import json

        cam = ring_camera(0.3, 640, 360, 351.75, 1.61)
        flipped = transform_camera(ring_camera(2.1, 640, 360, 351.75, 1.61), similarity_matrix(0.4, True, 1.05))
        path = tmp_path / "c.json"
        formats.write_calibration(path, [cam, flipped])
        payload = json.loads(path.read_text())
        assert [c.get("mirrored") for c in payload["cameras"]] == [None, True]
        got = formats.read_calibration(path)
        for a, b in zip(got, [cam, flipped]):
            assert np.array_equal(a.intrinsic, b.intrinsic)
            assert np.array_equal(a.extrinsic, b.extrinsic)
        assert [c.is_proper for c in got] == [True, False]
        # a proper extrinsic flagged as mirrored is rejected too
        payload["cameras"][0]["mirrored"] = True
        path.write_text(json.dumps(payload))
        with pytest.raises(BadConfigError):
            formats.read_calibration(path)

    def test_calibration_rejects_mirrored_extrinsic(self, tmp_path):
        cam = ring_camera(0.0, 64, 64, 32.0, 1.0)
        T = cam.extrinsic.copy()
        T[:3, :3] = np.diag([1.0, -1.0, 1.0]) @ T[:3, :3]
        path = tmp_path / "c.json"
        import json

        path.write_text(json.dumps({"cameras": [{
            "K": cam.intrinsic.reshape(-1).tolist(),
            "T": T.reshape(-1).tolist(),
            "width": 64, "height": 64,
        }]}))
        with pytest.raises(BadConfigError):
            formats.read_calibration(path)


class TestConfig:
    def test_defaults_match_reference_constants(self):
        cfg = PipelineConfig()
        assert cfg.grid.shape == (480, 360, 32)
        assert cfg.grid.r_range == (0.0, 50.0)
        assert cfg.grid.z_range == (-5.0, 3.0)
        assert cfg.image_size == (640, 360)
        assert (cfg.augment.p_instance, cfg.augment.p_height_swap, cfg.augment.p_angle_swap) == (0.4, 0.05, 0.05)
        assert cfg.augment.split_choices == (3, 4, 5)
        assert cfg.queries.l_pr == 128 and cfg.queries.l_lt == 128
        assert cfg.tokens.dim == 128

    def test_round_trip_identity(self, tmp_path):
        cfg = PipelineConfig()
        cfg.augment.rng_seed = 17
        cfg.queries.dbscan_eps = 0.35
        cfg.tokens.dim = 32
        save_config(tmp_path / "p.cfg", cfg)
        assert load_config(tmp_path / "p.cfg") == cfg

    def test_every_field_round_trips(self, tmp_path):
        from dataclasses import fields

        from cylpano.augment import AugConfig
        from cylpano.config import QueryConfig, TokenConfig
        from cylpano.synth import SceneConfig

        weights = tmp_path / "w%1.spew"  # values are literal, % included
        weights.write_bytes(b"")
        cfg = PipelineConfig(
            grid=CylGridSpec(40, 30, 8, (1.5, 30.0), (-2.5, 4.0)),
            image_size=(96, 72),
            augment=AugConfig(
                p_instance=0.3, p_height_swap=0.2, p_angle_swap=0.1, split_choices=(2, 6),
                instance_count_range=(2, 4), strategy_mode="categorical", paste_translation=1.5,
                paste_rotation=1.0, paste_scale_range=(0.9, 1.1), rotation_range=0.5, flip_prob=0.25,
                scale_range=(0.95, 1.05), rng_seed=17,
            ),
            tokens=TokenConfig(dim=32, seed=3, feat_downsample=4, bilinear=True, weights_path=str(weights)),
            queries=QueryConfig(
                l_pr=16, l_lt=8, nms_conf_thresh=0.2, nms_radius=1.5, nms_radius_unit="meters",
                nms_max_peaks=64, dbscan_eps=0.5, dbscan_min_pts=3, heatmap_mode="density", heatmap_sigma=1.5,
            ),
            synth=SceneConfig(
                rng_seed=5, n_objects=(2, 4), extent=12.0, ground_points=900, points_per_object=(50, 90),
                box_size=(0.5, 2.0), pillar_radius=(0.1, 0.4), pillar_height=(0.5, 2.5),
                wall_length=(2.0, 5.0), min_center_dist=2.5, camera_count=3, image_size=(96, 72),
                focal=70.0, cam_height=1.2, splat_radius=2, scan_id=4,
            ),
        )
        default = PipelineConfig()
        assert cfg.image_size != default.image_size
        for section in ("grid", "augment", "tokens", "queries", "synth"):
            for f in fields(getattr(cfg, section)):
                assert getattr(getattr(cfg, section), f.name) != getattr(getattr(default, section), f.name), f.name
        save_config(tmp_path / "p.cfg", cfg)
        assert load_config(tmp_path / "p.cfg") == cfg
        # an older file's [synth] image_size is ignored: [image] sets the cameras' size
        text = (tmp_path / "p.cfg").read_text().replace("[synth]\n", "[synth]\nimage_size = 5,5\n")
        (tmp_path / "p.cfg").write_text(text)
        assert load_config(tmp_path / "p.cfg") == cfg

    def test_missing_referenced_file_rejected(self, tmp_path):
        cfg = PipelineConfig()
        cfg.tokens.weights_path = "nope.spew"
        save_config(tmp_path / "p.cfg", cfg)
        with pytest.raises(BadConfigError):
            load_config(tmp_path / "p.cfg")

    def test_unreadable_config(self, tmp_path):
        with pytest.raises(BadConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_bad_value_rejected(self, tmp_path):
        save_config(tmp_path / "p.cfg", PipelineConfig())
        text = (tmp_path / "p.cfg").read_text().replace("r_bins = 480", "r_bins = lots")
        (tmp_path / "p.cfg").write_text(text)
        with pytest.raises(BadConfigError):
            load_config(tmp_path / "p.cfg")

    def test_class_table_round_trip(self, tmp_path):
        from cylpano.metrics import ClassTable

        literal = ClassTable({1: ("gro%und", "stuff"), 2: ("100%(car)s", "thing")})  # % is literal
        for table in (ClassTable.nuscenes(), ClassTable.semantic_kitti(), ClassTable.synthetic(), literal):
            table.save(tmp_path / "c.cfg")
            assert ClassTable.load(tmp_path / "c.cfg") == table

    def test_shipped_tables_have_documented_splits(self):
        from cylpano.metrics import ClassTable

        nusc = ClassTable.nuscenes()
        assert len(nusc.things) == 10 and len(nusc.stuff) == 6
        kitti = ClassTable.semantic_kitti()
        assert len(kitti.things) == 8 and len(kitti.stuff) == 11

    def test_nms_radius_meters_converts_through_radial_bin_width(self):
        from cylpano.config import QueryConfig
        from cylpano.grid import CylGridSpec

        spec = CylGridSpec(100, 36, 8, (0.0, 50.0), (-3.0, 3.0))  # 0.5 m bins
        qc = QueryConfig(nms_radius=2.0, nms_radius_unit="meters")
        assert qc.radius_in_bins(spec) == pytest.approx(4.0)
        qc_bins = QueryConfig(nms_radius=2.0, nms_radius_unit="bins")
        assert qc_bins.radius_in_bins(spec) == 2.0
        with pytest.raises(BadConfigError):
            QueryConfig(nms_radius_unit="furlongs").radius_in_bins(spec)

    def test_spe_weights_bad_shapes_rejected(self, tmp_path):
        from cylpano.formats import read_spe_params, write_spe_params
        from cylpano.grid import CylGridSpec
        from cylpano.tokens import SpeParams

        params = SpeParams.create(CylGridSpec(), dim=8, seed=0)
        path = tmp_path / "w.spew"
        write_spe_params(path, params)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        (tmp_path / "bad.spew").write_bytes(bytes(data))
        with pytest.raises(BadMagicError):
            read_spe_params(tmp_path / "bad.spew")
        (tmp_path / "short.spew").write_bytes(path.read_bytes()[:40])
        with pytest.raises(TruncatedFileError):
            read_spe_params(tmp_path / "short.spew")


def random_bits(rng, shape, dtype):
    """Arrays of arbitrary bit patterns, NaNs and infinities included for floats."""
    dtype = np.dtype(dtype)
    return rng.integers(0, 256, int(np.prod(shape)) * dtype.itemsize, dtype=np.uint8).view(dtype).reshape(shape)


class TestCodecProperties:
    """Round-trips of every binary codec on random shapes, empty ones included."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1), labeled=st.booleans())
    def test_point_cloud(self, tmp_path_factory, n, seed, labeled):
        rng = np.random.default_rng(seed)
        sem, inst = (random_bits(rng, n, "<u2"), random_bits(rng, n, "<u2")) if labeled else (None, None)
        cloud = PointCloud(rng.normal(0, 1e3, (n, 3)), random_bits(rng, n, "<f4"), sem, inst)
        path = tmp_path_factory.mktemp("plcd") / "c.plcd"
        formats.write_point_cloud(path, cloud)
        got = formats.read_point_cloud(path)
        assert got.xyz.tobytes() == cloud.xyz.tobytes()
        assert got.intensity.tobytes() == cloud.intensity.tobytes()
        zeros = np.zeros(n, np.uint16)
        assert np.array_equal(got.semantic, cloud.semantic if labeled else zeros)
        assert np.array_equal(got.instance, cloud.instance if labeled else zeros)
        assert got.xyz.flags.writeable and got.xyz.flags.c_contiguous

    @settings(max_examples=40, deadline=None)
    @given(h=st.integers(0, 20), w=st.integers(0, 20), cam=st.integers(0, 2**32 - 1),
           density=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_mask(self, tmp_path_factory, h, w, cam, density, seed):
        mask = Mask2D(cam, np.random.default_rng(seed).random((h, w)) < density)
        path = tmp_path_factory.mktemp("msk2") / "m.msk2"
        formats.write_mask(path, mask)
        got = formats.read_mask(path)
        assert got.camera_id == cam and got.bitmap.shape == (h, w)
        assert np.array_equal(got.bitmap, mask.bitmap)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    def test_provenance(self, tmp_path_factory, n, seed):
        rng = np.random.default_rng(seed)
        idx3 = rng.integers(0, 2**16, (n, 3))
        tags = random_bits(rng, n, "u1")
        path = tmp_path_factory.mktemp("pvox") / "p.pvox"
        formats.write_provenance(path, idx3, tags)
        got_idx, got_tags = formats.read_provenance(path)
        assert got_idx.dtype == np.int64 and np.array_equal(got_idx, idx3.reshape(n, 3))
        assert np.array_equal(got_tags, tags)

    @settings(max_examples=15, deadline=None)
    @given(dim=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
    def test_spe_weights(self, tmp_path_factory, dim, seed):
        from cylpano.tokens import SpeParams

        params = SpeParams.create(CylGridSpec(), dim, seed)
        path = tmp_path_factory.mktemp("spew") / "w.spew"
        formats.write_spe_params(path, params)
        got = formats.read_spe_params(path)
        assert got.dim == dim
        for name in ("coord_scales", "psi_w", "phi_w1", "phi_b1", "phi_w2", "phi_b2"):
            assert np.array_equal(getattr(got, name), getattr(params, name))

    @settings(max_examples=40, deadline=None)
    @given(shape=st.tuples(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9)),
           dim=st.integers(1, 8), share=st.floats(0, 1), seed=st.integers(0, 2**32 - 1))
    def test_tokens(self, tmp_path_factory, shape, dim, share, seed):
        rng = np.random.default_rng(seed)
        spec = CylGridSpec(*shape, (0.0, 10.0), (-1.0, 1.0))
        flat = np.flatnonzero(rng.random(spec.num_cells) < share)
        content = random_bits(rng, (len(flat), 2 * dim), "<f4")
        path = tmp_path_factory.mktemp("toks") / "t.toks"
        formats.write_tokens(path, TokenSet(spec, flat, content))
        idx3, got = formats.read_tokens(path, spec)
        assert np.array_equal(spec.flatten(idx3), flat)
        assert got.shape == (len(flat), 2 * dim) and got.tobytes() == content.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 8), n_prior=st.integers(0, 6), n_lt=st.integers(0, 6), n_sem=st.integers(0, 6),
           seed=st.integers(0, 2**32 - 1))
    def test_queries(self, tmp_path_factory, dim, n_prior, n_lt, n_sem, seed):
        rng = np.random.default_rng(seed)
        hints = [
            LocationHint(rng.normal(0, 50, 3).astype(np.float32), float(np.float32(rng.random())),
                         ("geometric", "texture")[int(rng.integers(2))])
            for _ in range(n_prior)
        ]
        qs = QuerySet(dim, random_bits(rng, (n_prior, 2 * dim), "<f4"), random_bits(rng, (n_prior, dim), "<f4"),
                      hints, random_bits(rng, (n_lt, dim), "<f4"), random_bits(rng, (n_sem, dim), "<f4"))
        path = tmp_path_factory.mktemp("qry2") / "q.qrys"
        formats.write_queries(path, qs)
        got = formats.read_queries(path)
        for name in ("prior_content", "prior_spe", "no_prior", "semantic"):
            assert getattr(got, name).tobytes() == getattr(qs, name).tobytes()
            assert getattr(got, name).shape == getattr(qs, name).shape
        assert [(h.position.tolist(), h.confidence, h.origin) for h in got.hints] == [
            (h.position.tolist(), h.confidence, h.origin) for h in hints
        ]

    def test_point_cloud_byte_layout(self, tmp_path):
        xyz = np.array([[1.5, -2.0, 3.25], [0.0, 7.0, -0.5]], np.float32)
        cloud = PointCloud(xyz, [0.25, 1.0], [3, 65535], [0, 7])
        formats.write_point_cloud(tmp_path / "c.plcd", cloud)
        expect = b"PLCD" + struct.pack("<I", 2) + b"".join(
            struct.pack("<ffffHH", *xyz[k], i, s, n) for k, (i, s, n) in enumerate([(0.25, 3, 0), (1.0, 65535, 7)])
        )
        assert (tmp_path / "c.plcd").read_bytes() == expect

    def test_provenance_byte_layout(self, tmp_path):
        formats.write_provenance(tmp_path / "p.pvox", [[1, 2, 3], [65535, 0, 40]], [1, 0])
        expect = b"PVOX" + struct.pack("<I", 2) + struct.pack("<HHHB", 1, 2, 3, 1)
        expect += struct.pack("<HHHB", 65535, 0, 40, 0)
        assert (tmp_path / "p.pvox").read_bytes() == expect

    @pytest.mark.parametrize("r", [65535, 65536])
    def test_voxel_indices_past_u16_rejected(self, tmp_path, r):
        spec = CylGridSpec(70000, 4, 2, (0.0, 70.0), (-1.0, 1.0))
        idx3 = np.array([[r, 3, 1]])
        tokens = TokenSet(spec, spec.flatten(idx3), np.ones((1, 4)))
        if r > 65535:  # would wrap to r - 65536
            with pytest.raises(ShapeMismatchError):
                formats.write_tokens(tmp_path / "t.toks", tokens)
            with pytest.raises(ShapeMismatchError):
                formats.write_provenance(tmp_path / "p.pvox", idx3, [1])
            return
        formats.write_tokens(tmp_path / "t.toks", tokens)
        assert np.array_equal(formats.read_tokens(tmp_path / "t.toks", spec)[0], idx3)
        formats.write_provenance(tmp_path / "p.pvox", idx3, [1])
        assert np.array_equal(formats.read_provenance(tmp_path / "p.pvox")[0], idx3)
