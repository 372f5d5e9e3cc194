import hashlib
import os
import struct
import tracemalloc

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
        path.write_bytes(b"PLC2" + np.asarray([5], dtype="<u4").tobytes() + b"\0" * 10)
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
        tokens = TokenSet(spec, idx.astype(np.int64), content.astype(np.float64), image_valid=np.ones(len(idx), bool))
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
        data[4 + 16 + 12 + 4] = 7  # the first origin byte, after the header and the xyz and confidence blocks
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

    def test_provenance_with_a_tag_per_index_too_many_is_not_written(self, tmp_path):
        with pytest.raises(ShapeMismatchError, match="3 source tags for 2 voxel indices"):
            formats.write_provenance(tmp_path / "p.pvox", [[1, 2, 3], [4, 5, 6]], [1, 0, 1])
        assert not (tmp_path / "p.pvox").exists()

    def test_query_set_with_a_wrong_embedding_width_is_not_built(self):
        with pytest.raises(ValueError, match="embedding row of length dim"):
            QuerySet(2, np.ones((1, 4), np.float32), np.ones((1, 3), np.float32),
                     [LocationHint([1.0, 2.0, 0.5], 0.75, "texture")], np.zeros((1, 2), np.float32),
                     np.zeros((1, 2), np.float32))

    @pytest.mark.parametrize("field", ["no_prior", "semantic"])
    def test_query_set_with_placeholder_rows_of_a_wrong_width_is_not_built(self, field):
        rows = {"no_prior": np.zeros((1, 2), np.float32), "semantic": np.zeros((1, 2), np.float32)}
        rows[field] = np.zeros((1, 3), np.float32)
        with pytest.raises(ValueError, match="rows of length dim"):
            QuerySet(2, np.ones((0, 4), np.float32), np.ones((0, 2), np.float32), [], **rows)


PPM_IMAGE = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)  # 3 wide, 2 high
PPM_GOOD_HEADERS = {
    "as-written": b"P6\n3 2\n255\n",
    "tabs": b"P6\t3\t2\t255\t",
    "crlf-between-fields": b"P6\r\n3 2\r\n255\n",
    "several-spaces": b"P6   3    2  255 ",
    "comment-line": b"P6\n# Created by GIMP\n3 2\n255\n",
    "comment-after-width": b"P6 3 # width\n2 255\n",
}
PPM_BAD_FILES = {
    "header-cut-short": (b"P6\n3 2", TruncatedFileError),
    "comment-without-line-end": (b"P6\n3 2 # no end", TruncatedFileError),
    "no-whitespace-after-maxval": (b"P6\n3 2\n255", TruncatedFileError),
    "maxval-65535": (b"P6\n3 2\n65535\n" + PPM_IMAGE.tobytes(), ShapeMismatchError),
    "payload-short": (b"P6\n3 2\n255\n" + PPM_IMAGE.tobytes()[:-1], TruncatedFileError),
    "width-not-a-number": (b"P6\nabc 2\n255\n" + PPM_IMAGE.tobytes(), TruncatedFileError),
    "negative-width": (b"P6\n-96 72\n255\n" + PPM_IMAGE.tobytes(), TruncatedFileError),
    "plus-signed-width": (b"P6\n+3 2\n255\n" + PPM_IMAGE.tobytes(), TruncatedFileError),
    "no-whitespace-after-magic": (b"P63 2\n255\n" + PPM_IMAGE.tobytes(), TruncatedFileError),
    "grayscale-magic": (b"P5\n3 2\n255\n" + PPM_IMAGE.tobytes(), BadMagicError),
}


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

    @pytest.mark.parametrize("header", sorted(PPM_GOOD_HEADERS))
    def test_ppm_header_whitespace_read_back_exactly(self, tmp_path, header):
        (tmp_path / "i.ppm").write_bytes(PPM_GOOD_HEADERS[header] + PPM_IMAGE.tobytes())
        assert np.array_equal(formats.read_ppm(tmp_path / "i.ppm"), PPM_IMAGE)

    @pytest.mark.parametrize("case", sorted(PPM_BAD_FILES))
    def test_ppm_malformed_raises_named_error(self, tmp_path, case):
        data, error = PPM_BAD_FILES[case]
        (tmp_path / "i.ppm").write_bytes(data)
        with pytest.raises(error):
            formats.read_ppm(tmp_path / "i.ppm")

    def test_ppm_that_shrinks_after_it_is_opened_is_truncated(self, tmp_path, monkeypatch):
        formats.write_ppm(tmp_path / "i.ppm", PPM_IMAGE)
        open_file = formats._open

        class Shrunk:  # reads one byte fewer than the size `fstat` reports, as if the file lost its tail
            def __init__(self, path):
                self.f = open_file(path)

            def __getattr__(self, name):
                return getattr(self.f, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def readinto(self, buf):
                return self.f.readinto(memoryview(buf).cast("B")[:-1])

        monkeypatch.setattr(formats, "_open", Shrunk)
        with pytest.raises(TruncatedFileError):
            formats.read_ppm(tmp_path / "i.ppm")

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
        assert cfg.synth.image_size == (640, 360)
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
        for table in (ClassTable.synthetic(), literal):
            formats.write_class_table(tmp_path / "c.cfg", table)
            assert formats.read_class_table(tmp_path / "c.cfg") == table

    def test_nms_radius_meters_converts_through_radial_bin_width(self, tmp_path):
        from cylpano.config import QueryConfig
        from cylpano.grid import CylGridSpec

        spec = CylGridSpec(100, 36, 8, (0.0, 50.0), (-3.0, 3.0))  # 0.5 m bins
        qc = QueryConfig(nms_radius=2.0, nms_radius_unit="meters")
        assert qc.radius_in_bins(spec) == pytest.approx(4.0)
        qc_bins = QueryConfig(nms_radius=2.0, nms_radius_unit="bins")
        assert qc_bins.radius_in_bins(spec) == 2.0
        # an unknown unit is rejected when the config is built, not when the radius is read
        with pytest.raises(ValueError):
            QueryConfig(nms_radius_unit="furlongs")
        (tmp_path / "p.cfg").write_text("[queries]\nnms_radius_unit = furlongs\n")
        with pytest.raises(BadConfigError):
            load_config(tmp_path / "p.cfg")

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


    def test_spe_weights_block_count_past_int64_is_truncated(self, tmp_path):
        from cylpano.formats import read_spe_params

        # one 2-d block of (2**32 - 1)**2 values: its count does not fit an int64
        data = b"SPEW" + struct.pack("<5I", 8, 6, 2, 2**32 - 1, 2**32 - 1) + bytes(64)
        (tmp_path / "big.spew").write_bytes(data)
        with pytest.raises(TruncatedFileError):
            read_spe_params(tmp_path / "big.spew")

    @pytest.mark.parametrize("read, header", [
        (formats.read_point_cloud, b"PLC2" + struct.pack("<I", 2**32 - 1)),
        (formats.read_provenance, b"PVX2" + struct.pack("<I", 2**32 - 1)),
        (lambda p: formats.read_tokens(p, CylGridSpec()), b"TOK2" + struct.pack("<2I", 2**32 - 1, 128)),
        (formats.read_queries, b"QRY3" + struct.pack("<4I", 2**32 - 1, 0, 0, 128)),
        (formats.read_mask, b"MSK2" + struct.pack("<4I", 0, 4, 4, 2**32 - 1)),
    ], ids=["plcd", "pvox", "toks", "qry2", "msk2"])
    def test_record_count_past_file_size_is_truncated_before_allocating(self, tmp_path, read, header):
        path = tmp_path / "big.bin"
        path.write_bytes(header + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedFileError):
                read(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


    @pytest.mark.parametrize("section", [None, "augment", "tokens", "queries", "synth"])
    @pytest.mark.parametrize("name", ["version", "rng_sed"])
    def test_an_unknown_attribute_is_rejected(self, section, name):
        cfg = PipelineConfig()
        obj = cfg if section is None else getattr(cfg, section)
        with pytest.raises(AttributeError):
            setattr(obj, name, 2)
        assert not hasattr(obj, name)

class TestConfigMemo:
    """`load_config` parses a text once per directory and hands each caller its own copy."""

    def test_two_loads_are_equal_but_distinct(self, tmp_path):
        cfg = PipelineConfig()
        cfg.tokens.dim = 24
        save_config(tmp_path / "p.cfg", cfg)
        first = load_config(tmp_path / "p.cfg")
        first.synth.rng_seed = 99
        first.augment.split_choices = (7,)
        first.grid = CylGridSpec(4, 4, 4, (0.0, 1.0), (0.0, 1.0))
        second = load_config(tmp_path / "p.cfg")
        assert second == cfg and second is not first and second.synth is not first.synth

    def test_a_rewrite_of_the_same_length_gives_the_new_values(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("[tokens]\ndim = 16\n")
        assert load_config(path).tokens.dim == 16
        path.write_text("[tokens]\ndim = 32\n")
        assert load_config(path).tokens.dim == 32
        path.write_text("[tokens]\ndim = -1\n")
        for _ in range(2):
            with pytest.raises(BadConfigError):
                load_config(path)
        path.write_text("[tokens]\ndim = 16\n")
        assert load_config(path).tokens.dim == 16

    def test_a_weights_path_removed_after_a_load_raises(self, tmp_path):
        (tmp_path / "w.spew").write_bytes(b"")
        cfg = PipelineConfig()
        cfg.tokens.weights_path = "w.spew"
        save_config(tmp_path / "p.cfg", cfg)
        assert load_config(tmp_path / "p.cfg").tokens.weights_path == str(tmp_path / "w.spew")
        (tmp_path / "w.spew").unlink()
        with pytest.raises(BadConfigError, match="does not exist"):
            load_config(tmp_path / "p.cfg")

    def test_the_same_text_resolves_weights_against_each_files_directory(self, tmp_path):
        cfg = PipelineConfig()
        cfg.tokens.weights_path = "w.spew"
        for name in ("a", "b", "a"):
            (tmp_path / name).mkdir(exist_ok=True)
            (tmp_path / name / "w.spew").write_bytes(b"")
            save_config(tmp_path / name / "p.cfg", cfg)
            assert load_config(tmp_path / name / "p.cfg").tokens.weights_path == str(tmp_path / name / "w.spew")

    def test_crlf_and_lf_files_parse_alike(self, tmp_path):
        save_config(tmp_path / "p.cfg", PipelineConfig())
        text = (tmp_path / "p.cfg").read_text()
        (tmp_path / "crlf.cfg").write_bytes(text.replace("\n", "\r\n").encode())
        assert load_config(tmp_path / "crlf.cfg") == PipelineConfig()

    @pytest.mark.parametrize("load, what", [(load_config, "config"), (formats.read_class_table, "class table")])
    def test_a_file_that_is_not_utf8_is_a_bad_config(self, tmp_path, load, what):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[classes]\n1 = car,thing\xff\n")
        with pytest.raises(BadConfigError, match=f"cannot decode {what} .*bad.cfg"):
            load(path)


class TestReadMemory:
    """A reader holds its arrays, not the file and copies of it."""

    @staticmethod
    def _traced_peak(read, path) -> int:
        tracemalloc.start()
        try:
            read(path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_read_tokens_peaks_below_one_and_a_half_files(self, tmp_path):
        spec = CylGridSpec()
        flat = np.arange(20_000, dtype=np.int64) * 97
        content = np.random.default_rng(0).standard_normal((len(flat), 256)).astype(np.float32)
        path = tmp_path / "t.toks"
        formats.write_tokens(path, TokenSet(spec, flat, content))
        del content
        peak = self._traced_peak(lambda p: formats.read_tokens(p, spec), path)
        assert peak < 1.5 * path.stat().st_size

    def test_read_point_cloud_peaks_below_one_and_a_half_files(self, tmp_path):
        path = tmp_path / "c.plcd"
        formats.write_point_cloud(path, random_cloud(np.random.default_rng(1), 200_000))
        peak = self._traced_peak(formats.read_point_cloud, path)
        assert peak < 1.5 * path.stat().st_size


class TestWriteMemory:
    """A writer writes each field array's own buffer, and builds no record array."""

    def test_write_tokens_peaks_below_half_the_file(self, tmp_path):
        spec = CylGridSpec()
        flat = np.arange(20_000, dtype=np.int64) * 97
        tokens = TokenSet(spec, flat, np.random.default_rng(2).standard_normal((len(flat), 128)).astype(np.float32))
        path = tmp_path / "t.toks"
        tracemalloc.start()
        try:
            formats.write_tokens(path, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * path.stat().st_size
        idx3, content = formats.read_tokens(path, spec)
        assert np.array_equal(idx3, tokens.indices3) and np.array_equal(content, tokens.content)


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
        if not labeled:  # labels left out are zeros, in memory as on disk
            assert not cloud.semantic.any() and not cloud.instance.any()
        assert np.array_equal(got.semantic, cloud.semantic)
        assert np.array_equal(got.instance, cloud.instance)
        assert got.xyz.flags.writeable and got.xyz.flags.c_contiguous
        formats.write_point_cloud(path.with_name("again.plcd"), got)
        assert path.with_name("again.plcd").read_bytes() == path.read_bytes()

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
        expect = b"PLC2" + struct.pack("<I", 2) + struct.pack("<6f", *xyz.reshape(-1))
        expect += struct.pack("<2f", 0.25, 1.0) + struct.pack("<2H", 3, 65535) + struct.pack("<2H", 0, 7)
        assert (tmp_path / "c.plcd").read_bytes() == expect

    def test_provenance_byte_layout(self, tmp_path):
        formats.write_provenance(tmp_path / "p.pvox", [[1, 2, 3], [65535, 0, 40]], [1, 0])
        expect = b"PVX2" + struct.pack("<I", 2) + struct.pack("<6H", 1, 2, 3, 65535, 0, 40) + struct.pack("<2B", 1, 0)
        assert (tmp_path / "p.pvox").read_bytes() == expect

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_tokens_byte_layout(self, tmp_path, m):
        spec = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))
        flat = np.array([5, 77, 383])[:m]
        content = np.arange(m * 4, dtype=np.float64).reshape(m, 4) / 3.0 - 1.0
        formats.write_tokens(tmp_path / "t.toks", TokenSet(spec, flat, content))
        expect = b"TOK2" + struct.pack("<II", m, 2) + struct.pack(f"<{3 * m}H", *spec.unflatten(flat).reshape(-1))
        expect += struct.pack(f"<{4 * m}f", *content.reshape(-1))
        assert (tmp_path / "t.toks").read_bytes() == expect

    @pytest.mark.parametrize("p", [0, 2])
    def test_queries_byte_layout(self, tmp_path, p):
        hints = [LocationHint([1.5, -2.0, 0.25], 0.75, "texture"), LocationHint([3.0, 4.0, -1.0], 0.5, "geometric")]
        content = np.arange(p * 4, dtype=np.float32).reshape(p, 4) / 4
        spe = content[:, :2] - 1
        qs = QuerySet(2, content, spe, hints[:p], np.full((3, 2), 2.5, np.float32), np.full((1, 2), -0.5, np.float32))
        formats.write_queries(tmp_path / "q.qrys", qs)
        expect = b"QRY3" + struct.pack("<4I", p, 3, 1, 2)
        expect += struct.pack(f"<{3 * p}f", *[v for h in hints[:p] for v in h.position])
        expect += struct.pack(f"<{p}f", *[h.confidence for h in hints[:p]]) + bytes([1, 0][:p])
        expect += struct.pack(f"<{4 * p}f", *content.reshape(-1)) + struct.pack(f"<{2 * p}f", *spe.reshape(-1))
        expect += struct.pack("<6f", *[2.5] * 6) + struct.pack("<2f", -0.5, -0.5)
        assert (tmp_path / "q.qrys").read_bytes() == expect

    @pytest.mark.parametrize("old", [b"PLCD", b"TOKS", b"PVOX", b"QRY2", b"QRYS"])
    def test_a_file_in_an_older_record_layout_is_rejected_by_its_magic(self, tmp_path, old):
        read = {b"PLCD": formats.read_point_cloud, b"PVOX": formats.read_provenance,
                b"TOKS": lambda path: formats.read_tokens(path, CylGridSpec())}.get(old, formats.read_queries)
        path = tmp_path / "old.bin"
        path.write_bytes(old + bytes(16))  # the magic is checked before any count is read
        with pytest.raises(BadMagicError, match=f"got {old!r}"):
            read(path)

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


@st.composite
def written_artifacts(draw):
    """(writer, its arguments after the path) for every writer, drawn as `TestCodecProperties` draws its inputs."""
    from cylpano.tokens import SpeParams

    kind = draw(st.sampled_from(["point_cloud", "mask", "provenance", "spe_params", "tokens", "queries",
                                 "feature_maps", "ppm", "calibration"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "point_cloud":
        n = draw(st.integers(0, 40))
        return formats.write_point_cloud, (PointCloud(rng.normal(0, 1e3, (n, 3)), random_bits(rng, n, "<f4"),
                                                      random_bits(rng, n, "<u2"), random_bits(rng, n, "<u2")),)
    if kind == "mask":
        h, w, cam = draw(st.integers(0, 20)), draw(st.integers(0, 20)), draw(st.integers(0, 2**32 - 1))
        return formats.write_mask, (Mask2D(cam, rng.random((h, w)) < draw(st.floats(0, 1))),)
    if kind == "provenance":
        n = draw(st.integers(0, 40))
        return formats.write_provenance, (rng.integers(0, 2**16, (n, 3)), random_bits(rng, n, "u1"))
    if kind == "spe_params":
        return formats.write_spe_params, (SpeParams.create(CylGridSpec(), draw(st.integers(1, 24)), 0),)
    if kind == "tokens":
        shape, dim = draw(st.tuples(*[st.integers(1, 9)] * 3)), draw(st.integers(1, 8))
        spec = CylGridSpec(*shape, (0.0, 10.0), (-1.0, 1.0))
        flat = np.flatnonzero(rng.random(spec.num_cells) < draw(st.floats(0, 1)))
        return formats.write_tokens, (TokenSet(spec, flat, random_bits(rng, (len(flat), 2 * dim), "<f4")),)
    if kind == "queries":
        dim, n_prior, n_lt, n_sem = draw(st.integers(1, 8)), *(draw(st.integers(0, 6)) for _ in range(3))
        hints = [LocationHint(rng.normal(0, 50, 3).astype(np.float32), float(np.float32(rng.random())),
                              ("geometric", "texture")[int(rng.integers(2))]) for _ in range(n_prior)]
        return formats.write_queries, (QuerySet(
            dim, random_bits(rng, (n_prior, 2 * dim), "<f4"), random_bits(rng, (n_prior, dim), "<f4"), hints,
            random_bits(rng, (n_lt, dim), "<f4"), random_bits(rng, (n_sem, dim), "<f4")),)
    if kind == "feature_maps":
        return formats.write_feature_maps, (random_bits(rng, [draw(st.integers(0, 4)) for _ in range(4)], "<f4"),)
    if kind == "ppm":
        return formats.write_ppm, (random_bits(rng, (draw(st.integers(0, 20)), draw(st.integers(0, 20)), 3), "u1"),)
    cams = [ring_camera(float(yaw), 64, 48, 40.0, 1.5) for yaw in rng.uniform(0, 2 * np.pi, draw(st.integers(1, 3)))]
    return formats.write_calibration, (cams,)


def _never_hashed(path, key):
    raise AssertionError(f"{path} was read to be hashed")


class TestWriteDigests:
    """Each writer records the sha256 of the bytes it wrote; `file_sha256` trusts a recorded digest only
    while the file's stat key is unchanged and, once a manifest has sealed it, the file is older than the seal."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(case=written_artifacts())
    def test_the_recorded_digest_is_the_file_hash(self, tmp_path_factory, case):
        write, args = case
        path = tmp_path_factory.mktemp("digest") / "artifact"
        with pytest.MonkeyPatch.context() as monkeypatch, formats.recording() as (_, written):
            monkeypatch.setattr(formats, "_hash_file", _never_hashed)  # so the digest is the one the writer took
            write(path, *args)
        assert written == {path: hashlib.sha256(path.read_bytes()).hexdigest()}

    @staticmethod
    def _written_and_sealed(tmp_path, seal_after_ns):
        """A PLC2 file written through its writer, its digest sealed `seal_after_ns` after the file's mtime."""
        path = tmp_path / "c.plcd"
        formats.write_point_cloud(path, PointCloud(np.arange(30.0).reshape(10, 3), np.ones(10), None, None))
        manifest = tmp_path / "manifest.json"
        manifest.write_text("{}")
        seal_ns = os.stat(path).st_mtime_ns + seal_after_ns
        os.utime(manifest, ns=(seal_ns, seal_ns))
        formats.seal(manifest)
        return path

    @staticmethod
    def _flip_last_byte(path) -> bytes:
        data = bytearray(path.read_bytes())
        data[-1] ^= 1
        path.write_bytes(bytes(data))  # not through a writer: a new mtime and ctime, the same size
        return bytes(data)

    def test_a_file_older_than_its_seal_is_not_read_again(self, tmp_path, monkeypatch):
        path = self._written_and_sealed(tmp_path, 10**9)
        monkeypatch.setattr(formats, "_hash_file", _never_hashed)
        assert formats.file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_a_file_rewritten_at_the_same_size_is_hashed_again(self, tmp_path):
        path = self._written_and_sealed(tmp_path, 10**9)
        data = self._flip_last_byte(path)
        assert formats.file_sha256(path) == hashlib.sha256(data).hexdigest()

    def test_a_file_not_older_than_its_seal_is_hashed_again_under_its_recorded_key(self, tmp_path, monkeypatch):
        path = self._written_and_sealed(tmp_path, 0)  # sealed in the file's own tick
        key = formats._stat_key(path)
        data = self._flip_last_byte(path)
        monkeypatch.setattr(formats, "_stat_key", lambda p: key)  # as if the rewrite had left the key as it was
        assert formats.file_sha256(path) == hashlib.sha256(data).hexdigest()

    def test_an_unsealed_digest_is_never_trusted_written_or_read(self, tmp_path, monkeypatch):
        written, read = tmp_path / "w.plcd", tmp_path / "r.bin"
        formats.write_point_cloud(written, PointCloud(np.zeros((2, 3)), np.ones(2), None, None))
        read.write_bytes(b"written outside the codecs")
        assert formats.file_sha256(read) == hashlib.sha256(read.read_bytes()).hexdigest()  # recorded unsealed
        hashed = []
        hash_file = formats._hash_file
        monkeypatch.setattr(formats, "_hash_file", lambda p, key: hashed.append(p) or hash_file(p, key))
        formats.file_sha256(written)
        formats.file_sha256(read)
        assert hashed == [written, read]

    def test_the_memo_keeps_the_last_files_recorded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_MEMO_FILES", 3)
        monkeypatch.setattr(formats, "_DIGESTS", type(formats._DIGESTS)())
        for k in range(5):
            formats.write_mask(tmp_path / f"m{k}.msk2", Mask2D(0, np.eye(k + 1, dtype=bool)))
        assert [d.key for d in formats._DIGESTS.values()] == [formats._stat_key(tmp_path / f"m{k}.msk2")
                                                             for k in (2, 3, 4)]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
COUNT = st.integers(0, 2**64)
SIZE = st.integers(1, 2**64)
# configparser strips a value's surrounding whitespace and ends it at a newline
FILE_NAME = st.text("abcxyzABZ019._-%", min_size=1, max_size=12).filter(lambda s: s not in (".", ".."))


def ordered(elem, unique=False):
    """A pair lo <= hi, or lo < hi if `unique`."""
    return st.lists(elem, min_size=2, max_size=2, unique=unique).map(lambda v: tuple(sorted(v)))


@st.composite
def pipeline_configs(draw):
    """A legal value for every field of every section."""
    from cylpano.augment import AugConfig
    from cylpano.config import QueryConfig, TokenConfig
    from cylpano.synth import SceneConfig

    grid = CylGridSpec(draw(SIZE), draw(SIZE), draw(SIZE), draw(ordered(st.floats(0.0, 1e300), unique=True)),
                       draw(ordered(FINITE, unique=True)))
    mode = draw(st.sampled_from(["independent", "categorical"]))
    p_instance = draw(st.floats(0.0, 1.0))
    p_height = draw(st.floats(0.0, 1.0 - p_instance if mode == "categorical" else 1.0))
    p_angle = draw(st.floats(0.0, max(0.0, 1.0 - p_instance - p_height) if mode == "categorical" else 1.0))
    augment = AugConfig(
        p_instance=p_instance, p_height_swap=p_height, p_angle_swap=p_angle,
        split_choices=tuple(draw(st.lists(SIZE, min_size=1, max_size=5))),
        instance_count_range=draw(ordered(COUNT)), strategy_mode=mode, paste_translation=draw(FINITE),
        paste_rotation=draw(FINITE), paste_scale_range=draw(ordered(POSITIVE)), rotation_range=draw(FINITE),
        flip_prob=draw(st.floats(0.0, 1.0)), scale_range=draw(ordered(POSITIVE)), rng_seed=draw(COUNT),
    )
    tokens = TokenConfig(dim=draw(SIZE), seed=draw(COUNT), feat_downsample=draw(SIZE), bilinear=draw(st.booleans()))
    queries = QueryConfig(
        l_pr=draw(SIZE), l_lt=draw(COUNT), nms_conf_thresh=draw(FINITE),
        nms_radius=draw(st.floats(0.0, allow_infinity=False)),
        nms_radius_unit=draw(st.sampled_from(["bins", "meters"])), nms_max_peaks=draw(COUNT),
        dbscan_eps=draw(POSITIVE), dbscan_min_pts=draw(SIZE),
        heatmap_mode=draw(st.sampled_from(["gt_gaussian", "density"])),
        heatmap_sigma=draw(st.floats(0.0, allow_infinity=False)),
    )
    extent = draw(POSITIVE)
    synth = SceneConfig(
        rng_seed=draw(COUNT), n_objects=draw(ordered(st.integers(0, 65535))), extent=extent,
        ground_points=draw(COUNT), points_per_object=draw(ordered(COUNT)), box_size=draw(ordered(POSITIVE)),
        pillar_radius=draw(ordered(POSITIVE)), pillar_height=draw(ordered(POSITIVE)),
        wall_length=draw(ordered(POSITIVE)),
        min_center_dist=draw(st.floats(max_value=0.85 * extent, allow_infinity=False)),
        camera_count=draw(SIZE), image_size=(draw(SIZE), draw(SIZE)),
        focal=draw(POSITIVE), cam_height=draw(FINITE), splat_radius=draw(COUNT),
        scan_id=draw(st.integers(0, 255)),
    )
    return PipelineConfig(grid=grid, augment=augment, tokens=tokens, queries=queries, synth=synth)


class TestConfigProperties:
    """`load_config(save_config(cfg)) == cfg` for every legal config."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(cfg=pipeline_configs(), weights=st.none() | FILE_NAME)
    def test_every_legal_config_round_trips(self, tmp_path_factory, cfg, weights):
        path = tmp_path_factory.mktemp("cfg") / "p.cfg"
        if weights is not None:
            (path.parent / weights).write_bytes(b"")
            cfg.tokens.weights_path = str(path.parent / weights)
        save_config(path, cfg)
        assert load_config(path) == cfg

    def test_a_config_loaded_through_a_relative_path_saves_and_loads_back_equal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfgs").mkdir()
        (tmp_path / "cfgs" / "w.spew").write_bytes(b"")
        cfg = PipelineConfig()
        cfg.tokens.weights_path = "w.spew"
        save_config("cfgs/p.cfg", cfg)
        first = load_config("cfgs/p.cfg")
        save_config("cfgs/q.cfg", first)
        assert load_config("cfgs/q.cfg") == first
        assert os.path.isabs(first.tokens.weights_path)
        assert os.path.samefile(first.tokens.weights_path, tmp_path / "cfgs" / "w.spew")
