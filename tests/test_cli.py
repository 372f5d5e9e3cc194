import hashlib
import json

import numpy as np
import pytest

from cylpano import formats
from cylpano.cli import main
from cylpano.config import PipelineConfig, load_config, save_config


def small_config(tmp_path, **synth_kw):
    cfg = PipelineConfig()
    cfg.grid = type(cfg.grid)(48, 36, 8, (0.0, 30.0), (-3.0, 5.0))
    cfg.image_size = (96, 72)
    cfg.tokens.dim = 16
    cfg.tokens.feat_downsample = 4
    cfg.queries.l_pr = 16
    cfg.queries.l_lt = 16
    cfg.synth.ground_points = synth_kw.pop("ground_points", 1200)
    cfg.synth.points_per_object = synth_kw.pop("points_per_object", (150, 400))
    cfg.synth.extent = 15.0
    cfg.synth.focal = 60.0
    for key, val in synth_kw.items():
        setattr(cfg.synth, key, val)
    path = tmp_path / "pipeline.cfg"
    save_config(path, cfg)
    return str(path)


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestChain:
    def test_full_chain_on_small_scene(self, tmp_path):
        cfg = small_config(tmp_path)
        org = tmp_path / "org"
        new = tmp_path / "new"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(new)]) == 0

        vox = tmp_path / "vox"
        assert main(["voxelize", "--config", cfg, "--cloud", str(org / "cloud.plcd"), "--out", str(vox)]) == 0
        summary = json.loads((vox / "summary.json").read_text())
        assert summary["occupied_voxels"] > 0

        aug = tmp_path / "aug"
        assert main([
            "augment", "--config", cfg, "--seed", "3",
            "--org", str(org), "--new", str(new), "--out", str(aug),
        ]) == 0
        assert (aug / "provenance.pvox").exists()

        fuse = tmp_path / "fuse"
        assert main(["fuse", "--config", cfg, "--sample", str(aug), "--out", str(fuse)]) == 0

        qrs = tmp_path / "queries"
        assert main([
            "queries", "--config", cfg, "--sample", str(aug),
            "--tokens", str(fuse / "tokens.toks"), "--masks", str(org / "masks"),
            "--classes", str(org / "classes.cfg"), "--out", str(qrs),
        ]) == 0
        qs = formats.read_queries(qrs / "queries.qrys")
        assert qs.no_prior.shape == (16, 16)

        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pred", str(aug / "cloud.plcd"), "--gt", str(aug / "cloud.plcd"),
            "--classes", str(org / "classes.cfg"), "--report", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        assert report["aggregates"]["pq"] == 1.0

        overlay = tmp_path / "overlay"
        assert main(["render-overlay", "--sample", str(org), "--out", str(overlay)]) == 0
        assert sorted(overlay.glob("overlay*.ppm"))

    def test_chain_after_flip_rotation_and_scale(self, tmp_path):
        cfg = small_config(tmp_path)
        loaded = load_config(cfg)
        loaded.augment.rotation_range = 0.5
        loaded.augment.flip_prob = 1.0
        loaded.augment.scale_range = (0.9, 1.1)
        save_config(cfg, loaded)
        org, new, aug = tmp_path / "org", tmp_path / "new", tmp_path / "aug"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(new)]) == 0
        assert main([
            "augment", "--config", cfg, "--seed", "3",
            "--org", str(org), "--new", str(new), "--out", str(aug),
        ]) == 0
        cams = json.loads((aug / "calib.json").read_text())["cameras"]
        assert [c.get("mirrored") for c in cams] == [True] * len(cams)
        fuse = tmp_path / "fuse"
        assert main(["fuse", "--config", cfg, "--sample", str(aug), "--out", str(fuse)]) == 0
        assert main([
            "queries", "--config", cfg, "--sample", str(aug),
            "--tokens", str(fuse / "tokens.toks"), "--masks", str(org / "masks"),
            "--classes", str(org / "classes.cfg"), "--out", str(tmp_path / "queries"),
        ]) == 0
        report_path = tmp_path / "report.json"
        assert main([
            "eval", "--pred", str(aug / "cloud.plcd"), "--gt", str(aug / "cloud.plcd"),
            "--classes", str(org / "classes.cfg"), "--report", str(report_path),
        ]) == 0
        assert json.loads(report_path.read_text())["aggregates"]["pq"] == 1.0

    def test_chain_on_empty_scan(self, tmp_path):
        cfg = small_config(tmp_path, ground_points=0, n_objects=(0, 0))
        org, new, aug, fuse, qrs = (tmp_path / d for d in ("org", "new", "aug", "fuse", "queries"))
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(new)]) == 0
        assert len(formats.read_point_cloud(org / "cloud.plcd")) == 0
        assert main([
            "augment", "--config", cfg, "--seed", "3",
            "--org", str(org), "--new", str(new), "--out", str(aug),
        ]) == 0
        assert main(["fuse", "--config", cfg, "--sample", str(aug), "--out", str(fuse)]) == 0
        assert main([
            "queries", "--config", cfg, "--sample", str(aug),
            "--tokens", str(fuse / "tokens.toks"), "--masks", str(org / "masks"),
            "--classes", str(org / "classes.cfg"), "--out", str(qrs),
        ]) == 0
        assert formats.read_queries(qrs / "queries.qrys").num_prior == 0
        assert main([
            "eval", "--pred", str(aug / "cloud.plcd"), "--gt", str(aug / "cloud.plcd"),
            "--classes", str(org / "classes.cfg"), "--report", str(tmp_path / "report.json"),
        ]) == 0

    def test_queries_embed_only_prior_voxels(self, tmp_path, monkeypatch):
        import cylpano.tokens

        cfg = small_config(tmp_path)
        org, fuse, qrs = tmp_path / "org", tmp_path / "fuse", tmp_path / "queries"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        embedded = []
        orig = cylpano.tokens.position_encoding

        def counting(centers, params):
            embedded.append(len(centers))
            return orig(centers, params)

        monkeypatch.setattr(cylpano.tokens, "position_encoding", counting)
        assert main([
            "queries", "--config", cfg, "--sample", str(org), "--tokens", str(fuse / "tokens.toks"),
            "--masks", str(org / "masks"), "--out", str(qrs),
        ]) == 0
        qs = formats.read_queries(qrs / "queries.qrys")
        idx3, _ = formats.read_tokens(fuse / "tokens.toks", load_config(cfg).grid)
        assert 0 < qs.num_prior < len(idx3)
        assert sum(embedded) <= qs.num_prior

    def test_weights_path_is_relative_to_config(self, tmp_path, monkeypatch):
        from cylpano.tokens import SpeParams

        cfg = small_config(tmp_path)
        loaded = load_config(cfg)
        formats.write_spe_params(tmp_path / "w.spew", SpeParams.create(loaded.grid, loaded.tokens.dim, seed=5))
        loaded.tokens.weights_path = "w.spew"
        save_config(cfg, loaded)
        org = tmp_path / "org"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        monkeypatch.chdir(tmp_path)
        assert main(["fuse", "--config", "pipeline.cfg", "--sample", "org", "--out", "fuse-here"]) == 0
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", "fuse-there"]) == 0
        assert sha(elsewhere / "fuse-there" / "tokens.toks") == sha(tmp_path / "fuse-here" / "tokens.toks")

    def test_queries_manifest_counts_hints(self, tmp_path):
        cfg = small_config(tmp_path)
        org = tmp_path / "org"
        main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)])
        fuse = tmp_path / "fuse"
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        qrs = tmp_path / "queries"
        assert main([
            "queries", "--config", cfg, "--sample", str(org), "--tokens", str(fuse / "tokens.toks"),
            "--masks", str(org / "masks"), "--out", str(qrs),
        ]) == 0
        manifest = json.loads((qrs / "manifest.json").read_text())
        counters = manifest["counters"]
        assert set(manifest["timings"]) == {"queries"}
        qs = formats.read_queries(qrs / "queries.qrys")
        kept = [h.origin for h in qs.hints]
        assert counters["prior_queries"] == qs.num_prior > 0
        assert counters["hints_geometric"] >= kept.count("geometric") > 0
        assert counters["hints_texture"] >= kept.count("texture")
        assert counters["hints_texture"] > 0
        assert 0 < counters["prior_fallback"] <= qs.num_prior
        assert set(json.loads((fuse / "manifest.json").read_text())["counters"]) == {
            "points_in", "points_dropped", "occupied_voxels", "image_valid_voxels"}

    def test_fuse_manifest_counts_points_and_voxels(self, tmp_path):
        from cylpano.grid import voxelize
        from cylpano.tokens import FeatureMap, SpeParams, VoxelFeatures, build_tokens

        cfg = small_config(tmp_path, extent=40.0)  # past the grid's 30 m, so some points drop
        org = tmp_path / "org"
        assert main(["synth", "--config", cfg, "--seed", "4", "--out", str(org)]) == 0
        fuse = tmp_path / "fuse"
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        counters = json.loads((fuse / "manifest.json").read_text())["counters"]

        loaded = load_config(cfg)
        cloud = formats.read_point_cloud(org / "cloud.plcd")
        cams = formats.read_calibration(org / "calib.json")
        grid = voxelize(cloud, loaded.grid)
        # what the stage saw: every voxel and point dropped by voxelize, and the seen voxels
        dim = loaded.tokens.dim
        fmaps = [FeatureMap(np.ones((4, 4, dim)), c.width, c.height) for c in cams]
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels, dim))),
                              fmaps, cams, SpeParams.create(loaded.grid, dim, loaded.tokens.seed))
        assert counters == {
            "points_in": len(cloud),
            "points_dropped": len(grid.dropped),
            "occupied_voxels": grid.num_voxels,
            "image_valid_voxels": int(tokens.image_valid.sum()),
        }
        assert 0 < counters["image_valid_voxels"] < counters["occupied_voxels"]
        assert counters["points_dropped"] > 0

    def test_eval_pred_equals_gt_scores_one(self, tmp_path):
        cfg = small_config(tmp_path)
        org = tmp_path / "org"
        main(["synth", "--config", cfg, "--seed", "9", "--out", str(org)])
        report_path = tmp_path / "r.json"
        assert main([
            "eval", "--pred", str(org / "cloud.plcd"), "--gt", str(org / "cloud.plcd"),
            "--classes", str(org / "classes.cfg"), "--report", str(report_path),
        ]) == 0
        agg = json.loads(report_path.read_text())["aggregates"]
        assert agg["pq"] == 1.0 and agg["rq"] == 1.0 and agg["sq"] == 1.0

    def test_augment_noop_preserves_cloud_bytes(self, tmp_path):
        cfg_obj = PipelineConfig()
        cfg_obj.grid = type(cfg_obj.grid)(48, 36, 8, (0.0, 30.0), (-3.0, 5.0))
        cfg_obj.image_size = (96, 72)
        cfg_obj.synth.ground_points = 800
        cfg_obj.synth.extent = 15.0
        cfg_obj.synth.focal = 60.0
        cfg_obj.augment.p_instance = 0.0
        cfg_obj.augment.p_height_swap = 0.0
        cfg_obj.augment.p_angle_swap = 0.0
        cfg_obj.augment.rotation_range = 0.0
        cfg_obj.augment.flip_prob = 0.0
        cfg_obj.augment.scale_range = (1.0, 1.0)
        cfg_path = tmp_path / "noop.cfg"
        save_config(cfg_path, cfg_obj)
        org = tmp_path / "org"
        new = tmp_path / "new"
        main(["synth", "--config", str(cfg_path), "--seed", "4", "--out", str(org)])
        main(["synth", "--config", str(cfg_path), "--seed", "5", "--out", str(new)])
        aug = tmp_path / "aug"
        main(["augment", "--config", str(cfg_path), "--seed", "6",
              "--org", str(org), "--new", str(new), "--out", str(aug)])
        assert sha(aug / "cloud.plcd") == sha(org / "cloud.plcd")
        for img in sorted((org / "images").glob("*.ppm")):
            assert sha(aug / "images" / img.name) == sha(img)

    @pytest.mark.parametrize("probs", [(0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    def test_augment_manifest_counts_strategies_and_swapped_pixels(self, tmp_path, probs):
        from cylpano.augment import augment
        from cylpano.cli import _load_sample

        cfg_obj = load_config(small_config(tmp_path))
        cfg_obj.augment.p_instance, cfg_obj.augment.p_height_swap, cfg_obj.augment.p_angle_swap = probs
        cfg_path = tmp_path / "aug.cfg"
        save_config(cfg_path, cfg_obj)
        org, new, aug = tmp_path / "org", tmp_path / "new", tmp_path / "aug"
        main(["synth", "--config", str(cfg_path), "--seed", "2", "--out", str(org)])
        main(["synth", "--config", str(cfg_path), "--seed", "3", "--out", str(new)])
        assert main(["augment", "--config", str(cfg_path), "--seed", "8",
                     "--org", str(org), "--new", str(new), "--out", str(aug)]) == 0
        counters = json.loads((aug / "manifest.json").read_text())["counters"]

        cfg_obj.augment.rng_seed = 8
        result = augment(_load_sample(org), _load_sample(new), cfg_obj.grid, cfg_obj.augment)
        names = ("instance", "height", "angle")
        assert counters["strategies"] == [n for n, p in zip(names, probs) if p == 1.0]
        assert counters["strategies"] == [n for n in names if result.applied[n]]
        swapped = []
        for cam_id, img in enumerate(result.sample.images):
            painted = np.zeros(img.shape[:2], dtype=bool)
            for u0, v0, u1, v1 in result.swapped_rects.get(cam_id, []):
                painted[v0:v1 + 1, u0:u1 + 1] = True
            swapped.append(int(painted.sum()))
        assert counters["pixels_swapped"] == swapped
        assert (sum(swapped) > 0) == any(probs)

    def test_fuse_accepts_injected_feature_maps(self, tmp_path):
        import numpy as np

        from cylpano.config import load_config

        cfg = small_config(tmp_path)
        org = tmp_path / "org"
        main(["synth", "--config", cfg, "--seed", "11", "--out", str(org)])
        loaded = load_config(cfg)
        k = loaded.synth.camera_count
        w, h = loaded.image_size
        maps = np.random.default_rng(0).standard_normal((k, h // 4, w // 4, loaded.tokens.dim))
        formats.write_feature_maps(tmp_path / "ext.fmap", maps.astype(np.float32))
        out = tmp_path / "fuse-ext"
        assert main(["fuse", "--config", cfg, "--sample", str(org),
                     "--features", str(tmp_path / "ext.fmap"), "--out", str(out)]) == 0
        assert (out / "tokens.toks").exists()
        # wrong camera count must be rejected with a named error
        bad = maps[:1]
        formats.write_feature_maps(tmp_path / "bad.fmap", bad.astype(np.float32))
        assert main(["fuse", "--config", cfg, "--sample", str(org),
                     "--features", str(tmp_path / "bad.fmap"), "--out", str(out)]) == 1

    def test_manifest_replay_reproduces_artifacts(self, tmp_path):
        cfg = small_config(tmp_path)
        org = tmp_path / "org"
        main(["synth", "--config", cfg, "--seed", "8", "--out", str(org)])
        replayed = tmp_path / "replayed"
        assert main(["replay", "--manifest", str(org / "manifest.json"), "--out", str(replayed)]) == 0
        manifest_a = json.loads((org / "manifest.json").read_text())
        manifest_b = json.loads((replayed / "manifest.json").read_text())
        assert manifest_a["outputs"] == manifest_b["outputs"]


class TestErrors:
    def test_missing_cloud_reports_io_error(self, tmp_path, capsys):
        assert main(["voxelize", "--cloud", str(tmp_path / "nope.plcd"), "--out", str(tmp_path / "o")]) == 1
        assert "IoError" in capsys.readouterr().err

    def test_bad_magic_reports_error_name(self, tmp_path, capsys):
        bad = tmp_path / "bad.plcd"
        bad.write_bytes(b"NOPE" + b"\0" * 8)
        assert main(["voxelize", "--cloud", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "BadMagicError" in capsys.readouterr().err

    def test_bad_config_reports_error_name(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("[grid]\nr_bins = -4\n")
        assert main(["synth", "--config", str(cfg), "--seed", "0", "--out", str(tmp_path / "o")]) == 1
        assert "BadConfigError" in capsys.readouterr().err

    def test_queries_token_dim_mismatch_reports_error_name(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        org, fuse = tmp_path / "org", tmp_path / "fuse"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        loaded = load_config(cfg)
        loaded.tokens.dim = 8
        save_config(cfg, loaded)
        capsys.readouterr()
        assert main([
            "queries", "--config", cfg, "--sample", str(org), "--tokens", str(fuse / "tokens.toks"),
            "--out", str(tmp_path / "queries"),
        ]) == 1
        assert "ShapeMismatchError" in capsys.readouterr().err

    def test_unknown_command_exits_with_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_init_config_writes_loadable_defaults(self, tmp_path):
        from cylpano.config import load_config

        out = tmp_path / "default.cfg"
        assert main(["init-config", "--out", str(out)]) == 0
        assert load_config(out) == PipelineConfig()


def test_loaded_weights_take_the_configured_seed(tmp_path):
    from cylpano.tokens import SpeParams

    cfg_plain = small_config(tmp_path)
    loaded = load_config(cfg_plain)
    loaded.tokens.seed = 7
    save_config(cfg_plain, loaded)
    formats.write_spe_params(tmp_path / "w7.spew", SpeParams.create(loaded.grid, loaded.tokens.dim, seed=7))
    loaded.tokens.weights_path = "w7.spew"
    cfg_weights = str(tmp_path / "weights.cfg")
    save_config(cfg_weights, loaded)
    org = tmp_path / "org"
    assert main(["synth", "--config", cfg_plain, "--seed", "1", "--out", str(org)]) == 0
    for tag, cfg in (("plain", cfg_plain), ("weights", cfg_weights)):
        fuse = tmp_path / f"fuse-{tag}"
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        assert main([
            "queries", "--config", cfg, "--sample", str(org), "--tokens", str(fuse / "tokens.toks"),
            "--masks", str(org / "masks"), "--out", str(tmp_path / f"queries-{tag}"),
        ]) == 0
    assert sha(tmp_path / "fuse-plain" / "tokens.toks") == sha(tmp_path / "fuse-weights" / "tokens.toks")
    assert sha(tmp_path / "queries-plain" / "queries.qrys") == sha(tmp_path / "queries-weights" / "queries.qrys")


@pytest.fixture(scope="module")
def fused_scene(tmp_path_factory):
    """A synthesized sample and its tokens, shared by the malformed-input cases."""
    base = tmp_path_factory.mktemp("fused")
    cfg = small_config(base)
    assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(base / "org")]) == 0
    assert main(["fuse", "--config", cfg, "--sample", str(base / "org"), "--out", str(base / "fuse")]) == 0
    return base, cfg


def _config_case(text):
    def case(base, cfg, tmp):
        (tmp / "bad.cfg").write_text(text)
        return ["synth", "--config", str(tmp / "bad.cfg"), "--seed", "0", "--out", str(tmp / "o")]
    return case


def _classes_case(text):
    def case(base, cfg, tmp):
        (tmp / "classes.cfg").write_text(text)
        cloud = str(base / "org" / "cloud.plcd")
        return ["eval", "--pred", cloud, "--gt", cloud, "--classes", str(tmp / "classes.cfg"),
                "--report", str(tmp / "r.json")]
    return case


def _calibration_case(edit):
    def case(base, cfg, tmp):
        import shutil

        shutil.copytree(base / "org", tmp / "sample")
        calib = tmp / "sample" / "calib.json"
        calib.write_text(json.dumps(edit(json.loads(calib.read_text()))))
        return ["fuse", "--config", cfg, "--sample", str(tmp / "sample"), "--out", str(tmp / "o")]
    return case


def _mask_case(camera_id, shape):
    def case(base, cfg, tmp):
        from cylpano.queries import Mask2D

        (tmp / "masks").mkdir()
        formats.write_mask(tmp / "masks" / "m.msk2", Mask2D(camera_id, np.ones(shape, bool)))
        return ["queries", "--config", cfg, "--sample", str(base / "org"), "--tokens",
                str(base / "fuse" / "tokens.toks"), "--masks", str(tmp / "masks"), "--out", str(tmp / "o")]
    return case


def _non_finite_cloud_case(base, cfg, tmp):
    data = bytearray((base / "org" / "cloud.plcd").read_bytes())
    data[8:12] = np.float32(np.nan).tobytes()  # the first x, after the magic and the count
    (tmp / "nan.plcd").write_bytes(bytes(data))
    return ["voxelize", "--config", cfg, "--cloud", str(tmp / "nan.plcd"), "--out", str(tmp / "o")]


def _replay_case(base, cfg, tmp):
    (tmp / "manifest.json").write_text("{not json")
    return ["replay", "--manifest", str(tmp / "manifest.json"), "--out", str(tmp / "o")]


def _null_width(calib):
    calib["cameras"][0]["width"] = None
    return calib


MALFORMED = {
    "config-no-section-header": (_config_case("r_bins = 4\n"), "BadConfigError"),
    "config-duplicate-key": (_config_case("[grid]\nr_bins = 4\nr_bins = 5\n"), "BadConfigError"),
    "config-percent-in-missing-weights-path": (_config_case("[tokens]\nweights_path = a%b\n"), "BadConfigError"),
    "classes-no-section-header": (_classes_case("1 = car,thing\n"), "BadConfigError"),
    "classes-duplicate-key": (_classes_case("[classes]\n1 = car,thing\n1 = bus,thing\n"), "BadConfigError"),
    "calibration-top-level-list": (_calibration_case(lambda c: c["cameras"]), "BadConfigError"),
    "calibration-camera-not-object": (_calibration_case(lambda c: {"cameras": [1]}), "BadConfigError"),
    "calibration-null-width": (_calibration_case(_null_width), "BadConfigError"),
    "mask-camera-outside-rig": (_mask_case(5, (72, 96)), "ShapeMismatchError"),
    "mask-size-not-camera-size": (_mask_case(0, (7, 9)), "ShapeMismatchError"),
    "cloud-non-finite-coordinate": (_non_finite_cloud_case, "ShapeMismatchError"),
    "replay-manifest-not-json": (_replay_case, "BadConfigError"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exits_1_with_error_name(fused_scene, tmp_path, capsys, name):
    case, error = MALFORMED[name]
    argv = case(*fused_scene, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"{error}: ")
    assert "Traceback" not in err
