import argparse
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cylpano import cli, formats
from cylpano.cli import build_parser, main
from cylpano.config import PipelineConfig, QueryConfig, load_config, save_config
from cylpano.synth import ring_camera


def small_config(tmp_path, **synth_kw):
    cfg = PipelineConfig()
    cfg.grid = type(cfg.grid)(48, 36, 8, (0.0, 30.0), (-3.0, 5.0))
    cfg.synth.image_size = (96, 72)
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


def _chain(cfg, out):
    """The command lines of synth x2 -> voxelize -> augment -> fuse -> queries, all under `out`."""
    org, new, aug, fuse = (str(out / d) for d in ("org", "new", "aug", "fuse"))
    return [
        ["synth", "--config", cfg, "--seed", "1", "--out", org],
        ["synth", "--config", cfg, "--seed", "2", "--out", new],
        ["voxelize", "--config", cfg, "--cloud", org + "/cloud.plcd", "--out", str(out / "vox")],
        ["augment", "--config", cfg, "--seed", "3", "--org", org, "--new", new, "--out", aug],
        ["fuse", "--config", cfg, "--sample", aug, "--out", fuse],
        ["queries", "--config", cfg, "--sample", aug, "--tokens", fuse + "/tokens.toks",
         "--masks", org + "/masks", "--out", str(out / "queries")],
    ]


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

    @pytest.mark.parametrize("section, key, value", [
        ("tokens", "bilinear", True),
        ("queries", "heatmap_mode", "density"),
        ("augment", "strategy_mode", "categorical"),
        ("queries", "nms_radius_unit", "meters"),
        ("augment", "flip_prob", 1.0),
    ])
    def test_chain_under_non_default_option(self, tmp_path, section, key, value):
        """Each stage loads the artifacts of the one before, and fuse and queries replay byte for byte."""
        cfg = small_config(tmp_path)
        loaded = load_config(cfg)
        setattr(getattr(loaded, section), key, value)
        save_config(cfg, loaded)
        org, new, aug, fuse, qrs = (tmp_path / d for d in ("org", "new", "aug", "fuse", "queries"))
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(new)]) == 0
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
        assert main([
            "eval", "--pred", str(aug / "cloud.plcd"), "--gt", str(aug / "cloud.plcd"),
            "--classes", str(org / "classes.cfg"), "--report", str(tmp_path / "report.json"),
        ]) == 0
        for stage in (fuse, qrs):
            replayed = tmp_path / f"replayed-{stage.name}"
            assert main(["replay", "--manifest", str(stage / "manifest.json"), "--out", str(replayed)]) == 0
            outputs = [json.loads((d / "manifest.json").read_text())["outputs"] for d in (stage, replayed)]
            assert outputs[0] and outputs[0] == outputs[1]

    def test_queries_embed_only_prior_voxels(self, tmp_path, monkeypatch):
        import cylpano.queries

        cfg = small_config(tmp_path)
        org, fuse, qrs = tmp_path / "org", tmp_path / "fuse", tmp_path / "queries"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        embedded = []
        orig = cylpano.queries.spe_batch

        def counting(idx3, spec, params):
            embedded.append(len(idx3))
            return orig(idx3, spec, params)

        monkeypatch.setattr(cylpano.queries, "spe_batch", counting)
        assert main([
            "queries", "--config", cfg, "--sample", str(org), "--tokens", str(fuse / "tokens.toks"),
            "--masks", str(org / "masks"), "--out", str(qrs),
        ]) == 0
        qs = formats.read_queries(qrs / "queries.qrys")
        idx3, _ = formats.read_tokens(fuse / "tokens.toks", load_config(cfg).grid)
        assert 0 < qs.num_prior < len(idx3)
        assert sum(embedded) == qs.num_prior

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
        cfg_obj.synth.image_size = (96, 72)
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
        w, h = loaded.synth.image_size
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

    def test_synth_replay_reproduces_every_artifact_kind(self, tmp_path):
        cfg = small_config(tmp_path, splat_radius=2, camera_count=3, n_objects=(6, 8))
        org, replayed = tmp_path / "org", tmp_path / "replayed"
        assert main(["synth", "--config", cfg, "--seed", "4", "--out", str(org)]) == 0
        assert main(["replay", "--manifest", str(org / "manifest.json"), "--out", str(replayed)]) == 0
        outputs = [json.loads((d / "manifest.json").read_text())["outputs"] for d in (org, replayed)]
        assert outputs[0] == outputs[1]
        assert {"cloud.plcd", "calib.json", "classes.cfg", "images/cam02.ppm"} <= outputs[0].keys()
        assert any(name.startswith("masks/") and name.endswith(".msk2") for name in outputs[0])


    def test_manifest_lists_only_the_files_its_stage_wrote(self, tmp_path):
        cfg = small_config(tmp_path)
        org, vox, fuse = tmp_path / "org", tmp_path / "vox", tmp_path / "fuse"
        for d in (org, vox, fuse):
            (d / "old").mkdir(parents=True)
            (d / "stale.bin").write_bytes(b"left by an earlier run")
            (d / "old" / "tokens.toks").write_bytes(b"TOK2")
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["voxelize", "--config", cfg, "--cloud", str(org / "cloud.plcd"), "--out", str(vox)]) == 0
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        outputs = {d.name: json.loads((d / "manifest.json").read_text())["outputs"] for d in (org, vox, fuse)}
        assert outputs["fuse"].keys() == {"tokens.toks"}
        assert outputs["vox"].keys() == {"voxels.pvox", "summary.json"}
        assert {"cloud.plcd", "calib.json", "classes.cfg", "images/cam00.ppm"} <= outputs["org"].keys()
        assert not {"stale.bin", "old/tokens.toks"} & outputs["org"].keys()
        assert outputs["fuse"]["tokens.toks"] == sha(fuse / "tokens.toks")

class TestErrors:
    def test_missing_cloud_reports_io_error(self, tmp_path, capsys):
        assert main(["voxelize", "--cloud", str(tmp_path / "nope.plcd"), "--out", str(tmp_path / "o")]) == 1
        assert "IoError" in capsys.readouterr().err

    def test_bad_magic_reports_error_name(self, tmp_path, capsys):
        bad = tmp_path / "bad.plcd"
        bad.write_bytes(b"NOPE" + b"\0" * 8)
        assert main(["voxelize", "--cloud", str(bad), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "BadMagicError" in err
        assert "b'NOPE'" in err  # the magic's bytes, not the repr of a view over them

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
    """`cylpano eval --classes` on a class table file holding `text`, or on no file if `text` is None."""
    def case(base, cfg, tmp):
        if text is not None:
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
        edited = edit(json.loads(calib.read_text()))
        calib.write_text(edited if isinstance(edited, str) else json.dumps(edited))  # a str is written as it is
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


def _fmap_case(h, w, extra_dim=0):
    """`cylpano fuse --features` on FMAP feature maps of h x w cells and `extra_dim` more than [tokens] dim."""
    def case(base, cfg, tmp):
        loaded = load_config(cfg)
        formats.write_feature_maps(
            tmp / "e.fmap", np.zeros((loaded.synth.camera_count, h, w, loaded.tokens.dim + extra_dim)))
        return ["fuse", "--config", cfg, "--sample", str(base / "org"), "--features", str(tmp / "e.fmap"),
                "--out", str(tmp / "o")]
    return case


def _unknown_class_id_case(base, cfg, tmp):
    cloud = formats.read_point_cloud(base / "org" / "cloud.plcd")
    cloud.semantic[0] = 9  # the synthetic class table holds ids 0-4
    formats.write_point_cloud(tmp / "pred.plcd", cloud)
    return ["eval", "--pred", str(tmp / "pred.plcd"), "--gt", str(base / "org" / "cloud.plcd"),
            "--classes", str(base / "org" / "classes.cfg"), "--report", str(tmp / "r.json")]


def _replay_case(base, cfg, tmp):
    (tmp / "manifest.json").write_text("{not json")
    return ["replay", "--manifest", str(tmp / "manifest.json"), "--out", str(tmp / "o")]


def _instance_overflow_case(base, cfg, tmp):
    import shutil

    shutil.copytree(base / "org", tmp / "org")
    cloud = formats.read_point_cloud(tmp / "org" / "cloud.plcd")
    cloud.instance[:] = 65535  # the original scan already holds the largest u16 id
    formats.write_point_cloud(tmp / "org" / "cloud.plcd", cloud)
    swap = load_config(cfg)
    swap.augment.p_height_swap = 1.0  # always mix in the new scan's labeled points
    save_config(tmp / "swap.cfg", swap)
    return ["augment", "--config", str(tmp / "swap.cfg"), "--org", str(tmp / "org"), "--new", str(base / "org"),
            "--seed", "0", "--out", str(tmp / "o")]


def _augment_config_case(key, value):
    """`cylpano augment` with every strategy on and one [augment] value malformed."""
    def case(base, cfg, tmp):
        bad = load_config(cfg)
        bad.augment.p_instance = bad.augment.p_height_swap = bad.augment.p_angle_swap = 1.0
        setattr(bad.augment, key, value)  # set after construction, so save_config writes it unchecked
        save_config(tmp / "bad.cfg", bad)
        return ["augment", "--config", str(tmp / "bad.cfg"), "--org", str(base / "org"), "--new", str(base / "org"),
                "--seed", "1", "--out", str(tmp / "o")]
    return case


def _seed_case(command, seed):
    """`cylpano synth` or `augment` with a negative --seed."""
    def case(base, cfg, tmp):
        pair = ["--org", str(base / "org"), "--new", str(base / "org")] if command == "augment" else []
        return [command, "--config", cfg, *pair, "--seed", seed, "--out", str(tmp / "o")]
    return case


def _negative_token_seed_case(base, cfg, tmp):
    bad = load_config(cfg)
    bad.tokens.seed = -1  # set after construction, so save_config writes it unchecked
    save_config(tmp / "bad.cfg", bad)
    return ["fuse", "--config", str(tmp / "bad.cfg"), "--sample", str(base / "org"), "--out", str(tmp / "o")]


def _spew_case(block, value):
    """`cylpano fuse` with SPEW weights whose one block is malformed."""
    def case(base, cfg, tmp):
        from cylpano.tokens import SpeParams

        weighted = load_config(cfg)
        params = SpeParams.create(weighted.grid, weighted.tokens.dim, weighted.tokens.seed)
        setattr(params, block, value(getattr(params, block)))  # set after construction, so it is written unchecked
        formats.write_spe_params(tmp / "w.spew", params)
        weighted.tokens.weights_path = "w.spew"
        save_config(tmp / "weights.cfg", weighted)
        return ["fuse", "--config", str(tmp / "weights.cfg"), "--sample", str(base / "org"), "--out", str(tmp / "o")]
    return case


def _spew_five_blocks_case(base, cfg, tmp):
    from cylpano.tokens import SpeParams

    weighted = load_config(cfg)
    params = SpeParams.create(weighted.grid, weighted.tokens.dim, weighted.tokens.seed)
    arrays = [params.coord_scales, params.psi_w, params.phi_w1, params.phi_b1, params.phi_w2]  # no phi_b2
    blocks = [np.asarray([a.ndim, *a.shape], "<u4").tobytes() + np.asarray(a, "<f8").tobytes() for a in arrays]
    (tmp / "w.spew").write_bytes(b"SPEW" + np.asarray([params.dim, len(arrays)], "<u4").tobytes() + b"".join(blocks))
    weighted.tokens.weights_path = "w.spew"
    save_config(tmp / "weights.cfg", weighted)
    return ["fuse", "--config", str(tmp / "weights.cfg"), "--sample", str(base / "org"), "--out", str(tmp / "o")]


def _tokens_of_another_sample_case(base, cfg, tmp):
    assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(tmp / "other")]) == 0
    assert main(["fuse", "--config", cfg, "--sample", str(tmp / "other"), "--out", str(tmp / "fuse")]) == 0
    return ["queries", "--config", cfg, "--sample", str(base / "org"), "--tokens", str(tmp / "fuse" / "tokens.toks"),
            "--out", str(tmp / "o")]


def _larger_grid_tokens_case(base, cfg, tmp):
    larger = load_config(cfg)
    larger.grid = dataclasses.replace(larger.grid, theta_bins=2 * larger.grid.theta_bins)
    save_config(tmp / "larger.cfg", larger)
    assert main(["fuse", "--config", str(tmp / "larger.cfg"), "--sample", str(base / "org"),
                 "--out", str(tmp / "fuse")]) == 0
    return ["queries", "--config", cfg, "--sample", str(base / "org"), "--tokens", str(tmp / "fuse" / "tokens.toks"),
            "--out", str(tmp / "o")]


def _other_rig_case(**synth):
    """All-strategy `augment` of the shared sample with a new one synthesized with other `synth` values."""
    def case(base, cfg, tmp):
        other = load_config(cfg)
        for key, value in synth.items():
            setattr(other.synth, key, value)
        save_config(tmp / "other.cfg", other)
        assert main(["synth", "--config", str(tmp / "other.cfg"), "--seed", "2", "--out", str(tmp / "new")]) == 0
        swap = load_config(cfg)
        swap.augment.p_instance = swap.augment.p_height_swap = swap.augment.p_angle_swap = 1.0
        save_config(tmp / "swap.cfg", swap)
        return ["augment", "--config", str(tmp / "swap.cfg"), "--org", str(base / "org"), "--new", str(tmp / "new"),
                "--seed", "2", "--out", str(tmp / "o")]
    return case


def _missing_camera_image_case(base, cfg, tmp):
    import shutil

    shutil.copytree(base / "org", tmp / "sample")
    (tmp / "sample" / "images" / "cam01.ppm").unlink()
    return ["fuse", "--config", cfg, "--sample", str(tmp / "sample"), "--out", str(tmp / "o")]


def _with_nan(a):
    a = a.copy()
    a.flat[3] = np.nan
    return a


def _ppm_header_case(header):
    """`cylpano fuse` on a sample whose first image has its PPM header replaced."""
    def case(base, cfg, tmp):
        import shutil

        shutil.copytree(base / "org", tmp / "sample")
        image = tmp / "sample" / "images" / "cam00.ppm"
        image.write_bytes(header + image.read_bytes()[len(b"P6\n96 72\n255\n"):])
        return ["fuse", "--config", cfg, "--sample", str(tmp / "sample"), "--out", str(tmp / "o")]
    return case


def _image_size_case(command):
    """`render-overlay`, or all-strategy `augment`, on a sample whose cam00.ppm is 12x10 on a 96x72 camera."""
    def case(base, cfg, tmp):
        import shutil

        shutil.copytree(base / "org", tmp / "sample")
        formats.write_ppm(tmp / "sample" / "images" / "cam00.ppm", np.zeros((10, 12, 3), np.uint8))
        if command == "render-overlay":
            return ["render-overlay", "--sample", str(tmp / "sample"), "--out", str(tmp / "o")]
        swap = load_config(cfg)
        swap.augment.p_instance = swap.augment.p_height_swap = swap.augment.p_angle_swap = 1.0
        save_config(tmp / "swap.cfg", swap)
        return ["augment", "--config", str(tmp / "swap.cfg"), "--org", str(tmp / "sample"), "--new",
                str(tmp / "sample"), "--seed", "2", "--out", str(tmp / "o")]
    return case


def _undecodable_case(command):
    """`cylpano voxelize --config`, or `eval --classes`, on a file holding a byte that UTF-8 cannot decode."""
    def case(base, cfg, tmp):
        (tmp / "bad.cfg").write_bytes(b"[classes]\n1 = car,thing\xff\n")
        cloud = str(base / "org" / "cloud.plcd")
        if command == "voxelize":
            return ["voxelize", "--config", str(tmp / "bad.cfg"), "--cloud", cloud, "--out", str(tmp / "o")]
        return ["eval", "--pred", cloud, "--gt", cloud, "--classes", str(tmp / "bad.cfg"),
                "--report", str(tmp / "r.json")]
    return case


def _null_width(calib):
    calib["cameras"][0]["width"] = None
    return calib


def _intrinsic_entry(at, value):
    """A calibration edit that sets entry `at` of camera 0's row-major K; `json.dumps` writes a NaN as NaN."""
    def edit(calib):
        calib["cameras"][0]["K"][at] = value
        return calib
    return edit


MALFORMED = {
    "config-no-section-header": (_config_case("r_bins = 4\n"), "BadConfigError"),
    "config-duplicate-key": (_config_case("[grid]\nr_bins = 4\nr_bins = 5\n"), "BadConfigError"),
    "config-percent-in-missing-weights-path": (_config_case("[tokens]\nweights_path = a%b\n"), "BadConfigError"),
    "config-negative-splat-radius": (_config_case("[synth]\nsplat_radius = -1\n"), "BadConfigError"),
    "config-negative-focal": (_config_case("[synth]\nfocal = -5\n"), "BadConfigError"),
    "config-infinite-focal": (_config_case("[synth]\nfocal = inf\n"), "BadConfigError"),
    "config-unknown-heatmap-mode": (_config_case("[queries]\nheatmap_mode = foo\n"), "BadConfigError"),
    "config-unknown-nms-radius-unit": (_config_case("[queries]\nnms_radius_unit = furlongs\n"), "BadConfigError"),
    "config-zero-dbscan-eps": (_config_case("[queries]\ndbscan_eps = 0\n"), "BadConfigError"),
    "config-zero-dbscan-min-pts": (_config_case("[queries]\ndbscan_min_pts = 0\n"), "BadConfigError"),
    "config-zero-l-pr": (_config_case("[queries]\nl_pr = 0\n"), "BadConfigError"),
    "config-negative-l-lt": (_config_case("[queries]\nl_lt = -1\n"), "BadConfigError"),
    "config-nan-heatmap-sigma": (_config_case("[queries]\nheatmap_sigma = nan\n"), "BadConfigError"),
    "config-infinite-heatmap-sigma": (_config_case("[queries]\nheatmap_sigma = inf\n"), "BadConfigError"),
    "config-negative-heatmap-sigma": (_config_case("[queries]\nheatmap_sigma = -1\n"), "BadConfigError"),
    "config-nan-nms-radius": (_config_case("[queries]\nnms_radius = nan\n"), "BadConfigError"),
    "config-infinite-nms-radius": (_config_case("[queries]\nnms_radius = inf\n"), "BadConfigError"),
    "config-negative-nms-radius": (_config_case("[queries]\nnms_radius = -2\n"), "BadConfigError"),
    "config-nan-nms-conf-thresh": (_config_case("[queries]\nnms_conf_thresh = nan\n"), "BadConfigError"),
    "config-negative-nms-max-peaks": (_config_case("[queries]\nnms_max_peaks = -1\n"), "BadConfigError"),
    "config-reversed-object-count": (_config_case("[synth]\nn_objects = 5,1\n"), "BadConfigError"),
    "config-reversed-points-per-object": (_config_case("[synth]\npoints_per_object = 600,150\n"), "BadConfigError"),
    "config-reversed-box-size": (_config_case("[synth]\nbox_size = 3,0.8\n"), "BadConfigError"),
    "config-zero-pillar-radius": (_config_case("[synth]\npillar_radius = 0,0\n"), "BadConfigError"),
    "config-zero-extent": (_config_case("[synth]\nextent = 0\n"), "BadConfigError"),
    "config-nan-extent": (_config_case("[synth]\nextent = nan\n"), "BadConfigError"),
    "config-center-dist-past-extent": (_config_case("[synth]\nmin_center_dist = 100\n"), "BadConfigError"),
    "config-nan-cam-height": (_config_case("[synth]\ncam_height = nan\n"), "BadConfigError"),
    "config-scan-id-past-u8": (_config_case("[synth]\nscan_id = 300\n"), "BadConfigError"),
    "config-object-count-past-u16": (_config_case("[synth]\nn_objects = 65536,65536\n"), "BadConfigError"),
    "config-zero-image-width": (_config_case("[image]\nwidth = 0\n"), "BadConfigError"),
    "config-nan-z-min": (_config_case("[grid]\nz_min = nan\n"), "BadConfigError"),
    "config-infinite-r-max": (_config_case("[grid]\nr_max = inf\n"), "BadConfigError"),
    "config-bad-bool": (_config_case("[tokens]\nbilinear = ture\n"), "BadConfigError"),
    "config-unknown-key": (_config_case("[augment]\np_instace = 1.0\n"), "BadConfigError"),
    "config-unknown-section": (_config_case("[augmnt]\np_instance = 1.0\n"), "BadConfigError"),
    "augment-zero-split-choice": (_augment_config_case("split_choices", (0,)), "BadConfigError"),
    "augment-negative-split-choice": (_augment_config_case("split_choices", (-2,)), "BadConfigError"),
    "augment-nan-rotation-range": (_augment_config_case("rotation_range", float("nan")), "BadConfigError"),
    "augment-negative-rotation-range": (_augment_config_case("rotation_range", -0.5), "BadConfigError"),
    "augment-negative-paste-translation": (_augment_config_case("paste_translation", -1.0), "BadConfigError"),
    "augment-nan-flip-prob": (_augment_config_case("flip_prob", float("nan")), "BadConfigError"),
    "augment-zero-scale-range": (_augment_config_case("scale_range", (0.0, 0.0)), "BadConfigError"),
    "augment-reversed-instance-count-range": (_augment_config_case("instance_count_range", (5, 1)), "BadConfigError"),
    "augment-negative-paste-scale": (_augment_config_case("paste_scale_range", (-1.0, 1.0)), "BadConfigError"),
    "config-zero-token-dim": (_config_case("[tokens]\ndim = 0\n"), "BadConfigError"),
    "config-negative-token-dim": (_config_case("[tokens]\ndim = -4\n"), "BadConfigError"),
    "config-zero-feat-downsample": (_config_case("[tokens]\nfeat_downsample = 0\n"), "BadConfigError"),
    "config-not-utf8": (_undecodable_case("voxelize"), "BadConfigError"),
    "classes-not-utf8": (_undecodable_case("eval"), "BadConfigError"),
    "classes-no-section-header": (_classes_case("1 = car,thing\n"), "BadConfigError"),
    "classes-duplicate-key": (_classes_case("[classes]\n1 = car,thing\n1 = bus,thing\n"), "BadConfigError"),
    "calibration-top-level-list": (_calibration_case(lambda c: c["cameras"]), "BadConfigError"),
    "calibration-camera-not-object": (_calibration_case(lambda c: {"cameras": [1]}), "BadConfigError"),
    "calibration-null-width": (_calibration_case(_null_width), "BadConfigError"),
    "calibration-no-cameras": (_calibration_case(lambda c: {"cameras": []}), "BadConfigError"),
    "calibration-not-json": (_calibration_case(lambda c: "{not json"), "BadConfigError"),
    "sample-missing-camera-image": (_missing_camera_image_case, "IoError"),
    "config-unsupported-version": (_config_case("[pipeline]\nversion = 2\n"), "BadConfigError"),
    "queries-tokens-of-another-sample": (_tokens_of_another_sample_case, "ShapeMismatchError"),
    "spew-five-blocks": (_spew_five_blocks_case, "ShapeMismatchError"),
    "mask-camera-outside-rig": (_mask_case(5, (72, 96)), "ShapeMismatchError"),
    "mask-size-not-camera-size": (_mask_case(0, (7, 9)), "ShapeMismatchError"),
    "cloud-non-finite-coordinate": (_non_finite_cloud_case, "ShapeMismatchError"),
    "augment-instance-ids-past-u16": (_instance_overflow_case, "ShapeMismatchError"),
    "replay-manifest-not-json": (_replay_case, "BadConfigError"),
    "synth-negative-seed": (_seed_case("synth", "-1"), "BadConfigError"),
    "augment-negative-seed": (_seed_case("augment", "-3"), "BadConfigError"),
    "fuse-negative-token-seed": (_negative_token_seed_case, "BadConfigError"),
    "classes-unknown-kind": (_classes_case("[classes]\n1 = car,foo\n"), "BadConfigError"),
    "classes-negative-id": (_classes_case("[classes]\n-1 = car,thing\n"), "BadConfigError"),
    "classes-id-past-u16": (_classes_case("[classes]\n70000 = car,thing\n"), "BadConfigError"),
    "eval-class-id-not-in-table": (_unknown_class_id_case, "IndexOutOfRangeError"),
    "fmap-zero-height": (_fmap_case(0, 5), "ShapeMismatchError"),
    "fmap-zero-width": (_fmap_case(5, 0), "ShapeMismatchError"),
    "fmap-dim-past-token-dim": (_fmap_case(5, 5, extra_dim=1), "ShapeMismatchError"),
    "spew-phi-w2-wrong-shape": (_spew_case("phi_w2", lambda a: a[:, :-1]), "ShapeMismatchError"),
    "spew-phi-b1-wrong-shape": (_spew_case("phi_b1", lambda a: a[:-1]), "ShapeMismatchError"),
    "spew-phi-b2-wrong-shape": (_spew_case("phi_b2", lambda a: np.append(a, 0.0)), "ShapeMismatchError"),
    "spew-coord-scales-wrong-shape": (_spew_case("coord_scales", lambda a: a[:4]), "ShapeMismatchError"),
    "spew-nan-psi-w": (_spew_case("psi_w", _with_nan), "ShapeMismatchError"),
    "ppm-width-not-a-number": (_ppm_header_case(b"P6\nabc 72\n255\n"), "TruncatedFileError"),
    "ppm-negative-width": (_ppm_header_case(b"P6\n-96 72\n255\n"), "TruncatedFileError"),
    "image-size-not-camera-size-render-overlay": (_image_size_case("render-overlay"), "ShapeMismatchError"),
    "image-size-not-camera-size-augment": (_image_size_case("augment"), "ShapeMismatchError"),
    "queries-tokens-of-a-larger-grid": (_larger_grid_tokens_case, "ShapeMismatchError"),
    "classes-missing-file": (_classes_case(None), "BadConfigError"),
    "classes-no-classes-section": (_classes_case("[other]\n1 = car,thing\n"), "BadConfigError"),
    "classes-entry-without-kind": (_classes_case("[classes]\n1 = justname\n"), "BadConfigError"),
    "augment-rigs-of-2-and-3-cameras": (_other_rig_case(camera_count=3), "SpecMismatchError"),
    "augment-images-of-different-sizes": (_other_rig_case(image_size=(48, 36)), "SpecMismatchError"),
    "config-negative-ground-points": (_config_case("[synth]\nground_points = -1\n"), "BadConfigError"),
    "config-zero-camera-count": (_config_case("[synth]\ncamera_count = 0\n"), "BadConfigError"),
    "augment-unknown-strategy-mode": (_augment_config_case("strategy_mode", "sideways"), "BadConfigError"),
    "calibration-nan-intrinsic": (_calibration_case(_intrinsic_entry(2, float("nan"))), "BadConfigError"),
    "calibration-intrinsic-below-diagonal": (_calibration_case(_intrinsic_entry(3, 0.5)), "BadConfigError"),
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


QUERY_KEYS = {  # one non-default value of each [queries] key
    "l_pr": 1,
    "l_lt": 3,
    "nms_conf_thresh": 1.01,
    "nms_radius": 0.0,
    "nms_radius_unit": "meters",
    "nms_max_peaks": 1,
    "dbscan_eps": 0.1,
    "dbscan_min_pts": 100000,
    "heatmap_mode": "density",
    "heatmap_sigma": 8.0,
}


def _queries_run(base, cfg, out):
    """The queries.qrys bytes and manifest counters of `cylpano queries` on the fused scene."""
    assert main(["queries", "--config", str(cfg), "--sample", str(base / "org"), "--tokens",
                 str(base / "fuse" / "tokens.toks"), "--masks", str(base / "org" / "masks"), "--out", str(out)]) == 0
    return (out / "queries.qrys").read_bytes(), json.loads((out / "manifest.json").read_text())["counters"]


def test_query_keys_cover_every_field():
    assert sorted(QUERY_KEYS) == sorted(f.name for f in dataclasses.fields(QueryConfig))


@pytest.mark.parametrize("key", sorted(QUERY_KEYS))
def test_each_queries_key_reaches_the_query_stage(fused_scene, tmp_path, key):
    base, cfg = fused_scene
    changed = load_config(cfg)
    changed.queries = dataclasses.replace(changed.queries, **{key: QUERY_KEYS[key]})
    save_config(tmp_path / "changed.cfg", changed)
    assert _queries_run(base, tmp_path / "changed.cfg", tmp_path / "changed") != _queries_run(
        base, cfg, tmp_path / "default")


def test_stale_camera_image_is_not_read(fused_scene, tmp_path):
    import shutil

    base, cfg = fused_scene
    shutil.copytree(base / "org", tmp_path / "sample")
    shutil.copy(tmp_path / "sample" / "images" / "cam00.ppm", tmp_path / "sample" / "images" / "cam09.ppm")
    assert main(["fuse", "--config", cfg, "--sample", str(tmp_path / "sample"), "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "tokens.toks").read_bytes() == (base / "fuse" / "tokens.toks").read_bytes()


def test_a_rerun_of_synth_removes_stale_masks(fused_scene, tmp_path):
    import shutil

    from cylpano.queries import Mask2D

    base, cfg = fused_scene
    sample = tmp_path / "sample"
    shutil.copytree(base / "org", sample)
    formats.write_mask(sample / "masks" / "mask_009.msk2", Mask2D(0, np.ones((72, 96), bool)))
    (sample / "masks" / "notes.txt").write_text("not a mask")
    assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(sample)]) == 0
    listed = {k for k in json.loads((sample / "manifest.json").read_text())["outputs"] if k.startswith("masks/")}
    assert {f"masks/{p.name}" for p in (sample / "masks").glob("*.msk2")} == listed
    assert (sample / "masks" / "notes.txt").exists()
    assert main(["queries", "--config", cfg, "--sample", str(sample), "--tokens", str(base / "fuse" / "tokens.toks"),
                 "--masks", str(sample / "masks"), "--out", str(tmp_path / "q")]) == 0
    fresh, _ = _queries_run(base, cfg, tmp_path / "fresh")
    assert (tmp_path / "q" / "queries.qrys").read_bytes() == fresh


def test_wrong_size_image_error_names_the_file(fused_scene, tmp_path, capsys):
    argv = _image_size_case("render-overlay")(*fused_scene, tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert "cam00.ppm: 12x10 image vs 96x72 camera" in capsys.readouterr().err


def test_sha256_in_chunks_equals_whole_file_hash(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(np.random.default_rng(0).integers(0, 256, 7 << 19, dtype=np.uint8).tobytes())  # 3.5 MiB
    assert formats.file_sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_manifest_hashes_the_config_bytes_its_snapshot_shows(tmp_path):
    cfg = Path(small_config(tmp_path))
    cfg.write_bytes(cfg.read_text().replace("\n", "\r\n").encode())
    assert main(["synth", "--config", str(cfg), "--seed", "1", "--out", str(tmp_path / "org")]) == 0
    manifest = json.loads((tmp_path / "org" / "manifest.json").read_text())
    assert "\r" not in manifest["config_snapshot"]
    assert manifest["config_snapshot"] == cfg.read_text()
    assert manifest["config_sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()


class TestPerProcessReuse:
    """A process builds its parser once, parses each config text once, draws each placeholder feature map
    once per config and builds the embedding's per-bin tables once per grid and weights."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_stage_patched_after_a_call_is_the_one_run(self, tmp_path, monkeypatch):
        assert main(["init-config", "--out", str(tmp_path / "p.cfg")]) == 0  # the parser now exists
        calls = []
        monkeypatch.setattr(cli, "cmd_voxelize", lambda args: calls.append(args.cloud) or 0)
        assert main(["voxelize", "--cloud", "c.plcd", "--out", str(tmp_path / "o")]) == 0
        assert calls == ["c.plcd"]

    def test_placeholder_maps_follow_the_config(self, tmp_path):
        cfg = small_config(tmp_path)
        loaded = load_config(cfg)
        loaded.tokens.seed += 1
        other = str(tmp_path / "other.cfg")
        save_config(other, loaded)
        org = tmp_path / "org"
        assert main(["synth", "--config", cfg, "--seed", "2", "--out", str(org)]) == 0
        w, h = loaded.synth.image_size
        maps = np.random.default_rng(5).standard_normal((loaded.synth.camera_count, h // 4, w // 4, loaded.tokens.dim))
        formats.write_feature_maps(tmp_path / "f.fmap", maps.astype(np.float32))
        runs = [("first", cfg, []), ("features", cfg, ["--features", str(tmp_path / "f.fmap")]),
                ("other", other, []), ("again", cfg, [])]
        for tag, config, extra in runs:
            assert main(["fuse", "--config", config, "--sample", str(org), *extra, "--out", str(tmp_path / tag)]) == 0
        toks = {tag: (tmp_path / tag / "tokens.toks").read_bytes() for tag, _, _ in runs}
        assert toks["again"] == toks["first"]
        assert toks["other"] != toks["first"]
        assert toks["features"] != toks["first"]

    def test_placeholder_maps_are_read_only_and_shared(self):
        cfg = PipelineConfig()
        cams = [ring_camera(0.0, 64, 48, 32.0, 0.0), ring_camera(np.pi, 64, 48, 32.0, 0.0)]
        args = argparse.Namespace(features=None)
        maps = cli._feature_maps(args, cfg, cams)
        ds = cfg.tokens.feat_downsample
        assert [m.data.shape for m in maps] == [(48 // ds, 64 // ds, cfg.tokens.dim)] * 2
        assert cli._feature_maps(args, cfg, cams)[1].data is maps[1].data
        with pytest.raises(ValueError):
            maps[0].data[0, 0, 0] = 1.0

    def test_fuse_then_queries_parse_the_config_once_and_build_the_tables_once(self, tmp_path, monkeypatch):
        import cylpano.config
        import cylpano.tokens

        calls = []
        build = cylpano.tokens._build_bin_tables  # the uncached builder, counted; its memo starts empty
        monkeypatch.setattr(cylpano.tokens, "_build_bin_tables", lambda *args: calls.append("tables") or build(*args))
        cylpano.tokens._tables_of.cache_clear()
        cylpano.config._parse_config.cache_clear()
        cfg = small_config(tmp_path)
        org, fuse = tmp_path / "org", tmp_path / "fuse"
        assert main(["synth", "--config", cfg, "--seed", "1", "--out", str(org)]) == 0
        assert main(["fuse", "--config", cfg, "--sample", str(org), "--out", str(fuse)]) == 0
        assert main(["queries", "--config", cfg, "--sample", str(org), "--tokens", str(fuse / "tokens.toks"),
                     "--masks", str(org / "masks"), "--out", str(tmp_path / "queries")]) == 0
        assert (cylpano.config._parse_config.cache_info().misses, calls) == (1, ["tables"])

    def test_one_process_writes_what_fresh_processes_write(self, tmp_path):
        configs = {}
        for name, (dim, seed, bins) in {"a": (16, 0, (48, 36, 8)), "b": (8, 5, (40, 30, 6))}.items():
            (tmp_path / name).mkdir()
            cfg = load_config(small_config(tmp_path / name))
            cfg.tokens.dim, cfg.tokens.seed = dim, seed
            cfg.grid = dataclasses.replace(cfg.grid, r_bins=bins[0], theta_bins=bins[1], z_bins=bins[2])
            cfg.augment.p_instance = cfg.augment.p_height_swap = cfg.augment.p_angle_swap = 1.0
            save_config(tmp_path / name / "pipeline.cfg", cfg)
            configs[name] = str(tmp_path / name / "pipeline.cfg")

        def written(out):  # every artifact's bytes, and what each manifest records of the outputs
            files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
                     if p.is_file() and p.name != "manifest.json"}
            manifests = {str(p.relative_to(out)): {k: json.loads(p.read_text())[k] for k in ("outputs", "counters")}
                         for p in sorted(out.rglob("manifest.json"))}
            return files, manifests

        src = Path(__file__).resolve().parents[1] / "src"
        code = "import json, sys; from cylpano.cli import main; sys.exit(max(map(main, json.loads(sys.argv[1]))))"
        for name, cfg in configs.items():
            subprocess.run([sys.executable, "-c", code, json.dumps(_chain(cfg, tmp_path / f"fresh-{name}"))],
                           env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        for k, name in enumerate("aba"):
            out = tmp_path / f"one-{k}"
            assert [main(argv) for argv in _chain(configs[name], out)] == [0] * 6
            assert written(out) == written(tmp_path / f"fresh-{name}")
        assert written(tmp_path / "one-0")[0] != written(tmp_path / "one-1")[0]
        # both chains as one `cylpano batch` on stdin, in a fresh process
        lines = [shlex.join(argv) for name in "ab" for argv in _chain(configs[name], tmp_path / f"batch-{name}")]
        subprocess.run([sys.executable, "-m", "cylpano.cli", "batch", "-"], input="\n".join(["# a, then b", *lines]),
                       text=True, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
        for name in "ab":
            assert written(tmp_path / f"batch-{name}") == written(tmp_path / f"fresh-{name}")


class TestBatch:
    def test_lines_run_in_order_and_blank_and_comment_lines_are_skipped(self, tmp_path, monkeypatch):
        cfg = small_config(tmp_path)
        chain = _chain(cfg, tmp_path)
        lines = ["# synth, then voxelize what it wrote", "", "   ", shlex.join(chain[0]), shlex.join(chain[2])]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
        assert main(["batch", "-"]) == 0
        manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("org", "vox")]
        assert [m["command"] for m in manifests] == ["synth", "voxelize"]

    def test_a_failing_line_stops_the_batch(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        (tmp_path / "short.plcd").write_bytes(b"PLC2" + (5).to_bytes(4, "little"))  # five points, none present
        lines = [
            shlex.join(["synth", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "org")]),
            "# the next line fails",
            shlex.join(["voxelize", "--cloud", str(tmp_path / "short.plcd"), "--out", str(tmp_path / "vox")]),
            shlex.join(["synth", "--config", cfg, "--seed", "2", "--out", str(tmp_path / "new")]),
        ]
        (tmp_path / "chain.txt").write_text("\n".join(lines) + "\n")
        assert main(["batch", str(tmp_path / "chain.txt")]) == 1
        assert capsys.readouterr().err.startswith("line 3: TruncatedFileError: ")
        assert (tmp_path / "org" / "manifest.json").exists()
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("line, error", [
        ("batch other.txt", "line 1: BadConfigError: "),
        ("synth --out 'unclosed", "line 1: BadConfigError: "),
        ("voxelize --out o", "line 1: exit 2"),  # argparse's usage error: --cloud is missing
    ])
    def test_a_bad_line_exits_1_naming_it(self, tmp_path, capsys, line, error):
        (tmp_path / "chain.txt").write_text(line + "\n")
        assert main(["batch", str(tmp_path / "chain.txt")]) == 1
        assert capsys.readouterr().err.splitlines()[-1].startswith(error)

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_undecodable_lines_exit_1_naming_their_source(self, tmp_path, monkeypatch, capsys, source):
        data = b"\xff\xfe" + "synth --out o\n".encode("utf-16-le")  # a UTF-16 file, which UTF-8 cannot decode
        if source == "file":
            (tmp_path / "chain.txt").write_bytes(data)
            arg = name = str(tmp_path / "chain.txt")
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            arg, name = "-", "stdin"
        assert main(["batch", arg]) == 1
        assert capsys.readouterr().err.startswith(f"BadConfigError: cannot decode command lines from {name}: ")


class TestReplayVerifies:
    @pytest.fixture
    def chain(self, tmp_path):
        """A chain run in this process; returns its directory and the config path."""
        cfg = small_config(tmp_path)
        assert [main(argv) for argv in _chain(cfg, tmp_path / "run")] == [0] * 6
        return tmp_path / "run", cfg

    def test_every_recorded_hash_is_the_file_hash(self, chain):
        run, cfg = chain
        manifests = sorted(run.rglob("manifest.json"))
        assert len(manifests) == 6
        for path in manifests:
            manifest = json.loads(path.read_text())
            assert manifest["config_sha256"] == sha(Path(cfg))
            assert manifest["inputs"] == {p: sha(Path(p)) for p in manifest["inputs"]}
            assert manifest["outputs"] == {p: sha(path.parent / p) for p in manifest["outputs"]}

    def test_replaying_every_manifest_of_a_chain_exits_0(self, chain, tmp_path, capsys):
        run, _ = chain
        for k, path in enumerate(sorted(run.rglob("manifest.json"))):
            assert main(["replay", "--manifest", str(path), "--out", str(tmp_path / f"replay{k}")]) == 0
        assert capsys.readouterr().err == ""

    def test_a_changed_input_exits_1_before_the_stage_runs(self, chain, monkeypatch, capsys):
        run, _ = chain
        tokens = run / "fuse" / "tokens.toks"
        data = bytearray(tokens.read_bytes())
        data[-1] ^= 1  # the last content float's lowest bit
        tokens.write_bytes(bytes(data))
        calls = []
        monkeypatch.setattr(cli, "cmd_queries", lambda args: calls.append(args) or 0)
        assert main(["replay", "--manifest", str(run / "queries" / "manifest.json"), "--out", str(run / "q2")]) == 1
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("ReplayMismatchError: inputs differ") and err.rstrip().endswith(str(tokens))

    @pytest.mark.parametrize("argv, error", [
        ("voxelize --out o", "argv is not a list of strings"),
        (["voxelize", "--out", 3], "argv is not a list of strings"),
        ([], "argv runs none of "),
        (["eval", "--pred", "c.plcd", "--gt", "c.plcd", "--classes", "c.cfg", "--report", "r.json"],
         "argv runs none of "),  # eval writes no manifest
        ("itself", "argv runs none of "),
        (["voxelize", "--out"], "argv ends in --out with no value"),
    ], ids=["string", "not-all-strings", "empty", "eval", "replays-itself", "out-without-value"])
    def test_an_argv_that_runs_no_stage_exits_1_before_anything_runs(self, tmp_path, capsys, argv, error):
        manifest, out = tmp_path / "manifest.json", tmp_path / "o"
        if argv == "itself":
            argv = ["replay", "--manifest", str(manifest), "--out", str(out)]
        # an input that is gone, so a check of the inputs before the argv would name it instead
        inputs = {str(tmp_path / "gone.plcd"): "0" * 64}
        manifest.write_text(json.dumps({"argv": argv, "config": None, "inputs": inputs, "outputs": {}}))
        assert main(["replay", "--manifest", str(manifest), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"BadConfigError: manifest {manifest}: {error}")
        assert not out.exists()

    def test_a_deleted_input_exits_1_naming_it(self, chain, monkeypatch, capsys):
        run, _ = chain
        cloud = run / "org" / "cloud.plcd"
        cloud.unlink()
        calls = []
        monkeypatch.setattr(cli, "cmd_voxelize", lambda args: calls.append(args) or 0)
        manifest = run / "vox" / "manifest.json"
        assert main(["replay", "--manifest", str(manifest), "--out", str(run / "v2")]) == 1
        assert calls == []
        assert capsys.readouterr().err.rstrip() == f"ReplayMismatchError: inputs differ from {manifest}: {cloud}"

    def test_an_argv_with_out_equals_dir_replays_into_the_replay_out(self, tmp_path, capsys):
        cfg, org, replayed = small_config(tmp_path), tmp_path / "org", tmp_path / "replayed"
        assert main(["synth", "--config", cfg, "--seed", "2", f"--out={org}"]) == 0
        manifest = json.loads((org / "manifest.json").read_text())
        assert manifest["argv"][-1] == f"--out={org}"
        before = {p: sha(p) for p in sorted(org.rglob("*")) if p.is_file()}
        assert main(["replay", "--manifest", str(org / "manifest.json"), "--out", str(replayed)]) == 0
        assert capsys.readouterr().err == ""
        assert {p: sha(p) for p in sorted(org.rglob("*")) if p.is_file()} == before
        assert json.loads((replayed / "manifest.json").read_text())["outputs"] == manifest["outputs"]

    def test_a_changed_config_exits_1(self, chain, capsys):
        run, cfg = chain
        Path(cfg).write_text(Path(cfg).read_text() + "\n")
        assert main(["replay", "--manifest", str(run / "vox" / "manifest.json"), "--out", str(run / "v2")]) == 1
        assert capsys.readouterr().err.rstrip().endswith(f"inputs differ from {run / 'vox' / 'manifest.json'}: {cfg}")

    def test_an_output_that_differs_exits_1_naming_it(self, chain, monkeypatch, capsys):
        run, _ = chain
        generate = cli.generate_scene

        def brighter(scene_cfg):  # one point's intensity moves, so only cloud.plcd differs
            synth = generate(scene_cfg)
            synth.sample.cloud.intensity[0] += 1.0
            return synth

        monkeypatch.setattr(cli, "generate_scene", brighter)
        assert main(["replay", "--manifest", str(run / "org" / "manifest.json"), "--out", str(run / "o2")]) == 1
        assert capsys.readouterr().err.rstrip().endswith("outputs differ from "
                                                         f"{run / 'org' / 'manifest.json'}: cloud.plcd")


class TestManifestsFromTheCodecs:
    """A manifest lists every file its stage's codecs read, and a one-process chain hashes each file as it is
    written: a later stage's manifest takes the digest the writer recorded, so no file is read only to be hashed."""

    @pytest.fixture
    def run(self, tmp_path, monkeypatch):
        """A chain run in this process, with fuse given `--features` and a config `weights_path`, queries given
        `--classes`, then render-overlay and eval. Returns its directory, the weights' path and each file that
        `formats._hash_file` read."""
        from cylpano.tokens import SpeParams

        cfg = small_config(tmp_path)
        loaded = load_config(cfg)
        formats.write_spe_params(tmp_path / "w.spew", SpeParams.create(loaded.grid, loaded.tokens.dim, seed=5))
        loaded.tokens.weights_path = "w.spew"
        save_config(cfg, loaded)
        (w, h), ds = loaded.synth.image_size, loaded.tokens.feat_downsample
        shape = (loaded.synth.camera_count, h // ds, w // ds, loaded.tokens.dim)
        maps = np.random.default_rng(5).standard_normal(shape)
        formats.write_feature_maps(tmp_path / "f.fmap", maps.astype(np.float32))
        run = tmp_path / "run"
        chain = _chain(cfg, run)
        chain[4] += ["--features", str(tmp_path / "f.fmap")]
        chain[5] += ["--classes", str(run / "org" / "classes.cfg")]
        chain += [["render-overlay", "--sample", str(run / "aug"), "--out", str(run / "overlay")],
                  ["eval", "--pred", str(run / "aug" / "cloud.plcd"), "--gt", str(run / "aug" / "cloud.plcd"),
                   "--classes", str(run / "org" / "classes.cfg"), "--report", str(run / "eval" / "report.json")]]
        hashed = []
        hash_file = formats._hash_file
        monkeypatch.setattr(formats, "_hash_file", lambda path, key: hashed.append(path) or hash_file(path, key))
        assert [main(argv) for argv in chain] == [0] * 8
        return run, load_config(cfg).tokens.weights_path, hashed

    def test_each_manifest_lists_exactly_what_its_stage_read(self, run):
        run, weights, _ = run

        def sample(name):
            d = run / name
            return [d / "cloud.plcd", d / "calib.json", *sorted((d / "images").glob("cam*.ppm"))]

        expected = {
            "org": [], "new": [],
            "vox": [run / "org" / "cloud.plcd"],
            "aug": sample("org") + sample("new"),
            "fuse": [*sample("aug"), run.parent / "f.fmap", weights],
            "queries": [*sample("aug"), run / "fuse" / "tokens.toks", weights,
                        *sorted((run / "org" / "masks").glob("*.msk2")), run / "org" / "classes.cfg"],
            "overlay": sample("aug"),
        }
        assert len(expected["aug"]) == 8 and len(expected["queries"]) > 7
        for name, paths in expected.items():
            inputs = json.loads((run / name / "manifest.json").read_text())["inputs"]
            assert sorted(inputs) == sorted(map(str, paths)), name
            assert inputs == {p: sha(Path(p)) for p in inputs}

    def test_a_one_process_chain_reads_no_file_only_to_hash_it(self, run):
        # each input's mtime must be strictly older than the manifest that sealed it, so this needs file
        # timestamps finer than the gap between a stage's last write and its manifest
        _, _, hashed = run
        assert hashed == []

    def test_replay_names_a_swapped_mask_before_the_stage_runs(self, tmp_path, monkeypatch, capsys):
        from cylpano.queries import Mask2D

        run = tmp_path / "run"
        assert [main(argv) for argv in _chain(small_config(tmp_path), run)] == [0] * 6
        mask = run / "org" / "masks" / "mask_000.msk2"
        old = formats.read_mask(mask)
        formats.write_mask(mask, Mask2D(old.camera_id, np.ones_like(old.bitmap)))  # a full-image mask
        calls = []
        monkeypatch.setattr(cli, "cmd_queries", lambda args: calls.append(args) or 0)
        manifest = run / "queries" / "manifest.json"
        assert main(["replay", "--manifest", str(manifest), "--out", str(tmp_path / "q2")]) == 1
        assert calls == []
        assert capsys.readouterr().err.rstrip() == f"ReplayMismatchError: inputs differ from {manifest}: {mask}"


def test_import_loads_no_scipy_spatial():
    # `scipy.spatial` holds about 16 MB of resident memory and 0.2 s of start-up;
    # the test modules import it for their oracles, so a fresh interpreter checks
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, cylpano.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_chain_loads_no_scipy(tmp_path):
    # the fuse stage's image means are numpy only, so no stage of a chain, in either sampling mode, loads scipy;
    # the test modules import it for their oracles, so a fresh interpreter checks
    cfg = small_config(tmp_path)
    bilinear = load_config(cfg)
    bilinear.tokens.bilinear = True
    save_config(tmp_path / "bilinear.cfg", bilinear)
    org, new, aug, fuse = (str(tmp_path / d) for d in ("org", "new", "aug", "fuse"))
    chain = [
        ["synth", "--config", cfg, "--seed", "1", "--out", org],
        ["synth", "--config", cfg, "--seed", "2", "--out", new],
        ["voxelize", "--config", cfg, "--cloud", org + "/cloud.plcd", "--out", str(tmp_path / "vox")],
        ["augment", "--config", cfg, "--seed", "3", "--org", org, "--new", new, "--out", aug],
        ["fuse", "--config", cfg, "--sample", aug, "--out", fuse],
        ["fuse", "--config", str(tmp_path / "bilinear.cfg"), "--sample", aug, "--out", str(tmp_path / "fuse-bilinear")],
        ["queries", "--config", cfg, "--sample", aug, "--tokens", fuse + "/tokens.toks", "--masks", org + "/masks",
         "--out", str(tmp_path / "queries")],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import json, sys, cylpano.cli; codes = [cylpano.cli.main(a) for a in json.loads(sys.argv[1])]; "
            "print(codes, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    run = subprocess.run([sys.executable, "-c", code, json.dumps(chain)], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == f"{[0] * len(chain)} []"
    assert (tmp_path / "fuse-bilinear" / "tokens.toks").read_bytes() != (Path(fuse) / "tokens.toks").read_bytes()


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.mark.parametrize("user", [None, "3"])
def test_stage_pins_blas_threads_unless_the_user_set_them(tmp_path, user):
    # importing `cli` sets the pins in this process too, so the fresh interpreter gets an environment without them
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if user is not None:
        env["OPENBLAS_NUM_THREADS"] = user
    argv = ["synth", "--config", small_config(tmp_path), "--seed", "1", "--out", str(tmp_path / "org")]
    code = ("import json, os, sys, cylpano.cli; code = cylpano.cli.main(json.loads(sys.argv[1])); "
            f"print(code, [os.environ.get(v) for v in {THREAD_VARS!r}])")
    run = subprocess.run([sys.executable, "-c", code, json.dumps(argv)], env=env, capture_output=True, text=True,
                         check=True)
    assert run.stdout.strip() == f"0 {['1', user or '1', '1', '1', '1']}"
