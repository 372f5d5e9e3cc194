"""Command-line pipeline: synth | voxelize | augment | fuse | queries | eval | render-overlay.

Every stage writes its artifacts plus a manifest.json recording the argv,
seed, config hash, and input/output content hashes, so a run can be replayed
(`cylpano replay`) and verified byte-for-byte. Stage errors exit nonzero with
the error name on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import formats
from .augment import MultiModalSample, augment, rect_union
from .config import PipelineConfig, load_config, save_config
from .errors import BadConfigError, PipelineError, ShapeMismatchError
from .grid import voxelize
from .metrics import ClassTable, SegLabeling, evaluate
from .queries import assemble_queries, build_bev_heatmap, geometric_hints, texture_hints
from .synth import generate_scene, render_overlay
from .tokens import FeatureMap, SpeParams, TokenSet, VoxelFeatures, build_tokens, containing_rows


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def _write_manifest(
    out_dir: Path, command: str, argv: list[str], seed, config_path, inputs, timings, counters=None
):
    manifest = {
        "version": 1,
        "command": command,
        "argv": argv,
        "seed": seed,
        "config": str(config_path) if config_path else None,
        "config_sha256": _sha256(Path(config_path)) if config_path else None,
        "config_snapshot": Path(config_path).read_text() if config_path else None,
        "inputs": {str(p): _sha256(Path(p)) for p in inputs},
        "outputs": {
            str(p.relative_to(out_dir)): _sha256(p)
            for p in sorted(out_dir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"
        },
        "timings": timings,
        "counters": counters or {},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))


def _load_cfg(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _load_sample(sample_dir) -> MultiModalSample:
    sample_dir = Path(sample_dir)
    cloud = formats.read_point_cloud(sample_dir / "cloud.plcd")
    cams = formats.read_calibration(sample_dir / "calib.json")
    images = [formats.read_ppm(p) for p in sorted((sample_dir / "images").glob("cam*.ppm"))]
    if len(images) != len(cams):
        raise ShapeMismatchError(f"{sample_dir}: {len(images)} images vs {len(cams)} cameras")
    return MultiModalSample(cloud, images, cams)


def _write_sample(out_dir: Path, sample: MultiModalSample):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "images").mkdir(exist_ok=True)
    formats.write_point_cloud(out_dir / "cloud.plcd", sample.cloud)
    formats.write_calibration(out_dir / "calib.json", sample.cams)
    for k, img in enumerate(sample.images):
        formats.write_ppm(out_dir / "images" / f"cam{k:02d}.ppm", img)


def cmd_synth(args) -> int:
    cfg = _load_cfg(args)
    scene_cfg = cfg.synth
    scene_cfg.rng_seed = args.seed
    t0 = time.perf_counter()
    synth = generate_scene(scene_cfg)
    out = Path(args.out)
    _write_sample(out, synth.sample)
    (out / "masks").mkdir(exist_ok=True)
    for i, mask in enumerate(synth.masks):
        formats.write_mask(out / "masks" / f"mask_{i:03d}.msk2", mask)
    synth.table.save(out / "classes.cfg")
    _write_manifest(out, "synth", args._argv, args.seed, args.config, [], {"synth": time.perf_counter() - t0})
    return 0


def cmd_voxelize(args) -> int:
    cfg = _load_cfg(args)
    cloud = formats.read_point_cloud(args.cloud)
    t0 = time.perf_counter()
    grid = voxelize(cloud, cfg.grid)
    dt = time.perf_counter() - t0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_provenance(out / "voxels.pvox", grid.indices3, grid.source)
    (out / "summary.json").write_text(
        json.dumps(
            {
                "points": len(cloud),
                "occupied_voxels": grid.num_voxels,
                "dropped_points": int(len(grid.dropped)),
                "grid": list(cfg.grid.shape),
            },
            indent=1,
        )
    )
    _write_manifest(out, "voxelize", args._argv, None, args.config, [args.cloud], {"voxelize": dt})
    return 0


def cmd_augment(args) -> int:
    cfg = _load_cfg(args)
    org = _load_sample(args.org)
    new = _load_sample(args.new)
    aug_cfg = cfg.augment
    aug_cfg.rng_seed = args.seed
    t0 = time.perf_counter()
    result = augment(org, new, cfg.grid, aug_cfg)
    dt = time.perf_counter() - t0
    counters = {
        "strategies": [name for name, ran in result.applied.items() if ran],
        # per camera, the pixels copied from the new scan's image
        "pixels_swapped": [
            int(rect_union(img.shape[:2], result.swapped_rects.get(cam_id, [])).sum())
            for cam_id, img in enumerate(result.sample.images)
        ],
    }
    out = Path(args.out)
    _write_sample(out, result.sample)
    formats.write_provenance(out / "provenance.pvox", result.grid.indices3, result.grid.source)
    inputs = [Path(args.org) / "cloud.plcd", Path(args.new) / "cloud.plcd"]
    _write_manifest(out, "augment", args._argv, args.seed, args.config, inputs, {"augment": dt}, counters)
    return 0


def _feature_maps(args, cfg, cams) -> list[FeatureMap]:
    dim = cfg.tokens.dim
    if args.features:
        data = formats.read_feature_maps(args.features)
        if data.shape[0] != len(cams):
            raise ShapeMismatchError(f"feature maps cover {data.shape[0]} cameras, rig has {len(cams)}")
        if data.shape[3] != dim:
            raise ShapeMismatchError(f"feature dim {data.shape[3]} != configured {dim}")
        return [FeatureMap(data[k], cams[k].width, cams[k].height) for k in range(len(cams))]
    ds = max(1, cfg.tokens.feat_downsample)
    maps = []
    for k, cam in enumerate(cams):
        h, w = max(1, cam.height // ds), max(1, cam.width // ds)
        rng = np.random.default_rng([cfg.tokens.seed, k])
        maps.append(FeatureMap(rng.standard_normal((h, w, dim)).astype(np.float32), cam.width, cam.height))
    return maps


def _spe_params(cfg) -> SpeParams:
    if cfg.tokens.weights_path:
        # SPEW holds no seed; the placeholder queries draw from the configured one
        return dataclasses.replace(formats.read_spe_params(cfg.tokens.weights_path), seed=cfg.tokens.seed)
    return SpeParams.create(cfg.grid, cfg.tokens.dim, cfg.tokens.seed)


def cmd_fuse(args) -> int:
    cfg = _load_cfg(args)
    sample = _load_sample(args.sample)
    t0 = time.perf_counter()
    grid = voxelize(sample.cloud, cfg.grid)
    fmaps = _feature_maps(args, cfg, sample.cams)
    params = _spe_params(cfg)
    feats = VoxelFeatures.stats_placeholder(grid, cfg.tokens.dim, cfg.tokens.seed)
    tokens = build_tokens(grid, feats, fmaps, sample.cams, params, bilinear=cfg.tokens.bilinear)
    dt = time.perf_counter() - t0
    counters = {
        "points_in": len(sample.cloud),
        "points_dropped": len(grid.dropped),
        "occupied_voxels": grid.num_voxels,
        # voxels with a valid projection in some camera, i.e. a non-zero image half
        "image_valid_voxels": int(tokens.image_valid.sum()),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_tokens(out / "tokens.toks", tokens)
    inputs = [Path(args.sample) / "cloud.plcd"] + ([args.features] if args.features else [])
    _write_manifest(out, "fuse", args._argv, cfg.tokens.seed, args.config, inputs, {"fuse": dt}, counters)
    return 0


def cmd_queries(args) -> int:
    cfg = _load_cfg(args)
    sample = _load_sample(args.sample)
    t0 = time.perf_counter()
    grid = voxelize(sample.cloud, cfg.grid)
    idx3, content = formats.read_tokens(args.tokens, cfg.grid)
    flat = cfg.grid.flatten(idx3)
    if not np.array_equal(flat, grid.voxel_ids):
        raise ShapeMismatchError("token voxels do not match the sample's grid")
    params = _spe_params(cfg)
    if content.shape[1] != 2 * params.dim:
        raise ShapeMismatchError(f"token dim {content.shape[1] // 2} != embedding dim {params.dim}")
    tokens = TokenSet(cfg.grid, flat, content)

    qc = cfg.queries
    heat = build_bev_heatmap(grid, qc.heatmap_mode, qc.heatmap_sigma)
    geo = geometric_hints(grid, heat, qc.nms_conf_thresh, qc.radius_in_bins(cfg.grid), qc.nms_max_peaks)
    masks = [formats.read_mask(p) for p in sorted(Path(args.masks).glob("*.msk2"))] if args.masks else []
    for mask in masks:
        cam = sample.cams[mask.camera_id] if mask.camera_id < len(sample.cams) else None
        if cam is None or mask.bitmap.shape != (cam.height, cam.width):
            raise ShapeMismatchError(f"{mask.bitmap.shape} mask of camera {mask.camera_id} does not fit the rig")
    tex = texture_hints(masks, sample.cloud, sample.cams, qc.dbscan_eps, qc.dbscan_min_pts)
    table = ClassTable.load(args.classes) if args.classes else ClassTable.synthetic()
    qs = assemble_queries(
        geo, tex, grid, tokens, params, qc.l_pr, qc.l_lt, num_classes=len(table.entries)
    )
    dt = time.perf_counter() - t0
    counters = {
        "hints_geometric": len(geo),
        "hints_texture": len(tex),
        "prior_queries": qs.num_prior,
        # prior queries whose hint lies in no occupied voxel, so took the nearest centroid's token
        "prior_fallback": int((containing_rows(grid, [h.position for h in qs.hints]) < 0).sum()),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_queries(out / "queries.qrys", qs)
    inputs = [Path(args.sample) / "cloud.plcd", args.tokens]
    _write_manifest(
        out, "queries", args._argv, cfg.tokens.seed, args.config, inputs, {"queries": dt}, counters
    )
    return 0


def cmd_eval(args) -> int:
    pred_cloud = formats.read_point_cloud(args.pred)
    gt_cloud = formats.read_point_cloud(args.gt)
    table = ClassTable.load(args.classes)
    t0 = time.perf_counter()
    report = evaluate(
        SegLabeling(pred_cloud.semantic, pred_cloud.instance, table),
        SegLabeling(gt_cloud.semantic, gt_cloud.instance, table),
        min_points=args.min_points,
    )
    dt = time.perf_counter() - t0
    out_path = Path(args.report)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(report.to_dict(), indent=1))
    agg = report.to_dict()["aggregates"]
    print(
        f"PQ {agg['pq']:.4f}  SQ {agg['sq']:.4f}  RQ {agg['rq']:.4f}  "
        f"PQ_dagger {agg['pq_dagger']:.4f}  mIoU {agg['miou']:.4f}  ({dt:.3f}s)"
    )
    return 0


def cmd_render_overlay(args) -> int:
    sample = _load_sample(args.sample)
    images = render_overlay(sample.cloud, sample.images, sample.cams)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k, img in enumerate(images):
        formats.write_ppm(out / f"overlay{k:02d}.ppm", img)
    _write_manifest(out, "render-overlay", args._argv, None, None, [Path(args.sample) / "cloud.plcd"], {})
    return 0


def cmd_replay(args) -> int:
    try:
        argv = list(json.loads(Path(args.manifest).read_text())["argv"])
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise BadConfigError(f"cannot parse manifest {args.manifest}: {exc}") from exc
    if "--out" in argv:
        argv[argv.index("--out") + 1] = args.out
    else:
        argv += ["--out", args.out]
    return main(argv)


def cmd_init_config(args) -> int:
    save_config(args.out, PipelineConfig())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cylpano", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, seed=False):
        sp.add_argument("--config", default=None, help="pipeline config (INI)")
        sp.add_argument("--out", required=True, help="output directory")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("synth", help="generate a synthetic multi-modal sample")
    common(sp, seed=True)
    sp.set_defaults(func=cmd_synth)

    sp = sub.add_parser("voxelize", help="voxelize a point cloud and report occupancy")
    common(sp)
    sp.add_argument("--cloud", required=True)
    sp.set_defaults(func=cmd_voxelize)

    sp = sub.add_parser("augment", help="mix two samples with synchronized image swaps")
    common(sp, seed=True)
    sp.add_argument("--org", required=True, help="original sample directory")
    sp.add_argument("--new", required=True, help="second sample directory")
    sp.set_defaults(func=cmd_augment)

    sp = sub.add_parser("fuse", help="build fused voxel/image tokens")
    common(sp)
    sp.add_argument("--sample", required=True)
    sp.add_argument("--features", default=None, help="optional FMAP feature tensor")
    sp.set_defaults(func=cmd_fuse)

    sp = sub.add_parser("queries", help="seed decoder queries from modality priors")
    common(sp)
    sp.add_argument("--sample", required=True)
    sp.add_argument("--tokens", required=True)
    sp.add_argument("--masks", default=None, help="directory of MSK2 masks")
    sp.add_argument("--classes", default=None)
    sp.set_defaults(func=cmd_queries)

    sp = sub.add_parser("eval", help="panoptic evaluation of pred vs gt labels")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--gt", required=True)
    sp.add_argument("--classes", required=True)
    sp.add_argument("--report", required=True)
    sp.add_argument("--min-points", type=int, default=0)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("render-overlay", help="paint projected labels onto the images")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--sample", required=True)
    sp.set_defaults(func=cmd_render_overlay)

    sp = sub.add_parser("replay", help="re-run a stage from its manifest")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_replay)

    sp = sub.add_parser("init-config", help="write the default config file")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_init_config)
    return p


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except PipelineError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"IoError: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
