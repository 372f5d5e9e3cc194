"""Command-line pipeline: synth | voxelize | augment | fuse | queries | eval | render-overlay | replay | batch.

Every stage writes its artifacts plus a manifest.json recording the argv,
seed, config hash, and the content hashes of every file the stage's `formats`
codecs read (inputs) and wrote (outputs, each hashed from the bytes written).
`cylpano replay` re-runs the stage a manifest records: first it checks that the
config and every input still hash as recorded, then that the rerun's outputs
hash as the recorded outputs, and it exits 1 naming the files that differ.
`cylpano batch` runs stage command lines, one per line, from a file or stdin,
in one process, and stops at the first line that fails. Stage errors exit
nonzero with the error name on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import os
import shlex
import sys
import time
from pathlib import Path

# One BLAS and one OpenMP thread unless the user set a count, before numpy is imported: `build_tokens`
# fills in two lanes of its own, and a BLAS pool on top of them oversubscribes a 2-CPU host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
# numpy loads these on first use (np.random.default_rng, and np.unique through np.ma.is_masked); every chain
# stage but voxelize uses one, so they load with the CLI and no stage's timings include their import
import numpy.ma  # noqa: F401
import numpy.random  # noqa: F401

from . import formats
from .augment import MultiModalSample, augment, rect_union
from .config import PipelineConfig, load_config, save_config
from .errors import BadConfigError, PipelineError, ReplayMismatchError, ShapeMismatchError
from .grid import voxelize
from .metrics import ClassTable, SegLabeling, evaluate
from .queries import assemble_queries, build_bev_heatmap, geometric_hints, placeholder_queries, texture_hints
from .synth import generate_scene, render_overlay
from .tokens import FeatureMap, SpeParams, TokenSet, VoxelFeatures, build_tokens, containing_rows


def _write_manifest(args, seed, timings, counters=None):
    """manifest.json in the stage's `--out`, listing the files its codecs read and wrote (`_dispatch` records them).

    It seals every digest taken so far, so a later stage that reads one of these files need not hash it again.
    """
    (read, written), out_dir, config_path = args._run, Path(args.out), getattr(args, "config", None)
    # one read, so the hash is of the bytes the snapshot shows
    config = Path(config_path).read_bytes() if config_path else None
    manifest = {
        "version": 2,
        "command": args.command,
        "argv": args._argv,
        "seed": seed,
        "config": str(config_path) if config_path else None,
        "config_sha256": hashlib.sha256(config).hexdigest() if config_path else None,
        # decoded as `Path.read_text` decodes: the locale's encoding, universal newlines
        "config_snapshot": io.TextIOWrapper(io.BytesIO(config)).read() if config_path else None,
        "inputs": {path: formats.file_sha256(path) for path in read},
        "outputs": {str(path.relative_to(out_dir)): sha256 for path, sha256 in sorted(written.items())},
        "timings": timings,
        "counters": counters or {},
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1))
    formats.seal(out_dir / "manifest.json")


def _load_cfg(args) -> PipelineConfig:
    return load_config(args.config) if args.config else PipelineConfig()


def _load_sample(sample_dir) -> MultiModalSample:
    sample_dir = Path(sample_dir)
    cloud = formats.read_point_cloud(sample_dir / "cloud.plcd")
    cams = formats.read_calibration(sample_dir / "calib.json")
    # the names `_write_sample` gives, so an image left by a run with more cameras is not read
    paths = [sample_dir / "images" / f"cam{k:02d}.ppm" for k in range(len(cams))]
    images = [formats.read_ppm(p) for p in paths]
    for path, img, cam in zip(paths, images, cams):
        if img.shape[:2] != (cam.height, cam.width):
            raise ShapeMismatchError(f"{path}: {img.shape[1]}x{img.shape[0]} image vs {cam.width}x{cam.height} camera")
    return MultiModalSample(cloud, images, cams)


def _write_sample(out_dir: Path, sample: MultiModalSample):
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
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
    for stale in (out / "masks").glob("mask_*.msk2"):  # queries --masks reads every mask there
        stale.unlink()
    for i, mask in enumerate(synth.masks):
        formats.write_mask(out / "masks" / f"mask_{i:03d}.msk2", mask)
    formats.write_class_table(out / "classes.cfg", synth.table)
    _write_manifest(args, args.seed, {"synth": time.perf_counter() - t0})
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
    formats.write_json(out / "summary.json", {"points": len(cloud), "occupied_voxels": grid.num_voxels,
                                              "dropped_points": int(len(grid.dropped)), "grid": list(cfg.grid.shape)})
    _write_manifest(args, None, {"voxelize": dt})
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
    _write_manifest(args, args.seed, {"augment": dt}, counters)
    return 0


# the last rig's placeholder maps, by ([tokens] seed, camera index, map height, map width, dim)
_PLACEHOLDER_MAPS: dict[tuple, np.ndarray] = {}


def _draw_placeholder(seed: int, k: int, h: int, w: int, dim: int) -> np.ndarray:
    data = placeholder_queries(h * w, dim, seed, k).reshape(h, w, dim)
    data.flags.writeable = False  # every later call with the same key shares it
    return data


def _feature_maps(args, cfg, cams) -> list[FeatureMap]:
    dim = cfg.tokens.dim
    if args.features:
        data = formats.read_feature_maps(args.features)
        if data.shape[0] != len(cams):
            raise ShapeMismatchError(f"feature maps cover {data.shape[0]} cameras, rig has {len(cams)}")
        if data.shape[3] != dim:
            raise ShapeMismatchError(f"feature dim {data.shape[3]} != configured {dim}")
        return [FeatureMap(data[k], cams[k].width, cams[k].height) for k in range(len(cams))]
    ds = cfg.tokens.feat_downsample
    keys = [(cfg.tokens.seed, k, max(1, cam.height // ds), max(1, cam.width // ds), dim) for k, cam in enumerate(cams)]
    maps = {key: _PLACEHOLDER_MAPS[key] if key in _PLACEHOLDER_MAPS else _draw_placeholder(*key) for key in keys}
    _PLACEHOLDER_MAPS.clear()
    _PLACEHOLDER_MAPS.update(maps)
    return [FeatureMap(maps[key], cam.width, cam.height) for key, cam in zip(keys, cams)]


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
    _write_manifest(args, cfg.tokens.seed, {"fuse": dt}, counters)
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
    table = formats.read_class_table(args.classes) if args.classes else ClassTable.synthetic()
    qs = assemble_queries(geo, tex, grid, tokens, params, qc.l_pr, qc.l_lt, num_classes=len(table.entries))
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
    _write_manifest(args, cfg.tokens.seed, {"queries": dt}, counters)
    return 0


def cmd_eval(args) -> int:
    pred_cloud = formats.read_point_cloud(args.pred)
    gt_cloud = formats.read_point_cloud(args.gt)
    table = formats.read_class_table(args.classes)
    t0 = time.perf_counter()
    report = evaluate(
        SegLabeling(pred_cloud.semantic, pred_cloud.instance, table),
        SegLabeling(gt_cloud.semantic, gt_cloud.instance, table),
        min_points=args.min_points,
    )
    dt = time.perf_counter() - t0
    Path(args.report).parent.mkdir(parents=True, exist_ok=True)
    scores = report.to_dict()
    formats.write_json(args.report, scores)
    agg = scores["aggregates"]
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
    _write_manifest(args, None, {})
    return 0


def _changed(recorded: dict[str, str], root: Path) -> list[str]:
    """The names in `recorded` whose file under `root` is gone or no longer hashes to the recorded sha256."""
    changed = []
    for name, digest in recorded.items():
        try:
            same = formats.file_sha256(root / name) == digest
        except OSError:
            same = False
        if not same:
            changed.append(name)
    return changed


# the stages that write a manifest, so the ones a manifest can replay
_REPLAYABLE = ("synth", "voxelize", "augment", "fuse", "queries", "render-overlay")


def cmd_replay(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
        argv, inputs, outputs = manifest["argv"], dict(manifest["inputs"]), dict(manifest["outputs"])
        if manifest["config"] is not None:
            inputs[manifest["config"]] = manifest["config_sha256"]
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers bad JSON and bad UTF-8
        raise BadConfigError(f"cannot parse manifest {args.manifest}: {exc}") from exc
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise BadConfigError(f"manifest {args.manifest}: argv is not a list of strings")
    if not argv or argv[0] not in _REPLAYABLE:
        raise BadConfigError(f"manifest {args.manifest}: argv runs none of {', '.join(_REPLAYABLE)}")
    if argv[-1] == "--out":
        raise BadConfigError(f"manifest {args.manifest}: argv ends in --out with no value")
    changed = _changed(inputs, Path())
    if changed:
        raise ReplayMismatchError(f"inputs differ from {args.manifest}: {', '.join(changed)}")
    if "--out" in argv:
        argv[argv.index("--out") + 1] = args.out
    else:
        argv += ["--out", args.out]
    _dispatch(argv)
    rerun = json.loads((Path(args.out) / "manifest.json").read_text())["outputs"]
    changed = _changed(outputs, Path(args.out)) + sorted(rerun.keys() - outputs.keys())
    if changed:
        raise ReplayMismatchError(f"outputs differ from {args.manifest}: {', '.join(changed)}")
    return 0


def cmd_batch(args) -> int:
    source = "stdin" if args.lines == "-" else args.lines
    try:
        text = sys.stdin.read() if args.lines == "-" else Path(args.lines).read_text()
    except UnicodeDecodeError as exc:  # decoded as the locale's encoding
        raise BadConfigError(f"cannot decode command lines from {source}: {exc}") from exc
    for n, line in enumerate(text.splitlines(), 1):
        try:
            try:
                argv = shlex.split(line, comments=True)  # a blank line or a `#` line splits to nothing
            except ValueError as exc:  # an unclosed quote
                raise BadConfigError(str(exc)) from exc
            if argv and argv[0] == "batch":
                raise BadConfigError("a batch cannot run another batch")
            code = _dispatch(argv) if argv else 0
        except (PipelineError, OSError) as e:
            print(f"line {n}: {_error_text(e)}", file=sys.stderr)
            return 1
        except SystemExit as e:  # from argparse, which has printed the usage or the help
            code = e.code
        if code:
            print(f"line {n}: exit {code}", file=sys.stderr)
            return 1
    return 0


def cmd_init_config(args) -> int:
    save_config(args.out, PipelineConfig())
    return 0


@functools.cache  # one parser per process: every stage call of a chain reuses it
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
    sp.set_defaults(func=cmd_synth.__name__)

    sp = sub.add_parser("voxelize", help="voxelize a point cloud and report occupancy")
    common(sp)
    sp.add_argument("--cloud", required=True)
    sp.set_defaults(func=cmd_voxelize.__name__)

    sp = sub.add_parser("augment", help="mix two samples with synchronized image swaps")
    common(sp, seed=True)
    sp.add_argument("--org", required=True, help="original sample directory")
    sp.add_argument("--new", required=True, help="second sample directory")
    sp.set_defaults(func=cmd_augment.__name__)

    sp = sub.add_parser("fuse", help="build fused voxel/image tokens")
    common(sp)
    sp.add_argument("--sample", required=True)
    sp.add_argument("--features", default=None, help="optional FMAP feature tensor")
    sp.set_defaults(func=cmd_fuse.__name__)

    sp = sub.add_parser("queries", help="seed decoder queries from modality priors")
    common(sp)
    sp.add_argument("--sample", required=True)
    sp.add_argument("--tokens", required=True)
    sp.add_argument("--masks", default=None, help="directory of MSK2 masks")
    sp.add_argument("--classes", default=None)
    sp.set_defaults(func=cmd_queries.__name__)

    sp = sub.add_parser("eval", help="panoptic evaluation of pred vs gt labels")
    sp.add_argument("--pred", required=True)
    sp.add_argument("--gt", required=True)
    sp.add_argument("--classes", required=True)
    sp.add_argument("--report", required=True)
    sp.add_argument("--min-points", type=int, default=0)
    sp.set_defaults(func=cmd_eval.__name__)

    sp = sub.add_parser("render-overlay", help="paint projected labels onto the images")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--sample", required=True)
    sp.set_defaults(func=cmd_render_overlay.__name__)

    sp = sub.add_parser("replay", help="re-run a stage from its manifest")
    sp.add_argument("--manifest", required=True)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_replay.__name__)

    sp = sub.add_parser("batch", help="run stage command lines, one per line, in this process")
    sp.add_argument("lines", help="file of stage command lines, or - for stdin")
    sp.set_defaults(func=cmd_batch.__name__)

    sp = sub.add_parser("init-config", help="write the default config file")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_init_config.__name__)
    return p


def _dispatch(argv: list[str]) -> int:
    """Parse one command line and run its stage; the stage's errors propagate."""
    args = build_parser().parse_args(argv)
    args._argv = list(argv)
    if getattr(args, "seed", 0) < 0:  # numpy generators take non-negative seeds
        raise BadConfigError(f"--seed must be >= 0, got {args.seed}")
    # by name when it runs, so a `cmd_*` replaced after the parser was built is the one called
    with formats.recording() as args._run:
        return globals()[args.func](args)


def _error_text(e: Exception) -> str:
    return f"IoError: {e}" if isinstance(e, OSError) else f"{type(e).__name__}: {e}"


def main(argv=None) -> int:
    try:
        return _dispatch(sys.argv[1:] if argv is None else argv)
    except (PipelineError, OSError) as e:
        print(_error_text(e), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
