"""The whole chain over drawn configs, through `cylpano batch` in this process.

A legal config, with a small `[synth]` (at most 3,000 points a scene) and a
grid of at most 64 x 72 x 8, runs synth twice, then voxelize, augment, fuse,
queries and eval with exit 0, so every artifact a stage writes loads in the
next stage. A config with one illegal value stops the batch at its first
line with exit 1 and `BadConfigError`.
"""

import configparser
import contextlib
import io
import shlex

from hypothesis import given, settings
from hypothesis import strategies as st

from cylpano.augment import AugConfig
from cylpano.cli import main
from cylpano.config import PipelineConfig, QueryConfig, TokenConfig, save_config
from cylpano.grid import CylGridSpec
from cylpano.synth import SceneConfig

SEED = st.integers(0, 2**32 - 1)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def ordered(elem):
    """A pair lo <= hi."""
    return st.lists(elem, min_size=2, max_size=2).map(lambda v: tuple(sorted(v)))


@st.composite
def small_configs(draw):
    """A legal config whose scenes hold at most 3,000 points and whose grid at most 64 x 72 x 8 cells."""
    r_min, z_min = draw(floats(0.0, 10.0)), draw(floats(-8.0, 0.0))
    grid = CylGridSpec(draw(st.integers(1, 64)), draw(st.integers(1, 72)), draw(st.integers(1, 8)),
                       (r_min, r_min + draw(floats(0.5, 60.0))), (z_min, z_min + draw(floats(0.5, 12.0))))
    mode = draw(st.sampled_from(["independent", "categorical"]))
    p_instance = draw(floats(0.0, 1.0))
    p_height = draw(floats(0.0, 1.0 - p_instance if mode == "categorical" else 1.0))
    p_angle = draw(floats(0.0, max(0.0, 1.0 - p_instance - p_height) if mode == "categorical" else 1.0))
    augment = AugConfig(
        p_instance=p_instance, p_height_swap=p_height, p_angle_swap=p_angle,
        split_choices=tuple(draw(st.lists(st.integers(1, 80), min_size=1, max_size=4))),
        instance_count_range=draw(ordered(st.integers(0, 8))), strategy_mode=mode,
        paste_translation=draw(floats(0.0, 10.0)), paste_rotation=draw(floats(0.0, 7.0)),
        paste_scale_range=draw(ordered(floats(0.1, 3.0))), rotation_range=draw(floats(0.0, 7.0)),
        flip_prob=draw(floats(0.0, 1.0)), scale_range=draw(ordered(floats(0.1, 3.0))), rng_seed=draw(SEED),
    )
    tokens = TokenConfig(dim=draw(st.integers(1, 32)), seed=draw(SEED), feat_downsample=draw(st.integers(1, 64)),
                         bilinear=draw(st.booleans()))
    queries = QueryConfig(
        l_pr=draw(st.integers(1, 64)), l_lt=draw(st.integers(0, 64)), nms_conf_thresh=draw(floats(-1.0, 2.0)),
        nms_radius=draw(floats(0.0, 20.0)), nms_radius_unit=draw(st.sampled_from(["bins", "meters"])),
        nms_max_peaks=draw(st.integers(0, 64)), dbscan_eps=draw(floats(0.05, 5.0)),
        dbscan_min_pts=draw(st.integers(1, 20)), heatmap_mode=draw(st.sampled_from(["gt_gaussian", "density"])),
        heatmap_sigma=draw(floats(0.0, 1e6)),
    )
    extent = draw(floats(0.5, 60.0))
    synth = SceneConfig(  # 1,500 ground points and 6 objects of 250 points at most
        rng_seed=draw(SEED), n_objects=draw(ordered(st.integers(0, 6))), extent=extent,
        ground_points=draw(st.integers(0, 1500)), points_per_object=draw(ordered(st.integers(0, 250))),
        box_size=draw(ordered(floats(0.1, 4.0))), pillar_radius=draw(ordered(floats(0.05, 1.5))),
        pillar_height=draw(ordered(floats(0.1, 6.0))), wall_length=draw(ordered(floats(0.5, 10.0))),
        min_center_dist=draw(floats(-5.0, 0.85 * extent)), camera_count=draw(st.integers(1, 3)),
        image_size=(draw(st.integers(1, 128)), draw(st.integers(1, 96))), focal=draw(floats(1.0, 400.0)),
        cam_height=draw(floats(-3.0, 5.0)), splat_radius=draw(st.integers(0, 3)), scan_id=draw(st.integers(0, 255)),
    )
    return PipelineConfig(grid=grid, augment=augment, tokens=tokens, queries=queries, synth=synth)


# (section, key, value) entries of a config file, each illegal on its own
ILLEGAL = [
    ("grid", "r_bins", "0"), ("grid", "z_bins", "-3"), ("grid", "r_min", "-1.0"), ("grid", "z_max", "nan"),
    ("image", "width", "0"), ("augment", "p_instance", "1.5"), ("augment", "split_choices", ""),
    ("augment", "strategy_mode", "sometimes"), ("augment", "scale_range", "0.0,1.0"),
    ("augment", "rotation_range", "inf"), ("augment", "paste_rotation", "-1.0"), ("tokens", "dim", "0"),
    ("tokens", "bilinear", "maybe"), ("tokens", "seed", "-1"), ("queries", "heatmap_mode", "peaks"),
    ("queries", "dbscan_eps", "0.0"), ("queries", "l_pr", "0"), ("synth", "n_objects", "5,2"),
    ("synth", "extent", "0.0"), ("synth", "camera_count", "0"), ("synth", "scan_id", "256"),
    ("synth", "focal", "nan"), ("synth", "ground_points", "many"), ("pipeline", "version", "2"),
]


def _batch(tmp_path_factory, text: str, seed: int) -> tuple[int, str]:
    """Exit code and stderr of the whole chain, as one `cylpano batch`, under the config file `text`."""
    root = tmp_path_factory.mktemp("chain")
    config = root / "pipeline.cfg"
    config.write_text(text)
    org, new, aug = (str(root / d) for d in ("org", "new", "aug"))
    chain = [
        ["synth", "--config", config, "--seed", seed, "--out", org],
        ["synth", "--config", config, "--seed", seed + 1, "--out", new],
        ["voxelize", "--config", config, "--cloud", f"{org}/cloud.plcd", "--out", root / "vox"],
        ["augment", "--config", config, "--seed", seed, "--org", org, "--new", new, "--out", aug],
        ["fuse", "--config", config, "--sample", aug, "--out", root / "fuse"],
        ["queries", "--config", config, "--sample", aug, "--tokens", root / "fuse" / "tokens.toks",
         "--masks", f"{org}/masks", "--classes", f"{org}/classes.cfg", "--out", root / "queries"],
        ["eval", "--pred", f"{aug}/cloud.plcd", "--gt", f"{aug}/cloud.plcd", "--classes", f"{org}/classes.cfg",
         "--report", root / "eval" / "report.json"],
    ]
    (root / "chain.txt").write_text("".join(shlex.join(map(str, argv)) + "\n" for argv in chain))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(["batch", str(root / "chain.txt")])
    return code, err.getvalue()


def _config_text(tmp_path_factory, cfg: PipelineConfig) -> str:
    path = tmp_path_factory.mktemp("cfg") / "pipeline.cfg"
    save_config(path, cfg)
    return path.read_text()


class TestChainOverConfigs:
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(cfg=small_configs(), seed=SEED)
    def test_every_legal_config_runs_the_whole_chain(self, tmp_path_factory, cfg, seed):
        code, err = _batch(tmp_path_factory, _config_text(tmp_path_factory, cfg), seed)
        assert (code, err) == (0, "")

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(cfg=small_configs(), illegal=st.sampled_from(ILLEGAL))
    def test_one_illegal_value_stops_the_chain_at_its_first_line(self, tmp_path_factory, cfg, illegal):
        section, key, value = illegal
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_string(_config_text(tmp_path_factory, cfg))
        cp[section][key] = value
        text = io.StringIO()
        cp.write(text)
        code, err = _batch(tmp_path_factory, text.getvalue(), 0)
        assert code == 1
        assert err.startswith("line 1: BadConfigError: "), err
