"""Pipeline configuration: typed sections over an INI file.

Numeric defaults follow the reference setup: a 480 x 360 x 32 grid over
[0, 50] m x [0, 2*pi] x [-5, 3] m, 640 x 360 images, mixing probabilities
0.4 / 0.05 / 0.05 with split counts drawn from {3, 4, 5}, and 128 prior plus
128 no-prior queries.
"""

from __future__ import annotations

import configparser
import copy
import functools
import math
import os
from dataclasses import dataclass, field, fields

from .augment import AugConfig
from .errors import BadConfigError
from .grid import CylGridSpec
from .synth import SceneConfig

CONFIG_VERSION = 1


@dataclass(slots=True)
class TokenConfig:
    dim: int = 128
    seed: int = 0
    feat_downsample: int = 8
    bilinear: bool = False
    weights_path: str = ""

    def __post_init__(self):
        if self.dim < 1 or self.feat_downsample < 1 or self.seed < 0:  # numpy generators take non-negative seeds
            raise ValueError("need dim >= 1, feat_downsample >= 1 and seed >= 0")


@dataclass(slots=True)
class QueryConfig:
    l_pr: int = 128
    l_lt: int = 128
    nms_conf_thresh: float = 0.1
    nms_radius: float = 4.0
    nms_radius_unit: str = "bins"  # or "meters"
    nms_max_peaks: int = 128
    dbscan_eps: float = 0.8
    dbscan_min_pts: int = 5
    heatmap_mode: str = "gt_gaussian"
    heatmap_sigma: float = 2.0

    def __post_init__(self):
        if self.heatmap_mode not in ("gt_gaussian", "density"):
            raise ValueError("heatmap_mode must be 'gt_gaussian' or 'density'")
        if self.nms_radius_unit not in ("bins", "meters"):
            raise ValueError("nms_radius_unit must be 'bins' or 'meters'")
        if not (math.isfinite(self.heatmap_sigma) and self.heatmap_sigma >= 0):
            raise ValueError("heatmap_sigma must be finite and >= 0")
        if not (math.isfinite(self.nms_radius) and self.nms_radius >= 0):
            raise ValueError("nms_radius must be finite and >= 0")
        if not math.isfinite(self.nms_conf_thresh):
            raise ValueError("nms_conf_thresh must be finite")
        if not (math.isfinite(self.dbscan_eps) and self.dbscan_eps > 0):
            raise ValueError("dbscan_eps must be finite and > 0")
        if self.dbscan_min_pts < 1 or self.l_pr < 1 or self.l_lt < 0 or self.nms_max_peaks < 0:
            raise ValueError("need dbscan_min_pts >= 1, l_pr >= 1, l_lt >= 0 and nms_max_peaks >= 0")

    def radius_in_bins(self, spec: CylGridSpec) -> float:
        if self.nms_radius_unit == "meters":
            r_width = (spec.r_range[1] - spec.r_range[0]) / spec.r_bins
            return self.nms_radius / r_width
        return self.nms_radius


@dataclass(slots=True)
class PipelineConfig:
    grid: CylGridSpec = field(default_factory=CylGridSpec)
    augment: AugConfig = field(default_factory=AugConfig)
    tokens: TokenConfig = field(default_factory=TokenConfig)
    queries: QueryConfig = field(default_factory=QueryConfig)
    synth: SceneConfig = field(default_factory=SceneConfig)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def _layout(cfg: PipelineConfig) -> dict[str, dict]:
    """Section -> key -> value of the INI file that holds `cfg`."""
    g = cfg.grid
    layout = {
        "pipeline": {"version": CONFIG_VERSION},  # the file format's, not a setting
        "grid": {"r_bins": g.r_bins, "theta_bins": g.theta_bins, "z_bins": g.z_bins, "r_min": g.r_range[0],
                 "r_max": g.r_range[1], "z_min": g.z_range[0], "z_max": g.z_range[1]},
        "image": {"width": cfg.synth.image_size[0], "height": cfg.synth.image_size[1]},
    }
    for section in ("augment", "tokens", "queries", "synth"):
        obj = getattr(cfg, section)
        # [image] sets the synthetic cameras' size
        layout[section] = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name != "image_size"}
    return layout


def save_config(path, cfg: PipelineConfig):
    cp = configparser.ConfigParser(interpolation=None)
    for section, values in _layout(cfg).items():
        cp[section] = {key: _fmt(value) for key, value in values.items()}
    with open(path, "w") as f:
        cp.write(f)


def _parse(cp, section, name, default):
    raw = cp.get(section, name, fallback=None)
    if raw is None:
        return default
    kind = type(default)
    try:
        if kind is bool:  # only configparser's BOOLEAN_STATES, so a typo is not read as false
            return cp.getboolean(section, name)
        if kind in (int, float, str):
            return kind(raw)
        if kind is tuple:
            elem = type(default[0]) if default else float
            return tuple(elem(v) for v in raw.split(",") if v != "")
    except (TypeError, ValueError) as exc:
        raise BadConfigError(f"bad value for {name}: {raw!r}") from exc
    raise BadConfigError(f"cannot parse option {name}")


def _build(section, cls, *args, **kwargs):
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise BadConfigError(f"[{section}] {exc}") from exc


def load_config(path) -> PipelineConfig:
    """The config in the file at `path`, parsed once per text, path and directory; each call gets its own copy."""
    try:
        with open(path) as f:  # universal newlines, as configparser reads
            text = f.read()
    except OSError as exc:
        raise BadConfigError(f"cannot read config {path}") from exc
    except UnicodeDecodeError as exc:
        raise BadConfigError(f"cannot decode config {path}: {exc}") from exc
    # callers set seeds on what they get
    cfg = copy.deepcopy(_parse_config(text, path, os.path.dirname(os.path.abspath(path))))
    if cfg.tokens.weights_path and not os.path.exists(cfg.tokens.weights_path):
        raise BadConfigError(f"weights_path {cfg.tokens.weights_path!r} does not exist")
    return cfg


@functools.lru_cache(maxsize=1)  # the last config parsed; a text that fails to parse is not kept
def _parse_config(text: str, path, directory: str) -> PipelineConfig:
    """The config in `text`, read from `path`; a relative weights_path resolves against `directory`."""
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read_string(text, source=os.fspath(path))
    except configparser.Error as exc:  # no section header, a duplicate key, ...
        raise BadConfigError(f"malformed config {path}: {exc}") from exc
    layout = _layout(PipelineConfig())
    unknown = [f"[{section}]" for section in cp.sections() if section not in layout]
    unknown += [  # an older file's [synth] image_size is ignored: [image] sets the cameras' size
        f"[{section}] {key}" for section in cp.sections() if section in layout for key in cp[section]
        if key not in layout[section] and (section, key) != ("synth", "image_size")
    ]
    if unknown:
        raise BadConfigError(f"unknown config entries in {path}: {', '.join(unknown)}")
    version = _parse(cp, "pipeline", "version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise BadConfigError(f"unsupported config version {version}")

    parsed = {
        section: {key: _parse(cp, section, key, default) for key, default in values.items()}
        for section, values in layout.items()
    }
    g, image = parsed["grid"], parsed["image"]
    cfg = PipelineConfig(
        grid=_build("grid", CylGridSpec, g["r_bins"], g["theta_bins"], g["z_bins"],
                    (g["r_min"], g["r_max"]), (g["z_min"], g["z_max"])),
        augment=_build("augment", AugConfig, **parsed["augment"]),
        tokens=_build("tokens", TokenConfig, **parsed["tokens"]),
        queries=_build("queries", QueryConfig, **parsed["queries"]),
        synth=_build("synth", SceneConfig, **parsed["synth"], image_size=(image["width"], image["height"])),
    )
    if cfg.tokens.weights_path:
        # relative to the config file, so a stage may run from any directory and a saved copy loads back equal
        cfg.tokens.weights_path = os.path.abspath(os.path.join(directory, cfg.tokens.weights_path))
    return cfg
