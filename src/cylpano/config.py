"""Pipeline configuration: typed sections over an INI file.

Numeric defaults follow the reference setup: a 480 x 360 x 32 grid over
[0, 50] m x [0, 2*pi] x [-5, 3] m, 640 x 360 images, mixing probabilities
0.4 / 0.05 / 0.05 with split counts drawn from {3, 4, 5}, and 128 prior plus
128 no-prior queries.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields

from .augment import AugConfig
from .errors import BadConfigError
from .grid import CylGridSpec
from .synth import SceneConfig

CONFIG_VERSION = 1


@dataclass
class TokenConfig:
    dim: int = 128
    seed: int = 0
    feat_downsample: int = 8
    bilinear: bool = False
    weights_path: str = ""


@dataclass
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

    def radius_in_bins(self, spec: CylGridSpec) -> float:
        if self.nms_radius_unit == "bins":
            return self.nms_radius
        if self.nms_radius_unit == "meters":
            r_width = (spec.r_range[1] - spec.r_range[0]) / spec.r_bins
            return self.nms_radius / r_width
        raise BadConfigError(f"unknown nms_radius_unit {self.nms_radius_unit!r}")


@dataclass
class PipelineConfig:
    version: int = CONFIG_VERSION
    grid: CylGridSpec = field(default_factory=CylGridSpec)
    image_size: tuple[int, int] = (640, 360)
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


def save_config(path, cfg: PipelineConfig):
    cp = configparser.ConfigParser()
    cp["pipeline"] = {"version": str(cfg.version)}
    cp["grid"] = {
        "r_bins": str(cfg.grid.r_bins),
        "theta_bins": str(cfg.grid.theta_bins),
        "z_bins": str(cfg.grid.z_bins),
        "r_min": _fmt(cfg.grid.r_range[0]),
        "r_max": _fmt(cfg.grid.r_range[1]),
        "z_min": _fmt(cfg.grid.z_range[0]),
        "z_max": _fmt(cfg.grid.z_range[1]),
    }
    cp["image"] = {"width": str(cfg.image_size[0]), "height": str(cfg.image_size[1])}
    for section, obj in (("augment", cfg.augment), ("tokens", cfg.tokens), ("queries", cfg.queries), ("synth", cfg.synth)):
        cp[section] = {f.name: _fmt(getattr(obj, f.name)) for f in fields(obj)}
    with open(path, "w") as f:
        cp.write(f)


def _parse(section, name, kind, default):
    raw = section.get(name)
    if raw is None:
        return default
    try:
        if kind is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        if kind in (int, float, str):
            return kind(raw)
        if isinstance(default, tuple):
            elem = type(default[0]) if default else float
            return tuple(elem(v) for v in raw.split(",") if v != "")
    except (TypeError, ValueError) as exc:
        raise BadConfigError(f"bad value for {name}: {raw!r}") from exc
    raise BadConfigError(f"cannot parse option {name}")


def _load_section(cp, name, cls, **overrides):
    section = cp[name] if name in cp else {}
    kwargs = {}
    for f in fields(cls):
        default = overrides.get(f.name, getattr(cls(), f.name))
        kind = type(default)
        kwargs[f.name] = _parse(section, f.name, kind if kind is not tuple else tuple, default)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise BadConfigError(f"[{name}] {exc}") from exc


def load_config(path) -> PipelineConfig:
    cp = configparser.ConfigParser()
    try:
        if not cp.read(path):
            raise BadConfigError(f"cannot read config {path}")
    except configparser.Error as exc:  # no section header, a duplicate key, ...
        raise BadConfigError(f"malformed config {path}: {exc}") from exc
    pipe = cp["pipeline"] if "pipeline" in cp else {}
    version = _parse(pipe, "version", int, CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise BadConfigError(f"unsupported config version {version}")

    g = cp["grid"] if "grid" in cp else {}
    try:
        grid = CylGridSpec(
            _parse(g, "r_bins", int, 480),
            _parse(g, "theta_bins", int, 360),
            _parse(g, "z_bins", int, 32),
            (_parse(g, "r_min", float, 0.0), _parse(g, "r_max", float, 50.0)),
            (_parse(g, "z_min", float, -5.0), _parse(g, "z_max", float, 3.0)),
        )
    except ValueError as exc:
        raise BadConfigError(f"[grid] {exc}") from exc
    im = cp["image"] if "image" in cp else {}
    image_size = (_parse(im, "width", int, 640), _parse(im, "height", int, 360))

    cfg = PipelineConfig(
        version=version,
        grid=grid,
        image_size=image_size,
        augment=_load_section(cp, "augment", AugConfig),
        tokens=_load_section(cp, "tokens", TokenConfig),
        queries=_load_section(cp, "queries", QueryConfig),
        synth=_load_section(cp, "synth", SceneConfig, image_size=image_size),
    )
    if cfg.tokens.weights_path:
        # relative to the config file, so a stage may run from any directory
        cfg.tokens.weights_path = os.path.join(os.path.dirname(os.fspath(path)), cfg.tokens.weights_path)
        if not os.path.exists(cfg.tokens.weights_path):
            raise BadConfigError(f"weights_path {cfg.tokens.weights_path!r} does not exist")
    return cfg
