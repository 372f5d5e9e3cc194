"""In-memory span recorder installed as wrappers around cylpano's public functions.

A span records its name, start, end, parent span and the sample it belongs to.
Wrappers replace each listed function in its defining module and wherever
another cylpano module, or the benchmark's workloads module, imported the
name, so calls through every path are seen.
Counters are computed from the wrapped calls' inputs and outputs; the time
spent computing them is recorded as a `trace.counter` span, so it is charged
to no layer's self time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from cylpano.geometry import cart_to_polar

# module -> public functions whose spans are recorded; cli commands map to stage names
LAYERS = {
    "grid": ["voxelize", "pair_voxel_image", "extreme_points_batch", "centroids_batch"],
    "augment": [
        "augment", "apply_mix", "sync_image_swap", "paste_instances",
        "scene_swap_mask", "instance_paste_mask",
    ],
    "tokens": ["build_tokens", "spe_batch", "stats_placeholder", "nearest_occupied_row"],
    "queries": [
        "build_bev_heatmap", "nms_peaks", "geometric_hints", "frustum_points",
        "dbscan", "texture_hints", "fps", "assemble_queries",
    ],
    "formats": [
        f"{op}_{kind}"
        for kind in ("tokens", "point_cloud", "ppm", "mask", "provenance", "queries")
        for op in ("read", "write")
    ],
    "metrics": ["evaluate", "match_segments", "miou"],
    "synth": ["generate_scene", "render_provenance"],
    "geometry": ["valid_projections"],
}
CLI_STAGES = {
    "cmd_synth": "synth", "cmd_voxelize": "voxelize", "cmd_augment": "augment",
    "cmd_fuse": "fuse", "cmd_queries": "queries", "cmd_eval": "eval",
}
STRATEGIES = ("none", "paste", "height", "angle", "all")


def strategy_key(applied: dict) -> str:
    """Name of the strategy set an augment call applied."""
    on = [k for k in ("instance", "height", "angle") if applied.get(k)]
    if not on:
        return "none"
    if len(on) == 3:
        return "all"
    return "+".join("paste" if k == "instance" else k for k in on)


@dataclass
class Span:
    sample: int
    name: str
    start: float
    parent: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _pixels_covered(images, rects_by_cam) -> int:
    total = 0
    for cam_id, rects in rects_by_cam.items():
        paint = np.zeros(np.asarray(images[cam_id]).shape[:2], dtype=bool)
        for u0, v0, u1, v1 in np.asarray(rects).reshape(-1, 4):
            paint[v0:v1 + 1, u0:u1 + 1] = True
        total += int(paint.sum())
    return total


def _count(name, args, out) -> dict:
    """Counter increments for one finished call, derived from its inputs and outputs."""
    if name == "grid.voxelize":
        return {"grid.points_in": len(args[0]), "grid.points_dropped": len(out.dropped),
                "grid.occupied_voxels": out.num_voxels}
    if name == "geometry.valid_projections":
        return {"geometry.points_projected": int(np.asarray(args[0]).size // 3)}
    if name.startswith("formats.write_"):
        return {"formats.bytes_written": os.path.getsize(args[0])}
    if name == "tokens.build_tokens":
        return {"_image_valid": int(out.image_valid.sum()), "_tokens": len(out.image_valid)}
    if name == "augment.sync_image_swap":
        return {"augment.pixels_swapped": _pixels_covered(args[0], out[1])}
    if name == "queries.nms_peaks":
        return {"_nms_peaks": len(out)}
    if name == "queries.geometric_hints":
        return {"queries.hints.geometric": len(out)}
    if name == "queries.texture_hints":
        return {"queries.hints.texture": len(out)}
    if name == "queries.dbscan":
        return {"_dbscan_noise": int((out == -1).sum()), "_dbscan_points": len(out)}
    if name == "tokens.nearest_occupied_row":
        grid, pos = args[0], np.asarray(args[1], dtype=np.float64).reshape(1, 3)
        idx, inside = grid.spec.bin_points(cart_to_polar(pos))
        direct = bool(inside[0]) and grid.row_of(int(grid.spec.flatten(idx)[0])) >= 0
        return {"_nor_fallback": int(not direct), "_nor_calls": 1}
    return {}


class Tracer:
    """Span and counter recorder; `install` patches the wrappers, `remove` undoes it."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[int, dict[str, float]] = {}
        self.stack: list[int] = []
        self.sample = -1
        self.t0 = time.perf_counter()
        self._patches = self._build_patches()

    # recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(self.sample, name, time.perf_counter(), parent))
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx].end = time.perf_counter()
        self.stack.pop()

    def add(self, incs: dict):
        acc = self.counters.setdefault(self.sample, {})
        for k, v in incs.items():
            acc[k] = acc.get(k, 0) + v

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            cidx = tracer.open("trace.counter")
            try:
                tracer.add(_count(name, args, out))
                if name == "augment.augment":
                    tracer.spans[idx].attrs["strategy"] = strategy_key(out.applied)
            finally:
                tracer.close(cidx)
            return out

        return wrapper

    # patching -------------------------------------------------------------

    def _build_patches(self):
        """(owner, attribute, original, replacement) for every place a target is bound."""
        import cylpano.cli
        import cylpano.tokens

        targets = [(f"cylpano.{mod}", fn, f"{mod}.{fn}") for mod, fns in LAYERS.items() for fn in fns
                   if fn != "stats_placeholder"]  # a classmethod, patched on its class below
        targets += [("cylpano.cli", fn, f"cli.{stage}") for fn, stage in CLI_STAGES.items()]
        # the benchmark's own workloads module calls into the layers through its own imports
        modules = [m for n, m in sorted(sys.modules.items())
                   if n in ("cylpano", "workloads") or n.startswith("cylpano.")]
        patches = []
        for mod_name, attr, span_name in targets:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(span_name, orig)
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        patches.append((m, k, orig, wrapper))
        vf = cylpano.tokens.VoxelFeatures
        cm = vf.__dict__["stats_placeholder"]
        patches.append((vf, "stats_placeholder", cm, classmethod(self._wrap("tokens.stats_placeholder", cm.__func__))))
        return patches

    def install(self, sample: int):
        self.sample = sample
        for owner, attr, _, new in self._patches:
            setattr(owner, attr, new)

    def remove(self):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)

    # aggregation ------------------------------------------------------------

    def per_sample(self) -> dict[int, dict[str, float]]:
        """Per traced sample: calls and self ms per span name, plus derived counters."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        out: dict[int, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s.name.startswith(("trace.", "stage.")) or s.name == "sample":
                continue  # the benchmark's own spans
            acc = out.setdefault(s.sample, {})
            acc[f"{s.name}.calls"] = acc.get(f"{s.name}.calls", 0) + 1
            self_ms = 1e3 * (s.end - s.start - child_time[i])
            acc[f"{s.name}.self_ms"] = acc.get(f"{s.name}.self_ms", 0.0) + self_ms
        for sample, c in self.counters.items():
            acc = out.setdefault(sample, {})
            acc.update({k: v for k, v in c.items() if not k.startswith("_")})
            acc["tokens.image_valid_frac"] = c.get("_image_valid", 0) / max(c.get("_tokens", 0), 1)
            acc["queries.peaks_lost_empty"] = c.get("_nms_peaks", 0) - c.get("queries.hints.geometric", 0)
            acc["queries.dbscan.noise_frac"] = c.get("_dbscan_noise", 0) / max(c.get("_dbscan_points", 0), 1)
            acc["tokens.nearest_occupied_row.fallback_frac"] = (
                c.get("_nor_fallback", 0) / max(c.get("_nor_calls", 0), 1)
            )
        return out

    def augment_by_strategy(self) -> dict[str, dict[str, list[float]]]:
        """Per strategy set: augment span ms and the voxelize calls nested in each augment."""
        children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s.parent, []).append(i)

        def count_below(i, name):
            return sum((self.spans[c].name == name) + count_below(c, name) for c in children.get(i, []))

        out: dict[str, dict[str, list[float]]] = {}
        for i, s in enumerate(self.spans):
            if s.name == "augment.augment":
                d = out.setdefault(s.attrs.get("strategy", "?"), {"ms": [], "voxelize_calls": []})
                d["ms"].append(1e3 * (s.end - s.start))
                d["voxelize_calls"].append(count_below(i, "grid.voxelize"))
        return out

    def write(self, path):
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "sample": s.sample, "name": s.name, "parent": s.parent,
                    "start_s": round(s.start - self.t0, 7), "end_s": round(s.end - self.t0, 7),
                    **({"attrs": s.attrs} if s.attrs else {}),
                }) + "\n")
