"""Deterministic synthetic multi-modal scenes with provenance-tagged pixels.

Scenes are a ground plane plus surface-sampled objects (boxes, pillars,
walls). Images are rendered by splatting each point as a small disk with a
per-pixel depth test; channel 0 carries the semantic id, channel 1 the scan
id, channel 2 the low byte of the instance id, so augmentation and projection
code can be checked pixel-by-pixel against exact ground truth. Per-camera
instance masks are derived from the same render.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .augment import MultiModalSample
from .geometry import CameraModel, valid_projections
from .grid import PointCloud
from .metrics import ClassTable
from .queries import Mask2D

GROUND, BOX, PILLAR, WALL = 1, 2, 3, 4
INTENSITY = {GROUND: 0.2, BOX: 0.5, PILLAR: 0.7, WALL: 0.9}


@dataclass
class SceneConfig:
    """Knobs for the scene generator; everything derives from rng_seed."""

    rng_seed: int = 0
    n_objects: tuple[int, int] = (3, 8)
    extent: float = 20.0
    ground_points: int = 4000
    points_per_object: tuple[int, int] = (150, 600)
    box_size: tuple[float, float] = (0.8, 3.0)
    pillar_radius: tuple[float, float] = (0.2, 0.8)
    pillar_height: tuple[float, float] = (1.0, 4.0)
    wall_length: tuple[float, float] = (3.0, 8.0)
    min_center_dist: float = 3.0
    camera_count: int = 2
    image_size: tuple[int, int] = (640, 360)
    focal: float = 350.0
    cam_height: float = 1.6
    splat_radius: int = 1
    scan_id: int = 1

    def __post_init__(self):
        if self.n_objects[0] < 0 or self.ground_points < 0:
            raise ValueError("counts must be >= 0")
        if self.camera_count < 1:
            raise ValueError("camera rig must be non-empty")


@dataclass
class SynthSample:
    """Generated sample plus the exact render buffers used for checking."""

    sample: MultiModalSample
    depth_maps: list[np.ndarray]     # (H, W) float64, inf where empty
    instance_maps: list[np.ndarray]  # (H, W) int32, 0 where empty
    masks: list[Mask2D]
    table: ClassTable
    config: SceneConfig


def ring_camera(yaw: float, width: int, height: int, focal: float, cam_height: float) -> CameraModel:
    """Camera at the rig center looking outward along `yaw`, level with the ground."""
    forward = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    down = np.array([0.0, 0.0, -1.0])
    right = np.cross(down, forward)
    R = np.stack([right, down, forward])
    center = np.array([0.0, 0.0, cam_height])
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = -R @ center
    K = np.array([[focal, 0.0, width / 2.0], [0.0, focal, height / 2.0], [0.0, 0.0, 1.0]])
    return CameraModel(K, T, width, height)


def default_rig(cfg: SceneConfig) -> list[CameraModel]:
    w, h = cfg.image_size
    return [
        ring_camera(k * 2.0 * np.pi / cfg.camera_count, w, h, cfg.focal, cfg.cam_height)
        for k in range(cfg.camera_count)
    ]


def _sample_box(rng, n, w, d, h):
    # Faces weighted by area; the bottom face is never visible and is skipped.
    areas = np.array([d * h, d * h, w * h, w * h, w * d])
    face = rng.choice(5, size=n, p=areas / areas.sum())
    a = rng.uniform(-0.5, 0.5, n)
    b = rng.uniform(0.0, 1.0, n)
    pts = np.empty((n, 3))
    for f in range(5):
        m = face == f
        if not m.any():
            continue
        if f in (0, 1):
            pts[m, 0] = (w / 2.0) if f == 0 else (-w / 2.0)
            pts[m, 1] = a[m] * d
            pts[m, 2] = b[m] * h
        elif f in (2, 3):
            pts[m, 0] = a[m] * w
            pts[m, 1] = (d / 2.0) if f == 2 else (-d / 2.0)
            pts[m, 2] = b[m] * h
        else:
            pts[m, 0] = a[m] * w
            pts[m, 1] = (b[m] - 0.5) * d
            pts[m, 2] = h
    return pts


def _sample_pillar(rng, n, radius, height):
    lateral = 2.0 * np.pi * radius * height
    top = np.pi * radius**2
    on_top = rng.random(n) < top / (lateral + top)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    pts = np.empty((n, 3))
    r_top = radius * np.sqrt(rng.random(n))
    pts[:, 0] = np.where(on_top, r_top, radius) * np.cos(theta)
    pts[:, 1] = np.where(on_top, r_top, radius) * np.sin(theta)
    pts[:, 2] = np.where(on_top, height, rng.uniform(0.0, height, n))
    return pts


def generate_scene(cfg: SceneConfig, table: ClassTable | None = None) -> SynthSample:
    """Sample a scene, render provenance images, and derive per-instance masks."""
    table = table or ClassTable.synthetic()
    rng = np.random.default_rng(cfg.rng_seed)
    cams = default_rig(cfg)

    xyz = [rng.uniform(-cfg.extent, cfg.extent, (cfg.ground_points, 2))]
    xyz[0] = np.column_stack([xyz[0], np.zeros(cfg.ground_points)])
    sem = [np.full(cfg.ground_points, GROUND, dtype=np.uint16)]
    inst = [np.zeros(cfg.ground_points, dtype=np.uint16)]

    n_obj = int(rng.integers(cfg.n_objects[0], cfg.n_objects[1] + 1))
    for obj_id in range(1, n_obj + 1):
        kind = int(rng.integers(0, 3))  # 0 box, 1 pillar, 2 wall
        dist = rng.uniform(cfg.min_center_dist, cfg.extent * 0.85)
        ang = rng.uniform(0.0, 2.0 * np.pi)
        center = np.array([dist * np.cos(ang), dist * np.sin(ang), 0.0])
        yaw = rng.uniform(0.0, 2.0 * np.pi)
        n = int(rng.integers(cfg.points_per_object[0], cfg.points_per_object[1] + 1))
        if kind == 0:
            w, d, h = rng.uniform(cfg.box_size[0], cfg.box_size[1], 3)
            pts = _sample_box(rng, n, w, d, h)
            cls = BOX
        elif kind == 1:
            radius = rng.uniform(*cfg.pillar_radius)
            height = rng.uniform(*cfg.pillar_height)
            pts = _sample_pillar(rng, n, radius, height)
            cls = PILLAR
        else:
            length = rng.uniform(*cfg.wall_length)
            height = rng.uniform(1.0, 3.0)
            pts = _sample_box(rng, n, length, 0.15, height)
            cls = WALL
        c, s = np.cos(yaw), np.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        xyz.append(pts @ rot.T + center)
        sem.append(np.full(n, cls, dtype=np.uint16))
        inst.append(np.full(n, obj_id, dtype=np.uint16))

    sem_all = np.concatenate(sem)
    cloud = PointCloud(
        np.concatenate(xyz),
        np.array([INTENSITY[int(s)] for s in sem_all], dtype=np.float32),
        sem_all,
        np.concatenate(inst),
    )

    images, depths, inst_maps = render_provenance(cloud, cams, cfg.scan_id, cfg.splat_radius)
    masks = []
    for cam_id, imap in enumerate(inst_maps):
        for obj_id in range(1, n_obj + 1):
            bitmap = imap == obj_id
            if bitmap.any():
                cls = int(cloud.semantic[cloud.instance == obj_id][0])
                masks.append(Mask2D(cam_id, bitmap, class_tag=cls))
    return SynthSample(MultiModalSample(cloud, images, cams), depths, inst_maps, masks, table, cfg)


def rasterize(
    xyz: np.ndarray, cam: CameraModel, splat_radius: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Depth-tested splat render: returns (flat pixel, winning point index, depth).

    Each point paints the pixels of a disk of `splat_radius` around its
    projection cell; the nearest point wins a pixel, ties break to the lowest
    point index, so the result is independent of any processing order.
    """
    uv, depth, valid = valid_projections(xyz, cam)
    idx = np.flatnonzero(valid)
    px = np.floor(uv[idx]).astype(np.int64)
    cand_pix, cand_depth, cand_pid = [], [], []
    r = splat_radius
    for dx in range(-r, r + 1):
        for dy in range(-r, r + 1):
            if dx * dx + dy * dy > r * r:
                continue
            u = px[:, 0] + dx
            v = px[:, 1] + dy
            ok = (u >= 0) & (u < cam.width) & (v >= 0) & (v < cam.height)
            cand_pix.append(v[ok] * cam.width + u[ok])
            cand_depth.append(depth[idx][ok])
            cand_pid.append(idx[ok])
    pix = np.concatenate(cand_pix)
    dep = np.concatenate(cand_depth)
    pid = np.concatenate(cand_pid)
    order = np.lexsort((pid, dep, pix))
    pix_s = pix[order]
    first = np.unique(pix_s, return_index=True)[1]
    return pix_s[first], pid[order][first], dep[order][first]


def render_provenance(
    cloud: PointCloud, cams: list[CameraModel], scan_id: int, splat_radius: int = 1
) -> tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]]:
    """Render provenance images plus depth and instance-id buffers per camera."""
    images, depths, inst_maps = [], [], []
    for cam in cams:
        img = np.zeros((cam.height, cam.width, 3), dtype=np.uint8)
        img[:, :, 1] = scan_id
        dmap = np.full((cam.height, cam.width), np.inf)
        imap = np.zeros((cam.height, cam.width), dtype=np.int32)
        pix, pid, dep = rasterize(cloud.xyz, cam, splat_radius)
        rows, cols = np.divmod(pix, cam.width)
        if cloud.semantic is not None:
            img[rows, cols, 0] = (cloud.semantic[pid] & 0xFF).astype(np.uint8)
        if cloud.instance is not None:
            img[rows, cols, 2] = (cloud.instance[pid] & 0xFF).astype(np.uint8)
            imap[rows, cols] = cloud.instance[pid]
        dmap[rows, cols] = dep
        images.append(img)
        depths.append(dmap)
        inst_maps.append(imap)
    return images, depths, inst_maps


DEFAULT_COLORMAP = np.array(
    [
        [40, 40, 40],     # unlabeled
        [110, 110, 110],  # ground
        [230, 80, 60],    # box
        [70, 130, 230],   # pillar
        [240, 200, 70],   # wall
    ],
    dtype=np.uint8,
)


def render_overlay(
    cloud: PointCloud,
    images: list[np.ndarray],
    cams: list[CameraModel],
    colormap: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Paint projected points over copies of the images, colored by semantic label."""
    cmap = DEFAULT_COLORMAP if colormap is None else np.asarray(colormap, dtype=np.uint8)
    out = []
    for cam, img in zip(cams, images):
        canvas = img.copy()
        pix, pid, _ = rasterize(cloud.xyz, cam, 0)
        rows, cols = np.divmod(pix, cam.width)
        if cloud.semantic is not None:
            canvas[rows, cols] = cmap[np.minimum(cloud.semantic[pid], len(cmap) - 1)]
        else:
            canvas[rows, cols] = 255
        out.append(canvas)
    return out


def backproject(u: float, v: float, depth: float, cam: CameraModel) -> np.ndarray:
    """Lift a pixel with known camera-frame depth back into the LiDAR frame."""
    ray = np.linalg.solve(cam.intrinsic, np.array([u, v, 1.0]))
    cam_pt = ray / ray[2] * depth
    R = cam.extrinsic[:3, :3]
    t = cam.extrinsic[:3, 3]
    return R.T @ (cam_pt - t)
