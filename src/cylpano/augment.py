"""Modality-synchronized augmentation by voxel-wise scene mixing.

A boolean selection mask over the full R x Theta x Z grid decides, per voxel,
whether the augmented scene keeps the original voxel or takes the one from a
second scan. Because every voxel is paired with an image rectangle, the same
mask drives a synchronized patch swap on the camera images, keeping both
modalities aligned. Slicing the mask along the height, angle, or radius axis
reproduces scene-swapping augmentations; building it from the voxels covered
by transformed donor instances reproduces instance pasting.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import IndexOutOfRangeError, InsufficientInstancesError, ShapeMismatchError, SpecMismatchError
from .geometry import CameraModel, InstanceTransform, similarity_matrix, transform_camera, transform_instance
from .grid import CylGrid, CylGridSpec, PairingTable, PointCloud, _checked_indices, pair_voxel_image, ranges, voxelize

AXES = ("radius", "angle", "height")  # in the order of CylGridSpec.shape


@dataclass
class MultiModalSample:
    """A LiDAR scan with its camera images and calibrations."""

    cloud: PointCloud
    images: list[np.ndarray]  # (H, W, 3) uint8 per camera
    cams: list[CameraModel]

    def __post_init__(self):
        if len(self.images) != len(self.cams):
            raise ValueError("image count must equal camera count")
        self.images = [np.ascontiguousarray(im, dtype=np.uint8) for im in self.images]


def check_range(name: str, bounds, positive: bool = False):
    """Raise ValueError unless `bounds` is a finite pair 0 <= lo <= hi (0 < lo if `positive`)."""
    if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1] < np.inf or (positive and bounds[0] == 0):
        raise ValueError(f"{name} must be a finite pair {'0 <' if positive else '0 <='} lo <= hi, got {bounds}")


@dataclass(slots=True)
class AugConfig:
    """Probabilities and ranges for the augmentation pipeline."""

    p_instance: float = 0.4
    p_height_swap: float = 0.05
    p_angle_swap: float = 0.05
    split_choices: tuple[int, ...] = (3, 4, 5)
    instance_count_range: tuple[int, int] = (1, 5)
    strategy_mode: str = "independent"  # or "categorical"
    # instance-paste transform ranges
    paste_translation: float = 2.0
    paste_rotation: float = np.pi
    paste_scale_range: tuple[float, float] = (0.95, 1.05)
    # global transforms applied after mixing
    rotation_range: float = 0.0
    flip_prob: float = 0.0
    scale_range: tuple[float, float] = (1.0, 1.0)
    rng_seed: int = 0

    def __post_init__(self):
        for p in (self.p_instance, self.p_height_swap, self.p_angle_swap, self.flip_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if not self.split_choices or min(self.split_choices) < 1:
            raise ValueError("split_choices must be non-empty, each entry >= 1")
        for name in ("paste_translation", "paste_rotation", "rotation_range"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        check_range("instance_count_range", self.instance_count_range)
        check_range("paste_scale_range", self.paste_scale_range, positive=True)
        check_range("scale_range", self.scale_range, positive=True)
        if self.strategy_mode not in ("independent", "categorical"):
            raise ValueError("strategy_mode must be 'independent' or 'categorical'")
        if self.strategy_mode == "categorical":
            if self.p_instance + self.p_height_swap + self.p_angle_swap > 1.0 + 1e-12:
                raise ValueError("categorical probabilities must sum to <= 1")


def instance_paste_mask(idx3: np.ndarray, spec: CylGridSpec) -> np.ndarray:
    """The (M, 3) voxel indices covered by pasted instances, as a dense bool mask."""
    mask = np.zeros(spec.shape, dtype=bool)
    r, t, z = _checked_indices(idx3, spec).T
    mask[r, t, z] = True
    return mask


def scene_swap_mask(axis: str, selected, spec: CylGridSpec) -> np.ndarray:
    """Mask selecting whole slices of one axis; the other two axes are fully covered."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    k = AXES.index(axis)
    n = spec.shape[k]
    sel = np.unique(np.asarray(list(selected), dtype=np.int64))
    if len(sel) and (sel[0] < 0 or sel[-1] >= n):
        raise IndexOutOfRangeError(f"selected {axis} bins outside [0, {n})")
    mask = np.zeros(spec.shape, dtype=bool)
    np.moveaxis(mask, k, 0)[sel] = True
    return mask


def alternating_slices(n_bins: int, splits: int) -> np.ndarray:
    """Bins of the odd-indexed slices when an axis is cut into `splits` equal parts."""
    parts = np.array_split(np.arange(n_bins), splits)
    odd = parts[1::2]
    return np.concatenate(odd) if odd else np.zeros(0, dtype=np.int64)


def _check_mask(mask: np.ndarray, spec: CylGridSpec) -> np.ndarray:
    """Flat view of a bool mask of the grid's shape."""
    mask = np.asarray(mask)
    if mask.shape != spec.shape or mask.dtype != bool:
        raise SpecMismatchError(f"mask must be bool of grid shape {spec.shape}, got {mask.dtype} {mask.shape}")
    return mask.reshape(-1)


def _remap_instances(org_inst: np.ndarray, new_inst: np.ndarray) -> np.ndarray:
    """Give incoming points fresh instance ids above the original scan's maximum."""
    base = int(org_inst.max()) if len(org_inst) else 0
    ids = np.unique(new_inst[new_inst > 0])
    if base + len(ids) > np.iinfo(np.uint16).max:
        raise ShapeMismatchError("instance id space exhausted while remapping: ids do not fit a u16 field")
    fresh = base + 1 + np.searchsorted(ids, new_inst)
    return np.where(new_inst > 0, fresh, 0).astype(np.uint16)


def apply_mix(org: CylGrid, new: CylGrid, mask: np.ndarray) -> CylGrid:
    """Voxel-wise mix: where the mask is set take the new grid's voxel, else the original.

    Point lists, labels, and per-voxel source tags travel with their voxel, so
    each tag comes from the contributing grid's row. The mixed grid is built
    from the kept voxels of both inputs, without re-binning, and drops no
    points; it is unpaired (`pair_voxel_image` attaches image rectangles).
    Incoming nonzero instance ids are remapped above the original scan's
    maximum so panoptic ground truth stays consistent.
    """
    if org.spec != new.spec:
        raise SpecMismatchError("grids must share one spec")
    flat_mask = _check_mask(mask, org.spec)

    org_keep = ~flat_mask[org.voxel_ids]
    new_keep = flat_mask[new.voxel_ids]
    org_pts = org.order[np.repeat(org_keep, org.counts)]
    new_pts = new.order[np.repeat(new_keep, new.counts)]

    org_cloud = org.cloud.select(org_pts)
    new_cloud = new.cloud.select(new_pts)
    new_cloud.instance = _remap_instances(org_cloud.instance, new_cloud.instance)
    merged = PointCloud.concat([org_cloud, new_cloud])

    # Merged rows hold each kept voxel's points as one run; the two voxel sets
    # are disjoint, so one sort by flat id interleaves them uniquely.
    voxel_ids = np.concatenate([org.voxel_ids[org_keep], new.voxel_ids[new_keep]])
    counts = np.concatenate([org.counts[org_keep], new.counts[new_keep]])
    source = np.concatenate([org.source[org_keep], new.source[new_keep]])
    run_starts = np.cumsum(counts) - counts
    perm = np.argsort(voxel_ids, kind="stable")  # merges the two sorted runs
    counts = counts[perm]
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    order = ranges(run_starts[perm], counts)
    return CylGrid(
        org.spec, merged, voxel_ids[perm], starts, order, np.zeros(0, dtype=np.int64), source[perm]
    )


def rect_union(shape: tuple[int, int], rects: np.ndarray) -> np.ndarray:
    """(H, W) bool mask of the pixels covered by inclusive (u_min, v_min, u_max, v_max) rectangles.

    Each rectangle puts +1 at its top-left and past-bottom-right corners and -1
    at the other two of a difference array over the rectangles' bounding box,
    so two cumulative sums count the rectangles covering each pixel (exactly,
    in float64). Rectangles reaching past the right or bottom border are cut
    there, as a slice would cut them.
    """
    h, w = shape
    u0, v0, u1, v1 = np.asarray(rects, dtype=np.int64).reshape(-1, 4).T
    union = np.zeros((h, w), dtype=bool)
    if len(u0) == 0:
        return union
    left, top = u0.min(), v0.min()
    u0, v0 = u0 - left, v0 - top
    u1, v1 = np.minimum(u1 + 1, w) - left, np.minimum(v1 + 1, h) - top  # exclusive ends
    box_w, box_h = u1.max(), v1.max()
    stride = box_w + 1
    corners = np.concatenate([v0 * stride + u0, v1 * stride + u1, v0 * stride + u1, v1 * stride + u0])
    signs = np.repeat([1.0, -1.0], 2 * len(u0))
    cover = np.bincount(corners, signs, minlength=(box_h + 1) * stride).reshape(box_h + 1, stride)
    np.cumsum(cover, axis=0, out=cover)
    np.cumsum(cover, axis=1, out=cover)
    union[top:top + box_h, left:left + box_w] = cover[:box_h, :box_w] > 0
    return union


def sync_image_swap(
    org_imgs: list[np.ndarray],
    new_imgs: list[np.ndarray],
    mask: np.ndarray,
    new_pairings: dict[int, PairingTable],
) -> tuple[list[np.ndarray], dict[int, np.ndarray]]:
    """Copy the image rectangles paired with every masked voxel from the new scan.

    All copies in one call read from the same source images, so each camera's
    rectangles are painted as one union (`rect_union`) and copied in one pass.
    Returns the output images and, per camera, the (k, 4) array of rectangles
    that were swapped, in ascending (r, theta, z) voxel order.
    """
    if len(org_imgs) != len(new_imgs):
        raise SpecMismatchError("image sets must have equal camera counts")
    flat_mask = np.asarray(mask, dtype=bool).reshape(-1)
    out_imgs = []
    swapped: dict[int, np.ndarray] = {}
    for cam_id, (org_im, new_im) in enumerate(zip(org_imgs, new_imgs)):
        if org_im.shape != new_im.shape:
            raise SpecMismatchError("paired images must share a shape")
        out = org_im.copy()
        table = new_pairings.get(cam_id, PairingTable(np.zeros(0, np.int64), np.zeros((0, 4), np.int32)))
        sel = flat_mask[table.flat_ids]
        rects = table.rects[sel]  # flat_ids sorted == lexicographic voxel order
        paint = rect_union(org_im.shape[:2], rects)
        out[paint] = new_im[paint]
        out_imgs.append(out)
        swapped[cam_id] = rects
    return out_imgs, swapped


def donor_instance_ids(cloud: PointCloud) -> np.ndarray:
    """Sorted nonzero instance ids present in a cloud."""
    return np.unique(cloud.instance[cloud.instance > 0]).astype(np.int64)


def paste_instances(
    org: MultiModalSample,
    donor: MultiModalSample,
    spec: CylGridSpec,
    s: int,
    transforms: list[InstanceTransform],
    instance_ids: np.ndarray,
) -> tuple[MultiModalSample, np.ndarray, dict[int, np.ndarray]]:
    """Paste the `s` donor instances `instance_ids`, each moved by its transform, into the original sample.

    Donor points keep their semantic labels and get fresh instance ids; voxels
    covered by the transformed instances replace the original content, and the
    paired image rectangles are copied from the donor images. Transformed
    points falling outside the grid range are range-cropped, and a transform
    may legally move an instance out of every camera frustum (it then simply
    gets no image pairing). Returns the new sample, the paste mask, and the
    swapped rectangles per camera ({} when `s` is 0).
    """
    avail = donor_instance_ids(donor.cloud)
    if s > len(avail):
        raise InsufficientInstancesError(f"requested {s} instances, donor has {len(avail)}")
    if len(instance_ids) != s:
        raise ValueError(f"{len(instance_ids)} instance ids given to paste {s} instances")
    lacking = np.asarray(instance_ids)[~np.isin(instance_ids, avail)]
    if len(lacking):
        raise InsufficientInstancesError(f"donor holds no instance {lacking[0]}")
    if len(transforms) != s:
        raise ValueError("one transform per pasted instance")
    mixes = [_paste_mix(donor, spec, instance_ids, transforms)] if s else []
    sample, _, rects = _run_mixes(org, donor, spec, mixes)
    return sample, mixes[0][1] if mixes else np.zeros(spec.shape, dtype=bool), rects


def _paste_mix(
    donor: MultiModalSample, spec: CylGridSpec, instance_ids, transforms
) -> tuple[str, np.ndarray, CylGrid]:
    """The ("instance", mask, donor grid) mix of the transformed donor instances, paired with the donor cameras."""
    pieces = []
    for inst_id, t in zip(instance_ids, transforms):
        idx = np.flatnonzero(donor.cloud.instance == inst_id)
        part = donor.cloud.select(idx)
        part.xyz = transform_instance(part.xyz, t).astype(np.float32)
        pieces.append(part)
    paste_cloud = PointCloud.concat(pieces)
    paste_cloud.source = np.ones(len(paste_cloud), dtype=np.uint8)

    paste_grid = pair_voxel_image(voxelize(paste_cloud, spec), donor.cams)
    return "instance", instance_paste_mask(paste_grid.indices3, spec), paste_grid


def _run_mixes(work: MultiModalSample, donor: MultiModalSample, spec: CylGridSpec, mixes: list):
    """Apply (strategy, mask, donor grid) mixes to `work` in order, voxels and paired image rectangles alike.

    Returns the mixed sample (its images are copies), the grid of its cloud or
    None if no mix ran, and the rectangles swapped in per camera ({} if none ran).
    """
    if not mixes:
        return MultiModalSample(work.cloud, [im.copy() for im in work.images], work.cams), None, {}
    grid, images = voxelize(work.cloud, spec), work.images
    swaps = []  # per mix, the rectangles swapped in each camera
    for _, mask, donor_grid in mixes:
        grid = apply_mix(grid, donor_grid, mask)
        images, rects = sync_image_swap(images, donor.images, mask, donor_grid.pairings)  # copies the images
        swaps.append(rects)
    swapped = {cam: np.concatenate([rects[cam] for rects in swaps]) for cam in swaps[0]}
    return MultiModalSample(grid.cloud, images, work.cams), grid, swapped


@dataclass
class AugResult:
    """Augmented sample plus the bookkeeping needed by provenance checks.

    The final grid is the last mixed grid, whose per-voxel tags come from the
    rows of the grid each voxel was taken from; only after a non-identity
    global transform is the cloud re-binned, with tags re-derived from
    per-point provenance.
    """

    sample: MultiModalSample
    grid: CylGrid
    applied: dict[str, bool]
    swapped_rects: dict[int, np.ndarray]


def augment(
    org: MultiModalSample,
    new: MultiModalSample,
    spec: CylGridSpec,
    cfg: AugConfig,
) -> AugResult:
    """Run the full augmentation pipeline with seeded randomness.

    Instance pasting, height swapping, and angle swapping are applied with
    their configured probabilities (independently by default, or as one
    categorical draw), then the global rotation/flip/scale is applied to the
    merged cloud with the camera extrinsics adjusted by the inverse transform
    so projection geometry is unchanged. Deterministic given cfg.rng_seed.
    """
    if len(org.cams) != len(new.cams):
        raise SpecMismatchError("samples must share the camera rig structure")
    rng = np.random.default_rng(cfg.rng_seed)

    p = np.array([cfg.p_instance, cfg.p_height_swap, cfg.p_angle_swap])
    if cfg.strategy_mode == "independent":
        do_paste, do_height, do_angle = rng.random(3) < p
    else:  # the one draw picks the interval of cumsum([0, *p]) it falls in
        u = rng.random()
        edges = np.cumsum([0.0, *p])
        do_paste, do_height, do_angle = (edges[:-1] <= u) & (u < edges[1:])

    # the scans' own source tags give way to 0 (original) and 1 (new)
    work = MultiModalSample(replace(org.cloud, source=None), org.images, org.cams)
    new_work = MultiModalSample(replace(new.cloud, source=np.ones(len(new.cloud), np.uint8)), new.images, new.cams)

    mixes = []  # (strategy, mask, donor grid) in application order

    if do_paste:
        lo, hi = cfg.instance_count_range
        s = int(rng.integers(lo, hi + 1))
        avail = donor_instance_ids(new_work.cloud)
        s = min(s, len(avail))
        if s > 0:
            ids = rng.choice(avail, size=s, replace=False)
            transforms = [
                InstanceTransform(
                    np.array([
                        rng.uniform(-cfg.paste_translation, cfg.paste_translation),
                        rng.uniform(-cfg.paste_translation, cfg.paste_translation),
                        0.0,
                    ]),
                    rng.uniform(-cfg.paste_rotation, cfg.paste_rotation),
                    rng.uniform(*cfg.paste_scale_range),
                )
                for _ in range(s)
            ]
            mixes.append(_paste_mix(new_work, spec, ids, transforms))

    if do_height or do_angle:
        new_grid = pair_voxel_image(voxelize(new_work.cloud, spec), new_work.cams)
    for axis, on in (("height", do_height), ("angle", do_angle)):
        if on:
            splits = int(rng.choice(np.asarray(cfg.split_choices)))
            selected = alternating_slices(spec.shape[AXES.index(axis)], splits)
            mixes.append((axis, scene_swap_mask(axis, selected, spec), new_grid))

    work, grid, swapped = _run_mixes(work, new_work, spec, mixes)
    names = [name for name, _, _ in mixes]
    applied = {name: name in names for name in ("instance", "height", "angle")}

    # Global transforms; draws always consume the stream so seeds stay aligned.
    angle = rng.uniform(-cfg.rotation_range, cfg.rotation_range)
    flip = rng.random() < cfg.flip_prob
    scale = rng.uniform(*cfg.scale_range)
    A = similarity_matrix(angle, flip, scale)
    identity = angle == 0.0 and not flip and scale == 1.0
    if not identity:
        cloud = work.cloud
        cloud.xyz = (cloud.xyz.astype(np.float64) @ A.T).astype(np.float32)
        cams = [transform_camera(c, A) for c in work.cams]
        work = MultiModalSample(cloud, work.images, cams)
        grid = None
    # Mixing moves no point, so without a transform the last mixed grid bins work.cloud.
    if grid is None:
        grid = voxelize(work.cloud, spec)
    return AugResult(work, pair_voxel_image(grid, work.cams), applied, swapped)
