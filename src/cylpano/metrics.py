"""Panoptic segmentation evaluation: segment matching, PQ/SQ/RQ, mIoU.

Segments are maximal point sets sharing a (semantic, instance) pair; a
predicted segment matches a ground-truth segment of the same class iff their
IoU is strictly greater than 0.5, which makes the matching provably unique.
Per class, SQ is the mean IoU over true positives, RQ the F1-style ratio
TP / (TP + FP/2 + FN/2), and PQ their product. Aggregates are unweighted
means over classes that have any TP, FP, or FN. The starred variant swaps a
stuff class's PQ for its semantic IoU.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BadConfigError, LengthMismatchError

THING, STUFF, IGNORE = "thing", "stuff", "ignore"

NUSCENES_CLASSES = {
    0: ("noise", IGNORE),
    1: ("barrier", THING),
    2: ("bicycle", THING),
    3: ("bus", THING),
    4: ("car", THING),
    5: ("construction_vehicle", THING),
    6: ("motorcycle", THING),
    7: ("pedestrian", THING),
    8: ("traffic_cone", THING),
    9: ("trailer", THING),
    10: ("truck", THING),
    11: ("driveable_surface", STUFF),
    12: ("other_flat", STUFF),
    13: ("sidewalk", STUFF),
    14: ("terrain", STUFF),
    15: ("manmade", STUFF),
    16: ("vegetation", STUFF),
}

SEMANTIC_KITTI_CLASSES = {
    0: ("unlabeled", IGNORE),
    1: ("car", THING),
    2: ("bicycle", THING),
    3: ("motorcycle", THING),
    4: ("truck", THING),
    5: ("other_vehicle", THING),
    6: ("person", THING),
    7: ("bicyclist", THING),
    8: ("motorcyclist", THING),
    9: ("road", STUFF),
    10: ("parking", STUFF),
    11: ("sidewalk", STUFF),
    12: ("other_ground", STUFF),
    13: ("building", STUFF),
    14: ("fence", STUFF),
    15: ("vegetation", STUFF),
    16: ("trunk", STUFF),
    17: ("terrain", STUFF),
    18: ("pole", STUFF),
    19: ("traffic_sign", STUFF),
}

SYNTH_CLASSES = {
    0: ("unlabeled", IGNORE),
    1: ("ground", STUFF),
    2: ("box", THING),
    3: ("pillar", THING),
    4: ("wall", THING),
}


@dataclass(frozen=True)
class ClassTable:
    """Maps class ids to names and thing/stuff/ignore kinds."""

    entries: dict[int, tuple[str, str]]

    def __post_init__(self):
        for cid, (name, kind) in self.entries.items():
            if kind not in (THING, STUFF, IGNORE):
                raise ValueError(f"class {cid} ({name}) has unknown kind {kind!r}")

    @property
    def things(self) -> tuple[int, ...]:
        return tuple(sorted(c for c, (_, k) in self.entries.items() if k == THING))

    @property
    def stuff(self) -> tuple[int, ...]:
        return tuple(sorted(c for c, (_, k) in self.entries.items() if k == STUFF))

    @property
    def ignored(self) -> tuple[int, ...]:
        return tuple(sorted(c for c, (_, k) in self.entries.items() if k == IGNORE))

    def name(self, cid: int) -> str:
        return self.entries[cid][0]

    def kind(self, cid: int) -> str:
        return self.entries[cid][1]

    @classmethod
    def nuscenes(cls) -> "ClassTable":
        return cls(dict(NUSCENES_CLASSES))

    @classmethod
    def semantic_kitti(cls) -> "ClassTable":
        return cls(dict(SEMANTIC_KITTI_CLASSES))

    @classmethod
    def synthetic(cls) -> "ClassTable":
        return cls(dict(SYNTH_CLASSES))

    def save(self, path):
        cp = configparser.ConfigParser(interpolation=None)
        cp["classes"] = {
            str(cid): f"{name},{kind}" for cid, (name, kind) in sorted(self.entries.items())
        }
        with open(path, "w") as f:
            cp.write(f)

    @classmethod
    def load(cls, path) -> "ClassTable":
        cp = configparser.ConfigParser(interpolation=None)
        try:
            if not cp.read(path):
                raise BadConfigError(f"cannot read class table {path}")
        except configparser.Error as exc:  # no section header, a duplicate key, ...
            raise BadConfigError(f"malformed class table {path}: {exc}") from exc
        if "classes" not in cp:
            raise BadConfigError("class table needs a [classes] section")
        entries = {}
        for key, value in cp["classes"].items():
            try:
                name, kind = value.split(",")
                entries[int(key)] = (name.strip(), kind.strip())
            except ValueError as exc:
                raise BadConfigError(f"bad class entry {key} = {value}") from exc
        return cls(entries)


@dataclass
class SegLabeling:
    """Per-point semantic and instance ids under a class table.

    Instance ids of stuff and ignore classes are canonicalized to 0 on
    construction, so every stuff class forms a single segment.
    """

    semantic: np.ndarray
    instance: np.ndarray
    table: ClassTable

    def __post_init__(self):
        self.semantic = np.asarray(self.semantic, dtype=np.uint16).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.uint16).reshape(-1).copy()
        if len(self.semantic) != len(self.instance):
            raise LengthMismatchError("semantic and instance arrays differ in length")
        thing_ids = self.table.things
        is_thing = np.isin(self.semantic, np.asarray(thing_ids, dtype=np.uint16))
        self.instance[~is_thing] = 0

    def __len__(self) -> int:
        return len(self.semantic)


@dataclass
class MatchResult:
    """Per-class matching outcome; TP entries are ordered by ground-truth key."""

    tp: dict[int, list[tuple[int, int, float]]]  # class -> [(gt_key, pred_key, iou)]
    fp: dict[int, list[int]]                     # class -> unmatched pred keys
    fn: dict[int, list[int]]                     # class -> unmatched gt keys
    classes: list[int]


def _segment_key(sem: np.ndarray, inst: np.ndarray) -> np.ndarray:
    return (sem.astype(np.int64) << 16) | inst.astype(np.int64)


def match_segments(pred: SegLabeling, gt: SegLabeling, min_points: int = 0) -> MatchResult:
    """Match same-class segments at IoU > 0.5 after removing ignore-class points.

    Points whose ground-truth class is ignored are removed entirely;
    predicted segments of an ignored class never count. With `min_points`
    set, segments smaller than the threshold are excluded from the tallies.
    """
    if len(pred) != len(gt):
        raise LengthMismatchError(f"pred has {len(pred)} points, gt has {len(gt)}")
    if pred.table.entries != gt.table.entries:
        raise ValueError("pred and gt must share one class table")
    ignore = np.asarray(gt.table.ignored, dtype=np.uint16)
    valid = ~np.isin(gt.semantic, ignore)
    g_sem, g_inst = gt.semantic[valid], gt.instance[valid]
    p_sem, p_inst = pred.semantic[valid], pred.instance[valid]
    p_ok = ~np.isin(p_sem, ignore)

    g_key = _segment_key(g_sem, g_inst)
    p_key = _segment_key(p_sem, p_inst)
    g_ids, g_sizes = np.unique(g_key, return_counts=True)
    p_ids, p_sizes = np.unique(p_key[p_ok], return_counts=True)
    keep = g_sizes >= min_points
    g_ids, g_sizes = g_ids[keep], g_sizes[keep]
    keep = p_sizes >= min_points
    p_ids, p_sizes = p_ids[keep], p_sizes[keep]
    g_size = dict(zip(g_ids.tolist(), g_sizes.tolist()))
    p_size = dict(zip(p_ids.tolist(), p_sizes.tolist()))

    pair = (g_key[p_ok].astype(np.uint64) << 32) | p_key[p_ok].astype(np.uint64)
    pair_ids, inters = np.unique(pair, return_counts=True)

    tp: dict[int, list[tuple[int, int, float]]] = {}
    matched_g, matched_p = set(), set()
    for pid, inter in zip(pair_ids, inters):  # np.unique sorts them, so by gt key (the high word)
        gk = int(pid >> np.uint64(32))
        pk = int(pid & np.uint64(0xFFFFFFFF))
        if gk not in g_size or pk not in p_size:
            continue
        if (gk >> 16) != (pk >> 16):
            continue
        iou = inter / (g_size[gk] + p_size[pk] - inter)
        if iou > 0.5:
            cls = gk >> 16
            tp.setdefault(cls, []).append((gk, pk, float(iou)))
            if gk in matched_g or pk in matched_p:
                raise AssertionError("IoU > 0.5 matching must be unique")
            matched_g.add(gk)
            matched_p.add(pk)

    fp: dict[int, list[int]] = {}
    fn: dict[int, list[int]] = {}
    for pk in p_ids.tolist():
        if pk not in matched_p:
            fp.setdefault(pk >> 16, []).append(pk)
    for gk in g_ids.tolist():
        if gk not in matched_g:
            fn.setdefault(gk >> 16, []).append(gk)
    classes = sorted(set(tp) | set(fp) | set(fn))
    return MatchResult(tp, fp, fn, classes)


_CLASS_KEYS = ("pq", "sq", "rq", "iou", "tp", "fp", "fn")  # per-class report keys, in JSON order


@dataclass
class ClassStats:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0
    pq: float = 0.0
    sq: float = 0.0
    rq: float = 0.0
    iou: float = 0.0  # semantic IoU


@dataclass
class PanopticReport:
    """Per-class and aggregate panoptic metrics."""

    per_class: dict[int, ClassStats]
    table: ClassTable
    participating: list[int] = field(default_factory=list)
    pq: float = 0.0
    pq_dagger: float = 0.0
    rq: float = 0.0
    sq: float = 0.0
    pq_things: float = 0.0
    rq_things: float = 0.0
    sq_things: float = 0.0
    pq_stuff: float = 0.0
    rq_stuff: float = 0.0
    sq_stuff: float = 0.0
    miou: float = 0.0

    def to_dict(self) -> dict:
        return {
            "classes": {
                self.table.name(c): {key: getattr(s, key) for key in _CLASS_KEYS}
                for c, s in sorted(self.per_class.items())
            },
            # every field after `participating` is an aggregate
            "aggregates": {f.name: getattr(self, f.name) for f in fields(self)[3:]},
            "participating": [self.table.name(c) for c in self.participating],
        }


def _mean(values: list[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def panoptic_quality(
    matches: MatchResult,
    table: ClassTable,
    semantic_iou: dict[int, float] | None = None,
) -> PanopticReport:
    """Turn match tallies into per-class and aggregate PQ/SQ/RQ.

    Classes with no TP, FP, or FN do not participate in any aggregate. The
    starred aggregate substitutes each stuff class's semantic IoU for its PQ
    and therefore needs `semantic_iou`.
    """
    semantic_iou = semantic_iou or {}
    per_class: dict[int, ClassStats] = {}
    for cls in matches.classes:
        st = ClassStats(
            tp=len(matches.tp.get(cls, [])),
            fp=len(matches.fp.get(cls, [])),
            fn=len(matches.fn.get(cls, [])),
            iou_sum=sum(iou for _, _, iou in matches.tp.get(cls, [])),
            iou=semantic_iou.get(cls, 0.0),
        )
        st.sq = st.iou_sum / st.tp if st.tp else 0.0
        denom = st.tp + 0.5 * st.fp + 0.5 * st.fn
        st.rq = st.tp / denom if denom else 0.0
        st.pq = st.sq * st.rq
        per_class[cls] = st

    participating = sorted(per_class)  # each has a TP, FP or FN
    report = PanopticReport(per_class, table, participating)
    things = [c for c in participating if table.kind(c) == THING]
    stuff = [c for c in participating if table.kind(c) == STUFF]
    for suffix, members in (("", participating), ("_things", things), ("_stuff", stuff)):
        for name in ("pq", "sq", "rq"):
            setattr(report, name + suffix, _mean([getattr(per_class[c], name) for c in members]))
    report.pq_dagger = _mean(
        [per_class[c].pq if table.kind(c) == THING else per_class[c].iou for c in participating]
    )
    return report


def miou(pred: SegLabeling, gt: SegLabeling) -> tuple[dict[int, float], float]:
    """Semantic-only IoU per class and its mean over classes present in gt or pred.

    Points whose ground-truth class is ignored are excluded; the ignore class
    itself never counts as a class.
    """
    if len(pred) != len(gt):
        raise LengthMismatchError(f"pred has {len(pred)} points, gt has {len(gt)}")
    ignore = np.asarray(gt.table.ignored, dtype=np.uint16)
    valid = ~np.isin(gt.semantic, ignore)
    g = gt.semantic[valid].astype(np.int64)
    p = pred.semantic[valid].astype(np.int64)
    pair_ids, counts = np.unique((g << 16) | p, return_counts=True)
    inter: dict[tuple[int, int], int] = {
        (int(pid >> 16), int(pid & 0xFFFF)): int(c) for pid, c in zip(pair_ids, counts)
    }
    g_tot: dict[int, int] = {}
    p_tot: dict[int, int] = {}
    for (gc, pc), c in inter.items():
        g_tot[gc] = g_tot.get(gc, 0) + c
        p_tot[pc] = p_tot.get(pc, 0) + c
    classes = sorted((set(g_tot) | set(p_tot)) - set(int(i) for i in ignore))
    ious = {}
    for c in classes:
        i = inter.get((c, c), 0)
        union = g_tot.get(c, 0) + p_tot.get(c, 0) - i
        ious[c] = i / union if union else 0.0
    return ious, _mean(list(ious.values()))


def evaluate(pred: SegLabeling, gt: SegLabeling, min_points: int = 0) -> PanopticReport:
    """Full evaluation: matching, PQ family, starred variant, and mIoU."""
    matches = match_segments(pred, gt, min_points=min_points)
    ious, mean_iou = miou(pred, gt)
    report = panoptic_quality(matches, gt.table, ious)
    report.miou = mean_iou
    return report
