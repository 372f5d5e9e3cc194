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

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import IndexOutOfRangeError, LengthMismatchError
from .grid import lookup

THING, STUFF, IGNORE = "thing", "stuff", "ignore"

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
            if not 0 <= cid <= 0xFFFF:  # the u16 semantic field of a PLC2 cloud
                raise ValueError(f"class id {cid} outside [0, 65535]")
            if kind not in (THING, STUFF, IGNORE):
                raise ValueError(f"class {cid} ({name}) has unknown kind {kind!r}")

    @property
    def things(self) -> tuple[int, ...]:
        return tuple(sorted(c for c, (_, k) in self.entries.items() if k == THING))

    @property
    def ignored(self) -> tuple[int, ...]:
        return tuple(sorted(c for c, (_, k) in self.entries.items() if k == IGNORE))

    def name(self, cid: int) -> str:
        return self.entries[cid][0]

    def kind(self, cid: int) -> str:
        return self.entries[cid][1]

    @classmethod
    def synthetic(cls) -> "ClassTable":
        return cls(dict(SYNTH_CLASSES))


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
        unknown = self.semantic[~np.isin(self.semantic, list(self.table.entries))]
        if len(unknown):
            raise IndexOutOfRangeError(f"semantic id {unknown[0]} is not in the class table")
        thing_ids = self.table.things
        is_thing = np.isin(self.semantic, np.asarray(thing_ids, dtype=np.uint16))
        self.instance[~is_thing] = 0

    def __len__(self) -> int:
        return len(self.semantic)


_CLASS_KEYS = ("pq", "sq", "rq", "iou", "tp", "fp", "fn")  # per-class report keys, in JSON order


@dataclass
class ClassStats:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    iou_sum: float = 0.0  # the TPs' IoUs, added in ground-truth key order
    pq: float = 0.0
    sq: float = 0.0
    rq: float = 0.0
    iou: float = 0.0  # semantic IoU


def _segment_key(sem: np.ndarray, inst: np.ndarray) -> np.ndarray:
    """Class id in bits 16-31 and instance id in bits 0-15, as uint64, so two keys fit in one pair key."""
    return (sem.astype(np.uint64) << 16) | inst


def match_segments(pred: SegLabeling, gt: SegLabeling, min_points: int) -> dict[int, ClassStats]:
    """Match same-class segments at IoU > 0.5 after removing ignore-class points.

    Points whose ground-truth class is ignored are removed entirely;
    predicted segments of an ignored class never count. With `min_points`
    set, segments smaller than the threshold are excluded from the tallies.
    Returns the TP, FP and FN counts and the TP IoU sum of each class that
    has a TP, FP or FN, in ascending class order.
    """
    if len(pred) != len(gt):
        raise LengthMismatchError(f"pred has {len(pred)} points, gt has {len(gt)}")
    if pred.table.entries != gt.table.entries:
        raise ValueError("pred and gt must share one class table")
    ignore = np.asarray(gt.table.ignored, dtype=np.uint16)
    valid = ~np.isin(gt.semantic, ignore)
    g_sem, p_sem = gt.semantic[valid], pred.semantic[valid]
    g_key = _segment_key(g_sem, gt.instance[valid])
    p_key = _segment_key(p_sem, pred.instance[valid])
    g_ids, g_sizes = np.unique(g_key, return_counts=True)
    p_ids, p_sizes = np.unique(p_key, return_counts=True)
    g_ids, g_sizes = g_ids[g_sizes >= min_points], g_sizes[g_sizes >= min_points]
    keep = (p_sizes >= min_points) & (lookup(ignore, p_ids >> 16) < 0)  # no segment of an ignored class
    p_ids, p_sizes = p_ids[keep], p_sizes[keep]

    # the overlaps of same-class segments, sorted by gt key (the high word)
    same = g_sem == p_sem
    pair_ids, inters = np.unique((g_key[same] << 32) | p_key[same], return_counts=True)
    g_at, p_at = lookup(g_ids, pair_ids >> 32), lookup(p_ids, pair_ids & 0xFFFFFFFF)
    kept = (g_at >= 0) & (p_at >= 0)
    g_at, p_at, inters = g_at[kept], p_at[kept], inters[kept]
    iou = inters / (g_sizes[g_at] + p_sizes[p_at] - inters)
    hit = iou > 0.5
    g_tp, p_tp = g_at[hit], p_at[hit]
    if len(np.unique(g_tp)) < len(g_tp) or len(np.unique(p_tp)) < len(p_tp):
        raise AssertionError("IoU > 0.5 matching must be unique")

    # each kept segment is a TP, or else an FN (gt) or an FP (pred)
    classes = np.union1d(g_ids >> 16, p_ids >> 16)
    g_cls, p_cls = lookup(classes, g_ids >> 16), lookup(classes, p_ids >> 16)
    tp = np.bincount(g_cls[g_tp], minlength=len(classes))
    # bincount adds one IoU at a time in array order, from 0.0, so each class's sum runs in gt key order
    iou_sum = np.bincount(g_cls[g_tp], weights=iou[hit], minlength=len(classes))
    fp = np.bincount(p_cls, minlength=len(classes)) - tp
    fn = np.bincount(g_cls, minlength=len(classes)) - tp
    return {
        c: ClassStats(t, f, m, s)
        for c, t, f, m, s in zip(classes.tolist(), tp.tolist(), fp.tolist(), fn.tolist(), iou_sum.tolist())
    }


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
    per_class: dict[int, ClassStats],
    table: ClassTable,
    semantic_iou: dict[int, float],
) -> PanopticReport:
    """Fill in each class's semantic IoU, SQ, RQ and PQ from its match tallies, then the aggregates.

    Classes with no TP, FP, or FN do not participate in any aggregate. The
    starred aggregate substitutes each stuff class's semantic IoU for its PQ
    and therefore needs `semantic_iou`.
    """
    for cls, st in per_class.items():
        st.iou = semantic_iou.get(cls, 0.0)
        st.sq = st.iou_sum / st.tp if st.tp else 0.0
        denom = st.tp + 0.5 * st.fp + 0.5 * st.fn
        st.rq = st.tp / denom if denom else 0.0
        st.pq = st.sq * st.rq

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
    # the confusion table's non-zero cells, and per-class sums over them indexed by class id
    cells, counts = np.unique((gt.semantic[valid].astype(np.uint32) << 16) | pred.semantic[valid], return_counts=True)
    g, p = cells >> 16, cells & 0xFFFF
    size = 1 + int(max(g.max(initial=0), p.max(initial=0)))
    inter = np.bincount(g[g == p], counts[g == p], size)  # float64, exact: counts stay below 2**53
    union = np.bincount(g, counts, size) + np.bincount(p, counts, size) - inter
    classes = np.flatnonzero(union)
    classes = classes[lookup(ignore, classes) < 0]
    ious = dict(zip(classes.tolist(), (inter[classes] / union[classes]).tolist()))
    return ious, _mean(list(ious.values()))


def evaluate(pred: SegLabeling, gt: SegLabeling, min_points: int = 0) -> PanopticReport:
    """Full evaluation: matching, PQ family, starred variant, and mIoU."""
    per_class = match_segments(pred, gt, min_points=min_points)
    ious, mean_iou = miou(pred, gt)
    report = panoptic_quality(per_class, gt.table, ious)
    report.miou = mean_iou
    return report
