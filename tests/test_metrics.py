import numpy as np
import pytest

from cylpano.errors import IndexOutOfRangeError, LengthMismatchError
from cylpano.metrics import ClassTable, SegLabeling, evaluate, match_segments, miou

from oracles import reference_miou, reference_panoptic_report

# classes: 0 ignore, 1-3 things, 4-5 stuff
TABLE = ClassTable(
    {
        0: ("void", "ignore"),
        1: ("car", "thing"),
        2: ("person", "thing"),
        3: ("pole", "thing"),
        4: ("road", "stuff"),
        5: ("grass", "stuff"),
    }
)


# class ids past 32767, where a segment key shifted into the high word of an int64 pair key overflows
WIDE_TABLE = ClassTable({0: ("void", "ignore"), 7: ("car", "thing"), 40000: ("bus", "thing"), 65535: ("road", "stuff")})


def labeling(sem, inst, table=TABLE):
    return SegLabeling(np.asarray(sem), np.asarray(inst), table)


def random_scene(rng, n=None, table=TABLE):
    n = n or int(rng.integers(20, 200))
    ids = np.asarray(sorted(table.entries))
    gt_sem = ids[rng.integers(0, len(ids), n)]
    gt_inst = np.where(np.isin(gt_sem, table.things), rng.integers(1, 9, n), 0)
    # predictions correlate with gt but carry noise
    pred_sem = gt_sem.copy()
    flip = rng.random(n) < 0.3
    pred_sem[flip] = ids[rng.integers(0, len(ids), flip.sum())]
    pred_inst = np.where(np.isin(pred_sem, table.things), rng.integers(1, 9, n), 0)
    keep = rng.random(n) < 0.7
    pred_inst[keep & np.isin(gt_sem, table.things) & (pred_sem == gt_sem)] = gt_inst[
        keep & np.isin(gt_sem, table.things) & (pred_sem == gt_sem)
    ]
    return labeling(pred_sem, pred_inst, table), labeling(gt_sem, gt_inst, table)


class TestMatching:
    def test_perfect_prediction_all_tp_iou_one(self):
        rng = np.random.default_rng(0)
        _, gt = random_scene(rng, 150)
        m = match_segments(gt, gt, min_points=0)
        assert m
        for st in m.values():
            assert st.fp == st.fn == 0 and st.iou_sum == st.tp

    def test_partial_overlap_hand_iou(self):
        gt = labeling([1] * 100, [1] * 100)
        pred_sem = [1] * 60 + [4] * 40
        pred_inst = [1] * 60 + [0] * 40
        m = match_segments(labeling(pred_sem, pred_inst), gt, min_points=0)
        assert m[1].tp == 1
        assert m[1].iou_sum == pytest.approx(0.6)

    def test_exact_half_iou_is_fp_plus_fn(self):
        # pred covers 50 of 100 gt points and nothing else: IoU = 0.5 exactly
        gt = labeling([1] * 100, [1] * 100)
        pred_sem = [1] * 50 + [4] * 50
        pred_inst = [1] * 50 + [0] * 50
        m = match_segments(labeling(pred_sem, pred_inst), gt, min_points=0)
        assert m[1].tp == 0
        assert m[1].fp == m[1].fn == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            match_segments(labeling([1], [1]), labeling([1, 1], [1, 1]), min_points=0)

    def test_ignore_class_removed(self):
        gt = labeling([0] * 50 + [1] * 50, [0] * 50 + [1] * 50)
        pred = labeling([2] * 50 + [1] * 50, [3] * 50 + [1] * 50)
        m = match_segments(pred, gt, min_points=0)
        # the 50 void gt points vanish, so the pred "2" segment has no footprint
        assert 2 not in m
        assert m[1].tp == 1


class TestLabels:
    @pytest.mark.parametrize("cid", [-1, 0x10000])
    def test_class_id_outside_u16_rejected(self, cid):
        with pytest.raises(ValueError):
            ClassTable({cid: ("car", "thing")})

    def test_semantic_id_not_in_table_rejected(self):
        with pytest.raises(IndexOutOfRangeError, match="semantic id 9"):
            labeling([1, 9, 4], [1, 1, 0])


class TestPanopticQuality:
    def test_perfect_scene_scores_one(self):
        rng = np.random.default_rng(1)
        _, gt = random_scene(rng, 180)
        report = evaluate(gt, gt)
        assert report.pq == 1.0 and report.rq == 1.0 and report.sq == 1.0
        assert report.pq_dagger == 1.0 and report.miou == 1.0
        for c in report.participating:
            assert report.per_class[c].pq == 1.0

    def test_hand_case_single_tp_single_fp(self):
        # class 1: one TP at IoU 0.6 and one FP
        gt_sem = [1] * 100 + [4] * 30
        gt_inst = [1] * 100 + [0] * 30
        pred_sem = [1] * 60 + [4] * 40 + [1] * 30
        pred_inst = [1] * 60 + [0] * 40 + [2] * 30
        report = evaluate(labeling(pred_sem, pred_inst), labeling(gt_sem, gt_inst))
        st = report.per_class[1]
        assert st.sq == pytest.approx(0.6, abs=1e-12)
        assert st.rq == pytest.approx(2 / 3, abs=1e-12)
        assert st.pq == pytest.approx(0.4, abs=1e-12)

    def test_absent_class_excluded_from_aggregates(self):
        gt = labeling([1] * 50, [1] * 50)
        report = evaluate(gt, gt)
        assert report.participating == [1]
        assert 5 not in report.per_class

    def test_pq_equals_sq_times_rq(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            pred, gt = random_scene(rng)
            report = evaluate(pred, gt)
            for st in report.per_class.values():
                assert abs(st.pq - st.sq * st.rq) <= 1e-12

    def test_point_order_changes_nothing(self):
        # Dozens of TPs per class with distinct IoUs, so a class's IoU sum would round differently if
        # it were added in point order rather than in ground-truth key order.
        rng = np.random.default_rng(8)
        for _ in range(5):
            gt_sem, gt_inst = rng.integers(1, 6, 3000), rng.integers(1, 60, 3000)
            pred_sem, pred_inst = gt_sem.copy(), gt_inst.copy()
            noise = rng.random(3000) < 0.2
            pred_sem[noise], pred_inst[noise] = rng.integers(0, 6, noise.sum()), rng.integers(1, 60, noise.sum())
            pred, gt = labeling(pred_sem, pred_inst), labeling(gt_sem, gt_inst)
            perm = rng.permutation(3000)
            shuffled = evaluate(labeling(pred.semantic[perm], pred.instance[perm]),
                                labeling(gt.semantic[perm], gt.instance[perm]))
            assert shuffled.to_dict() == evaluate(pred, gt).to_dict()

    def test_instance_relabeling_changes_nothing(self):
        rng = np.random.default_rng(3)
        pred, gt = random_scene(rng, 150)
        base = evaluate(pred, gt).to_dict()
        perm = rng.permutation(2**12)
        pred2 = labeling(pred.semantic, perm[pred.instance])
        gt2 = labeling(gt.semantic, perm[gt.instance])
        assert evaluate(pred2, gt2).to_dict() == base

    def test_added_fp_segment_never_raises_rq(self):
        # Append points whose gt joins an existing stuff segment while the
        # prediction forms a brand-new segment: a pure FP. Growing the gt
        # stuff segment can only lower IoUs, so no class's RQ may rise.
        rng = np.random.default_rng(4)
        for _ in range(20):
            pred, gt = random_scene(rng, 120)
            before = evaluate(pred, gt)
            n_extra = int(rng.integers(1, 15))
            cls = int(rng.choice([1, 2, 3]))
            pred2 = labeling(
                np.concatenate([pred.semantic, np.full(n_extra, cls)]),
                np.concatenate([pred.instance, np.full(n_extra, pred.instance.max() + 1)]),
            )
            gt2 = labeling(
                np.concatenate([gt.semantic, np.full(n_extra, 4)]),
                np.concatenate([gt.instance, np.zeros(n_extra)]),
            )
            after = evaluate(pred2, gt2)
            for c in before.per_class:
                if c in after.per_class:
                    assert after.per_class[c].rq <= before.per_class[c].rq + 1e-12

    def test_pq_dagger_uses_semantic_iou_for_stuff(self):
        gt_sem = [4] * 80 + [1] * 20
        gt_inst = [0] * 80 + [1] * 20
        pred_sem = [4] * 50 + [5] * 30 + [1] * 20
        pred_inst = [0] * 50 + [0] * 30 + [1] * 20
        report = evaluate(labeling(pred_sem, pred_inst), labeling(gt_sem, gt_inst))
        # stuff class 4: pred covers 50 of 80, IoU = 50/80; its segment IoU 0.625 > 0.5 is a TP
        iou4 = 50 / 80
        assert report.per_class[4].iou == pytest.approx(iou4)
        # participating: 1 (thing, PQ 1), 4 (stuff, IoU for dagger), 5 (stuff FP, IoU 0)
        want = (1.0 + iou4 + 0.0) / 3
        assert report.pq_dagger == pytest.approx(want)

    def test_min_points_filter_drops_tiny_segments(self):
        gt_sem = [1] * 3 + [4] * 100
        gt_inst = [1] * 3 + [0] * 100
        pred = labeling(gt_sem, gt_inst)
        full = evaluate(pred, labeling(gt_sem, gt_inst))
        filtered = evaluate(pred, labeling(gt_sem, gt_inst), min_points=5)
        assert 1 in full.per_class
        assert 1 not in filtered.per_class


class TestMiou:
    def test_identity(self):
        rng = np.random.default_rng(5)
        _, gt = random_scene(rng, 100)
        ious, mean = miou(gt, gt)
        assert mean == 1.0 and all(v == 1.0 for v in ious.values())

    def test_flipped_binary_scene(self):
        gt = labeling([1] * 50 + [2] * 50, [1] * 50 + [2] * 50)
        pred = labeling([2] * 50 + [1] * 50, [2] * 50 + [1] * 50)
        ious, mean = miou(pred, gt)
        assert ious[1] == 0.0 and ious[2] == 0.0 and mean == 0.0

    def test_confusion_matrix_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            pred, gt = random_scene(rng)
            ious, mean = miou(pred, gt)
            ref_ious, ref_mean = reference_miou(pred.semantic, gt.semantic, TABLE)
            assert ious == ref_ious
            assert mean == ref_mean


class TestOracleEquivalence:
    def test_full_report_matches_brute_force(self):
        rng = np.random.default_rng(7)
        scenes = [random_scene(rng) for _ in range(30)] + [random_scene(rng, table=WIDE_TABLE) for _ in range(30)]
        for pred, gt in scenes:
            report = evaluate(pred, gt)
            ref_classes, ref_agg, ref_part = reference_panoptic_report(
                pred.semantic, pred.instance, gt.semantic, gt.instance, gt.table
            )
            assert sorted(report.per_class) == sorted(ref_classes)
            for c, st in report.per_class.items():
                ref = ref_classes[c]
                assert (st.tp, st.fp, st.fn) == (ref["tp"], ref["fp"], ref["fn"])
                assert st.sq == ref["sq"] and st.rq == ref["rq"] and st.pq == ref["pq"]
            assert report.participating == ref_part
            agg = report.to_dict()["aggregates"]
            for key, val in ref_agg.items():
                assert agg[key] == val, key
