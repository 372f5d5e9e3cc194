import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpano.augment import (
    AXES,
    AugConfig,
    MultiModalSample,
    _remap_instances,
    alternating_slices,
    apply_mix,
    augment,
    donor_instance_ids,
    instance_paste_mask,
    paste_instances,
    rect_union,
    scene_swap_mask,
    sync_image_swap,
)
from cylpano.errors import (
    IndexOutOfRangeError, InsufficientInstancesError, ShapeMismatchError, SpecMismatchError,
)
from cylpano.geometry import InstanceTransform

from cylpano.grid import CylGridSpec, PairingTable, PointCloud, pair_voxel_image, voxelize
from cylpano.synth import SceneConfig, generate_scene

from oracles import azimuth_filter_points, mask_selected_points, z_interval_filter_points

SPEC = CylGridSpec(10, 8, 4, (0.0, 20.0), (-2.0, 2.0))


def random_sample(rng, n=400, scan_tag=0):
    xyz = np.column_stack([rng.uniform(-18, 18, (n, 2)), rng.uniform(-2.5, 2.5, n)])
    cloud = PointCloud(
        xyz,
        rng.random(n),
        rng.integers(1, 5, n),
        rng.integers(0, 6, n),
        np.full(n, scan_tag, dtype=np.uint8),
    )
    return cloud


def scene_pair(seed):
    cfg_a = SceneConfig(rng_seed=seed, camera_count=2, image_size=(96, 72), focal=60.0,
                        ground_points=800, points_per_object=(80, 200), extent=15.0, scan_id=1)
    cfg_b = SceneConfig(rng_seed=seed + 1000, camera_count=2, image_size=(96, 72), focal=60.0,
                        ground_points=800, points_per_object=(80, 200), extent=15.0, scan_id=2)
    return generate_scene(cfg_a).sample, generate_scene(cfg_b).sample


class TestMasks:
    def test_empty_instance_list(self):
        assert instance_paste_mask(np.zeros((0, 3)), SPEC).sum() == 0

    def test_single_voxel(self):
        mask = instance_paste_mask(np.array([[0, 0, 0]]), SPEC)
        assert mask.sum() == 1 and mask[0, 0, 0]

    def test_union_popcount(self):
        rng = np.random.default_rng(0)
        a = np.column_stack([rng.integers(0, s, 30) for s in SPEC.shape])
        b = np.column_stack([rng.integers(0, s, 30) for s in SPEC.shape])
        mask = instance_paste_mask(np.concatenate([a, b]), SPEC)
        union = {tuple(v) for v in a} | {tuple(v) for v in b}
        assert mask.sum() == len(union)

    def test_out_of_range_rejected(self):
        with pytest.raises(IndexOutOfRangeError):
            instance_paste_mask(np.array([[SPEC.r_bins, 0, 0]]), SPEC)

    def test_angle_slices_popcount(self):
        spec = CylGridSpec(6, 4, 3, (0.0, 10.0), (0.0, 1.0))
        mask = scene_swap_mask("angle", {0, 2}, spec)
        assert mask.sum() == spec.r_bins * spec.z_bins * 2
        assert mask[:, 0, :].all() and mask[:, 2, :].all()
        assert not mask[:, 1, :].any()

    def test_all_bins_selected(self):
        assert scene_swap_mask("angle", range(SPEC.theta_bins), SPEC).all()

    def test_height_single_slice(self):
        mask = scene_swap_mask("height", {0}, SPEC)
        assert mask.sum() == SPEC.r_bins * SPEC.theta_bins

    def test_radius_axis_supported(self):
        mask = scene_swap_mask("radius", {3}, SPEC)
        assert mask.sum() == SPEC.theta_bins * SPEC.z_bins
        assert mask[3].all()

    @pytest.mark.parametrize("axis", AXES)
    def test_swap_mask_equals_explicit_slicing(self, axis):
        spec = CylGridSpec(5, 7, 3, (0.0, 10.0), (0.0, 1.0))
        n = {"radius": 5, "angle": 7, "height": 3}[axis]
        rng = np.random.default_rng(n)
        for _ in range(5):
            sel = np.flatnonzero(rng.random(n) < 0.5)
            expect = np.zeros(spec.shape, dtype=bool)
            if axis == "radius":
                expect[sel, :, :] = True
            elif axis == "angle":
                expect[:, sel, :] = True
            else:
                expect[:, :, sel] = True
            assert np.array_equal(scene_swap_mask(axis, sel.tolist(), spec), expect)

    def test_bad_axis_and_bins(self):
        with pytest.raises(ValueError):
            scene_swap_mask("pitch", {0}, SPEC)
        with pytest.raises(IndexOutOfRangeError):
            scene_swap_mask("height", {99}, SPEC)


class TestApplyMix:
    def test_zero_mask_keeps_org(self):
        rng = np.random.default_rng(1)
        org = voxelize(random_sample(rng), SPEC)
        new = voxelize(random_sample(rng, scan_tag=1), SPEC)
        mixed = apply_mix(org, new, np.zeros(SPEC.shape, dtype=bool))
        assert np.array_equal(mixed.voxel_ids, org.voxel_ids)
        assert np.array_equal(
            np.sort(mixed.cloud.xyz, axis=0), np.sort(org.cloud.xyz[org.order], axis=0)
        )
        assert (mixed.source == 0).all()

    def test_ones_mask_takes_new(self):
        rng = np.random.default_rng(2)
        org = voxelize(random_sample(rng), SPEC)
        new = voxelize(random_sample(rng, scan_tag=1), SPEC)
        mixed = apply_mix(org, new, np.ones(SPEC.shape, dtype=bool))
        assert np.array_equal(mixed.voxel_ids, new.voxel_ids)
        assert (mixed.source == 1).all()

    def test_random_mask_tags_equal_mask_values(self):
        rng = np.random.default_rng(3)
        org = voxelize(random_sample(rng), SPEC)
        new = voxelize(random_sample(rng, scan_tag=1), SPEC)
        mask = rng.random(SPEC.shape) < 0.4
        mixed = apply_mix(org, new, mask)
        flat = mask.reshape(-1)
        for row in range(mixed.num_voxels):
            assert mixed.source[row] == int(flat[mixed.voxel_ids[row]])

    def test_complementary_masks_give_complementary_tags(self):
        # Tags travel with each call's inputs: re-tag per call so "1" always
        # means "taken from the second argument".
        rng = np.random.default_rng(4)
        cloud_a = random_sample(rng)
        cloud_b = random_sample(rng)
        mask = rng.random(SPEC.shape) < 0.5

        def tagged(cloud, tag):
            return PointCloud(cloud.xyz, cloud.intensity, cloud.semantic, cloud.instance,
                              np.full(len(cloud), tag, dtype=np.uint8))

        a = apply_mix(voxelize(tagged(cloud_a, 0), SPEC), voxelize(tagged(cloud_b, 1), SPEC), mask)
        b = apply_mix(voxelize(tagged(cloud_b, 0), SPEC), voxelize(tagged(cloud_a, 1), SPEC), ~mask)
        assert np.array_equal(a.voxel_ids, b.voxel_ids)
        assert np.array_equal(a.source, 1 - b.source)

    def test_label_preservation(self):
        rng = np.random.default_rng(5)
        org_cloud = random_sample(rng)
        new_cloud = random_sample(rng, scan_tag=1)
        org = voxelize(org_cloud, SPEC)
        new = voxelize(new_cloud, SPEC)
        mask = rng.random(SPEC.shape) < 0.5
        mixed = apply_mix(org, new, mask)
        # every mixed point's (xyz, intensity, semantic) record exists in its source scan
        def records(cloud):
            return {
                (round(float(x), 5), round(float(y), 5), round(float(z), 5), int(s))
                for (x, y, z), s in zip(cloud.xyz, cloud.semantic)
            }
        org_rec, new_rec = records(org_cloud), records(new_cloud)
        for (x, y, z), s, src in zip(mixed.cloud.xyz, mixed.cloud.semantic, mixed.cloud.source):
            rec = (round(float(x), 5), round(float(y), 5), round(float(z), 5), int(s))
            assert rec in (new_rec if src else org_rec)

    @pytest.mark.parametrize("mask_kind", ["zeros", "ones", "random"])
    @pytest.mark.parametrize("cloud_kind", ["random", "out_of_range", "empty"])
    def test_merge_equals_rebinning(self, mask_kind, cloud_kind):
        rng = np.random.default_rng(7)
        n = 0 if cloud_kind == "empty" else 400
        org_cloud = random_sample(rng, n)
        new_cloud = random_sample(rng, n, scan_tag=1)
        if cloud_kind == "out_of_range":
            far = np.array([[30.0, 0.0, 0.0], [0.0, 5.0, 2.5], [1.0, 1.0, -9.0]])
            org_cloud = PointCloud.concat([org_cloud, PointCloud(far, np.zeros(3), np.ones(3), np.ones(3))])
        mask = {
            "zeros": np.zeros(SPEC.shape, dtype=bool),
            "ones": np.ones(SPEC.shape, dtype=bool),
            "random": rng.random(SPEC.shape) < 0.4,
        }[mask_kind]
        mixed = apply_mix(voxelize(org_cloud, SPEC), voxelize(new_cloud, SPEC), mask)
        rebinned = voxelize(mixed.cloud, SPEC)
        for name in ("voxel_ids", "starts", "order", "source", "dropped"):
            got, want = getattr(mixed, name), getattr(rebinned, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    @settings(max_examples=60, deadline=None)
    @given(
        kinds=st.tuples(*[st.sampled_from(["random", "out_of_range", "empty"])] * 2),
        seed=st.integers(0, 2**32 - 1),
        share=st.floats(0.0, 1.0),
    )
    def test_complementary_masks_partition_the_points(self, kinds, seed, share):
        def records(cloud):
            rec = np.empty(len(cloud), dtype=[("x", "<f4"), ("y", "<f4"), ("z", "<f4"), ("intensity", "<f4"),
                                              ("semantic", "<u2"), ("source", "u1")])
            rec["x"], rec["y"], rec["z"] = cloud.xyz.T
            rec["intensity"], rec["semantic"], rec["source"] = cloud.intensity, cloud.semantic, cloud.source
            return rec

        rng = np.random.default_rng(seed)
        grids = []
        for tag, kind in enumerate(kinds):
            cloud = random_sample(rng, 0 if kind == "empty" else int(rng.integers(1, 200)), scan_tag=tag)
            if kind == "out_of_range":
                cloud.xyz[:, 2] += 10.0  # every point above z_max
            grids.append(voxelize(cloud, SPEC))
        mask = rng.random(SPEC.shape) < share
        got = np.concatenate([records(apply_mix(*grids, m).cloud) for m in (mask, ~mask)])
        want = np.concatenate([records(g.cloud.select(g.order)) for g in grids])
        assert np.array_equal(np.sort(got), np.sort(want))

    def test_spec_mismatch(self):
        rng = np.random.default_rng(6)
        org = voxelize(random_sample(rng), SPEC)
        other = CylGridSpec(5, 8, 4, (0.0, 20.0), (-2.0, 2.0))
        new = voxelize(random_sample(rng), other)
        with pytest.raises(SpecMismatchError):
            apply_mix(org, new, np.zeros(SPEC.shape, dtype=bool))
        with pytest.raises(SpecMismatchError):
            apply_mix(org, voxelize(random_sample(rng), SPEC), np.zeros((1, 2, 3), dtype=bool))


class TestRemapInstances:
    def test_remap_up_to_last_uint16_id(self):
        out = _remap_instances(np.array([65533], np.uint16), np.array([0, 9, 4, 9], np.uint16))
        assert out.dtype == np.uint16
        assert out.tolist() == [0, 65535, 65534, 65535]

    def test_one_id_past_uint16_raises(self):
        with pytest.raises(ShapeMismatchError):
            _remap_instances(np.array([65534], np.uint16), np.array([4, 9], np.uint16))


class TestSyncImageSwap:
    def _setup(self, seed=7):
        org, new = scene_pair(seed)
        new_grid = pair_voxel_image(voxelize(new.cloud, SPEC), new.cams)
        return org, new, new_grid

    def test_zero_mask_identity(self):
        org, new, new_grid = self._setup()
        out, rects = sync_image_swap(
            org.images, new.images, np.zeros(SPEC.shape, dtype=bool), new_grid.pairings
        )
        for a, b in zip(out, org.images):
            assert np.array_equal(a, b)
        assert all(len(r) == 0 for r in rects.values())

    def test_missing_or_empty_table_swaps_nothing(self):
        org, new, new_grid = self._setup()
        ones = np.ones(SPEC.shape, dtype=bool)
        full_out, full_rects = sync_image_swap(org.images, new.images, ones, new_grid.pairings)
        assert not np.array_equal(full_out[0], org.images[0])
        empty = PairingTable(np.zeros(0, np.int64), np.zeros((0, 4), np.int32))
        for pairings in ({1: new_grid.pairings[1]}, {0: empty, 1: new_grid.pairings[1]}):
            out, rects = sync_image_swap(org.images, new.images, ones, pairings)
            assert np.array_equal(out[0], org.images[0])
            assert rects[0].dtype == np.int32 and rects[0].shape == (0, 4)
            assert np.array_equal(out[1], full_out[1]) and np.array_equal(rects[1], full_rects[1])

    def test_full_image_pairing_with_ones_mask(self):
        org, new, _ = self._setup()
        h, w = org.images[0].shape[:2]
        full = {
            cam_id: PairingTable(
                np.array([0], dtype=np.int64), np.array([[0, 0, w - 1, h - 1]], dtype=np.int32)
            )
            for cam_id in range(len(org.cams))
        }
        mask = np.zeros(SPEC.shape, dtype=bool)
        mask.reshape(-1)[0] = True
        out, _ = sync_image_swap(org.images, new.images, mask, full)
        for a, b in zip(out, new.images):
            assert np.array_equal(a, b)

    def test_swapped_pixels_carry_new_scan_tag(self):
        org, new, new_grid = self._setup()
        mask = scene_swap_mask("angle", alternating_slices(SPEC.theta_bins, 4), SPEC)
        out, rects = sync_image_swap(org.images, new.images, mask, new_grid.pairings)
        for cam_id, img in enumerate(out):
            inside = np.zeros(img.shape[:2], dtype=bool)
            for u0, v0, u1, v1 in rects[cam_id]:
                inside[v0:v1 + 1, u0:u1 + 1] = True
            assert (img[inside, 1] == 2).all()  # new scan id
            assert (img[~inside, 1] == 1).all()  # untouched original pixels


def loop_sync_image_swap(org_imgs, new_imgs, mask, new_pairings):
    """The swap as one slice assignment per rectangle."""
    flat_mask = np.asarray(mask).reshape(-1)
    out_imgs, swapped = [], {}
    for cam_id, (org_im, new_im) in enumerate(zip(org_imgs, new_imgs)):
        table = new_pairings[cam_id]
        rects = table.rects[flat_mask[table.flat_ids]]
        out = org_im.copy()
        for u0, v0, u1, v1 in rects:
            out[v0:v1 + 1, u0:u1 + 1] = new_im[v0:v1 + 1, u0:u1 + 1]
        out_imgs.append(out)
        swapped[cam_id] = rects
    return out_imgs, swapped


@st.composite
def image_rects(draw):
    """An odd (H, W) and inclusive rectangles in it: single pixels, border-touching, nested, repeated."""
    h, w = draw(st.integers(0, 10)) * 2 + 1, draw(st.integers(0, 12)) * 2 + 1
    span = lambda n: st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
    rects = []
    for kind in draw(st.lists(st.sampled_from(["any", "pixel", "border", "nested", "repeat"]), max_size=12)):
        (u0, u1), (v0, v1) = draw(span(w)), draw(span(h))
        if kind == "pixel":
            u1, v1 = u0, v0
        elif kind == "border":
            u1, v1 = w - 1, h - 1
        elif kind in ("nested", "repeat") and rects:
            u0, v0, u1, v1 = rects[draw(st.integers(0, len(rects) - 1))]
            if kind == "nested":
                u0, v0 = u0 + (u1 - u0) // 2, v0 + (v1 - v0) // 2
        rects.append((u0, v0, u1, v1))
    return h, w, np.array(rects, dtype=np.int32).reshape(-1, 4)


class TestRectUnion:
    @settings(max_examples=150, deadline=None)
    @given(case=image_rects(), data=st.data())
    def test_swap_equals_rectangle_loop(self, case, data):
        h, w, rects = case
        spec = CylGridSpec(4, 4, 2)
        # one voxel per rectangle; the mask selects some of them
        flat_ids = np.sort(np.random.default_rng(len(rects)).choice(spec.num_cells, len(rects), replace=False))
        selected = data.draw(st.lists(st.booleans(), min_size=len(rects), max_size=len(rects)))
        mask = np.zeros(spec.num_cells, dtype=bool)
        mask[flat_ids[np.array(selected, dtype=bool)]] = True
        mask = mask.reshape(spec.shape)
        rng = np.random.default_rng(h * 100 + w)
        org = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(2)]
        new = [rng.integers(0, 256, (h, w, 3), dtype=np.uint8) for _ in range(2)]
        tables = {0: PairingTable(flat_ids, rects), 1: PairingTable(flat_ids, rects[::-1].copy())}
        got_imgs, got_rects = sync_image_swap(org, new, mask, tables)
        want_imgs, want_rects = loop_sync_image_swap(org, new, mask, tables)
        for cam_id in (0, 1):
            assert got_imgs[cam_id].tobytes() == want_imgs[cam_id].tobytes()
            assert got_rects[cam_id].dtype == want_rects[cam_id].dtype
            assert np.array_equal(got_rects[cam_id], want_rects[cam_id])

    @settings(max_examples=100, deadline=None)
    @given(case=image_rects())
    def test_union_equals_painted_slices(self, case):
        h, w, rects = case
        painted = np.zeros((h, w), dtype=bool)
        for u0, v0, u1, v1 in rects:
            painted[v0:v1 + 1, u0:u1 + 1] = True
        assert np.array_equal(rect_union((h, w), rects), painted)

    def test_edge_cases(self):
        assert not rect_union((3, 5), np.zeros((0, 4), dtype=np.int32)).any()
        whole = rect_union((3, 5), [[0, 0, 4, 2]])
        assert whole.all() and whole.shape == (3, 5)
        pixel = rect_union((3, 5), [[4, 2, 4, 2], [4, 2, 4, 2]])
        assert pixel.sum() == 1 and pixel[2, 4]


class TestPasteInstances:
    def test_zero_instances_is_noop(self):
        org, donor = scene_pair(11)
        out, mask, rects = paste_instances(org, donor, SPEC, 0, [], donor_instance_ids(donor.cloud)[:0])
        assert np.array_equal(out.cloud.xyz, org.cloud.xyz)
        assert mask.shape == SPEC.shape and mask.dtype == bool and not mask.any()
        assert rects == {}  # as from `augment` when no mix runs

    def test_insufficient_instances(self):
        org, donor = scene_pair(12)
        with pytest.raises(InsufficientInstancesError):
            paste_instances(org, donor, SPEC, 99, unmoved(99), np.arange(1, 100))

    def test_instance_ids_must_number_s(self):
        org, donor = scene_pair(16)
        ids = donor_instance_ids(donor.cloud)
        assert len(ids) >= 3
        with pytest.raises(ValueError):
            paste_instances(org, donor, SPEC, 1, unmoved(1), ids[:3])
        with pytest.raises(ValueError):
            paste_instances(org, donor, SPEC, 0, [], ids[:1])

    def test_instance_id_the_donor_lacks(self):
        org, donor = scene_pair(17)
        ids = donor_instance_ids(donor.cloud)
        absent = int(ids.max()) + 1
        with pytest.raises(InsufficientInstancesError, match=rf"\b{absent}\b"):
            paste_instances(org, donor, SPEC, 3, unmoved(3), [ids[0], absent, absent + 1])

    def test_identity_paste_into_empty_region_preserves_records(self):
        rng = np.random.default_rng(13)
        # org occupies x > 2; donor instance sits near the origin-side, empty in org
        org_xyz = np.column_stack([rng.uniform(8, 18, (200, 1)), rng.uniform(-2, 2, (200, 2))])
        org_cloud = PointCloud(org_xyz, np.zeros(200), np.ones(200), np.zeros(200))
        org = MultiModalSample(org_cloud, [np.zeros((8, 8, 3), np.uint8)], [_tiny_cam()])
        inst_xyz = np.column_stack(
            [rng.uniform(-6, -4, (40, 1)), rng.uniform(-1, 1, (40, 1)), rng.uniform(0, 1, (40, 1))]
        )
        donor_cloud = PointCloud(inst_xyz, np.full(40, 0.5), np.full(40, 3), np.full(40, 7))
        donor = MultiModalSample(donor_cloud, [np.zeros((8, 8, 3), np.uint8)], [_tiny_cam()])
        out, mask, _ = paste_instances(org, donor, SPEC, 1, unmoved(1), [7])
        pasted = out.cloud.source == 1
        assert pasted.sum() == 40
        got = {
            (float(x), float(y), float(z), int(s), float(i))
            for (x, y, z), s, i in zip(
                out.cloud.xyz[pasted], out.cloud.semantic[pasted], out.cloud.intensity[pasted]
            )
        }
        want = {
            (float(x), float(y), float(z), 3, 0.5) for x, y, z in donor_cloud.xyz
        }
        assert got == want

    def test_pasted_instance_ids_are_fresh(self):
        org, donor = scene_pair(14)
        out, _, _ = paste_instances(org, donor, SPEC, 2, unmoved(2), donor_instance_ids(donor.cloud)[:2])
        org_max = int(org.cloud.instance.max())
        pasted = out.cloud.source == 1
        ids = np.unique(out.cloud.instance[pasted])
        ids = ids[ids > 0]
        assert (ids > org_max).all()

    def test_pasted_voxels_carry_donor_tag(self):
        org, donor = scene_pair(15)
        out, mask, _ = paste_instances(org, donor, SPEC, 1, unmoved(1), donor_instance_ids(donor.cloud)[:1])
        grid = voxelize(out.cloud, SPEC)
        flat = mask.reshape(-1)
        for row in range(grid.num_voxels):
            if flat[grid.voxel_ids[row]]:
                assert grid.source[row] == 1


def unmoved(s):
    """Transforms that leave `s` pasted instances where the donor holds them."""
    return [InstanceTransform(np.zeros(3))] * s


def _tiny_cam():
    from cylpano.synth import ring_camera

    return ring_camera(0.0, 8, 8, 4.0, 0.0)


class TestGeneralization:
    """Mask-based swaps must equal brute-force point filters, exactly."""

    def test_angle_swap_equals_azimuth_filter(self):
        rng = np.random.default_rng(20)
        for trial in range(10):
            spec = CylGridSpec(
                int(rng.integers(4, 16)),
                int(rng.integers(4, 24)),
                int(rng.integers(2, 8)),
                (0.0, float(rng.uniform(10, 40))),
                (-2.0, 2.0),
            )
            cloud = random_sample(rng, 600)
            grid = voxelize(cloud, spec)
            splits = int(rng.choice([2, 3, 4, 5]))
            selected = alternating_slices(spec.theta_bins, splits)
            mask = scene_swap_mask("angle", selected, spec)
            assert mask_selected_points(grid, mask) == azimuth_filter_points(cloud, spec, selected)

    def test_half_azimuth_swap_equals_point_filter(self):
        rng = np.random.default_rng(21)
        cloud = random_sample(rng, 800)
        selected = alternating_slices(SPEC.theta_bins, 2)  # second half of the azimuth
        mask = scene_swap_mask("angle", selected, SPEC)
        grid = voxelize(cloud, SPEC)
        assert mask_selected_points(grid, mask) == azimuth_filter_points(cloud, SPEC, selected)

    def test_height_swap_equals_z_interval_filter(self):
        rng = np.random.default_rng(22)
        for trial in range(10):
            spec = CylGridSpec(
                int(rng.integers(4, 16)),
                int(rng.integers(4, 16)),
                int(rng.integers(2, 10)),
                (0.0, 20.0),
                (float(rng.uniform(-4, -1)), float(rng.uniform(1, 4))),
            )
            cloud = random_sample(rng, 600)
            grid = voxelize(cloud, spec)
            splits = int(rng.choice([2, 3, 4]))
            selected = alternating_slices(spec.z_bins, splits)
            mask = scene_swap_mask("height", selected, spec)
            assert mask_selected_points(grid, mask) == z_interval_filter_points(cloud, spec, selected)


class TestAugment:
    def _cfg(self, **kw):
        base = dict(
            p_instance=0.0,
            p_height_swap=0.0,
            p_angle_swap=0.0,
            rotation_range=0.0,
            flip_prob=0.0,
            scale_range=(1.0, 1.0),
            rng_seed=0,
        )
        base.update(kw)
        return AugConfig(**base)

    def test_all_zero_probabilities_is_identity(self):
        org, new = scene_pair(30)
        result = augment(org, new, SPEC, self._cfg())
        assert np.array_equal(result.sample.cloud.xyz, org.cloud.xyz)
        assert np.array_equal(result.sample.cloud.semantic, org.cloud.semantic)
        for a, b in zip(result.sample.images, org.images):
            assert np.array_equal(a, b)
        assert (result.grid.source == 0).all()

    def test_same_seed_bit_identical(self):
        org, new = scene_pair(31)
        cfg = self._cfg(p_instance=1.0, p_height_swap=1.0, p_angle_swap=1.0,
                        rotation_range=0.3, flip_prob=0.5, scale_range=(0.9, 1.1), rng_seed=42)
        r1 = augment(org, new, SPEC, cfg)
        r2 = augment(org, new, SPEC, cfg)
        assert np.array_equal(r1.sample.cloud.xyz, r2.sample.cloud.xyz)
        assert np.array_equal(r1.sample.cloud.instance, r2.sample.cloud.instance)
        for a, b in zip(r1.sample.images, r2.sample.images):
            assert np.array_equal(a, b)
        assert np.array_equal(r1.grid.source, r2.grid.source)

    def test_angle_swap_alternating_sectors(self):
        org, new = scene_pair(32)
        cfg = self._cfg(p_angle_swap=1.0, split_choices=(4,), rng_seed=5)
        result = augment(org, new, SPEC, cfg)
        selected = set(alternating_slices(SPEC.theta_bins, 4).tolist())
        assert result.applied["angle"]
        idx3 = result.grid.indices3
        for row in range(result.grid.num_voxels):
            expect = 1 if idx3[row, 1] in selected else 0
            assert result.grid.source[row] == expect
        # exactly 2 of the 4 sectors carry new-scan content
        sectors_with_new = {
            int(idx3[row, 1] // (SPEC.theta_bins // 4))
            for row in range(result.grid.num_voxels)
            if result.grid.source[row]
        }
        assert sectors_with_new == {1, 3}

    def test_categorical_mode_draws_one_strategy(self):
        org, new = scene_pair(33)
        cfg = self._cfg(p_instance=0.4, p_height_swap=0.3, p_angle_swap=0.3,
                        strategy_mode="categorical", rng_seed=3)
        result = augment(org, new, SPEC, cfg)
        assert sum(result.applied.values()) <= 1

    @pytest.mark.parametrize("probs", [(0.4, 0.3, 0.3), (0.25, 0.0, 0.5), (0.0, 0.6, 0.1)])
    def test_categorical_draw_is_the_interval_of_one_uniform(self, probs):
        org, new = scene_pair(35)
        p_i, p_h, p_a = probs
        for seed in range(100):
            u = np.random.default_rng(seed).random()
            expect = {
                "instance": u < p_i,
                "height": p_i <= u < p_i + p_h,
                "angle": p_i + p_h <= u < p_i + p_h + p_a,
            }
            cfg = self._cfg(p_instance=p_i, p_height_swap=p_h, p_angle_swap=p_a,
                            strategy_mode="categorical", rng_seed=seed)
            assert augment(org, new, SPEC, cfg).applied == expect

    def test_global_rotation_keeps_projection_consistent(self):
        from cylpano.geometry import valid_projections

        org, new = scene_pair(34)
        cfg = self._cfg(rotation_range=np.pi, flip_prob=1.0, scale_range=(1.1, 1.1), rng_seed=9)
        result = augment(org, new, SPEC, cfg)
        uv_before, _, valid_before = valid_projections(org.cloud.xyz, org.cams[0])
        uv_after, _, valid_after = valid_projections(result.sample.cloud.xyz, result.sample.cams[0])
        assert np.array_equal(valid_before, valid_after)
        assert np.allclose(uv_before[valid_before], uv_after[valid_after], atol=1e-4)

    @pytest.mark.parametrize(
        "probs, calls",
        [((0, 0, 0), 1), ((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3), ((1, 1, 1), 4)],
        ids=["none", "paste", "height", "angle", "all"],
    )
    def test_voxelize_calls(self, monkeypatch, probs, calls):
        module = sys.modules["cylpano.augment"]
        seen = []

        def counting(cloud, spec):
            seen.append(len(cloud))
            return voxelize(cloud, spec)

        monkeypatch.setattr(module, "voxelize", counting)
        org, new = scene_pair(35)
        cfg = self._cfg(p_instance=probs[0], p_height_swap=probs[1], p_angle_swap=probs[2],
                        rotation_range=0.5, rng_seed=1)
        result = augment(org, new, SPEC, cfg)
        assert sum(result.applied.values()) == sum(probs)
        assert len(seen) == calls

    def test_augment_pastes_as_paste_instances_does(self, monkeypatch):
        import cylpano.augment

        org, new = scene_pair(36)
        drawn = []
        orig = cylpano.augment._paste_mix

        def capturing(donor, spec, instance_ids, transforms):
            drawn.append((instance_ids, transforms))
            return orig(donor, spec, instance_ids, transforms)

        monkeypatch.setattr(cylpano.augment, "_paste_mix", capturing)
        result = augment(org, new, SPEC, self._cfg(p_instance=1.0, rng_seed=4))
        assert result.applied == {"instance": True, "height": False, "angle": False}
        (ids, transforms), = drawn
        out, _, rects = paste_instances(org, new, SPEC, len(ids), transforms, instance_ids=ids)
        for field in ("xyz", "intensity", "semantic", "instance", "source"):
            assert np.array_equal(getattr(result.sample.cloud, field), getattr(out.cloud, field)), field
        for a, b in zip(result.sample.images, out.images, strict=True):
            assert np.array_equal(a, b)
        assert rects.keys() == result.swapped_rects.keys() == {0, 1}
        for cam, r in rects.items():
            assert np.array_equal(r, result.swapped_rects[cam])

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            AugConfig(p_instance=1.5)
        with pytest.raises(ValueError):
            AugConfig(split_choices=())
        with pytest.raises(ValueError):
            AugConfig(p_instance=0.6, p_height_swap=0.3, p_angle_swap=0.3, strategy_mode="categorical")
