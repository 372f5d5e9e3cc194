import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpano.errors import IndexOutOfRangeError
from cylpano.geometry import TWO_PI, cart_to_polar
from cylpano.grid import (
    CylGridSpec,
    PointCloud,
    centroids_batch,
    extreme_points_batch,
    pair_voxel_image,
    voxel_centroid,
    voxel_extreme_points,
    voxel_volume,
    voxelize,
)
from cylpano.synth import ring_camera

NUSC_SPEC = CylGridSpec(480, 360, 32, (0.0, 50.0), (-5.0, 3.0))


def random_cloud(rng, n=500, radius=45.0):
    xyz = np.column_stack(
        [rng.uniform(-radius, radius, (n, 2)), rng.uniform(-6.0, 4.0, n)]
    )
    return PointCloud(xyz, rng.random(n), rng.integers(0, 5, n), rng.integers(0, 4, n))


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            CylGridSpec(0, 1, 1)
        with pytest.raises(ValueError):
            CylGridSpec(1, 1, 1, (-1.0, 50.0))
        with pytest.raises(ValueError):
            CylGridSpec(1, 1, 1, (0.0, 50.0), (3.0, -5.0))

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        idx = np.column_stack(
            [rng.integers(0, 480, 100), rng.integers(0, 360, 100), rng.integers(0, 32, 100)]
        )
        assert np.array_equal(NUSC_SPEC.unflatten(NUSC_SPEC.flatten(idx)), idx)


class TestVoxelize:
    def test_hand_bin_assignment(self):
        cloud = PointCloud(np.array([[25.0, 0.0, -1.0]]), np.zeros(1))
        grid = voxelize(cloud, NUSC_SPEC)
        assert grid.num_voxels == 1
        assert tuple(grid.indices3[0]) == (240, 0, 16)

    def test_out_of_range_dropped(self):
        cloud = PointCloud(np.array([[60.0, 0.0, 0.0], [10.0, 0.0, 10.0]]), np.zeros(2))
        grid = voxelize(cloud, NUSC_SPEC)
        assert grid.num_voxels == 0
        assert len(grid.dropped) == 2
        assert grid.source.dtype == np.uint8 and len(grid.source) == 0

    def test_empty_cloud(self):
        grid = voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), NUSC_SPEC)
        assert grid.num_voxels == 0

    def test_partition_property(self):
        rng = np.random.default_rng(1)
        cloud = random_cloud(rng, 2000, radius=55.0)
        grid = voxelize(cloud, NUSC_SPEC)
        reassembled = np.sort(np.concatenate([grid.order, grid.dropped]))
        assert np.array_equal(reassembled, np.arange(len(cloud)))
        assert grid.counts.sum() + len(grid.dropped) == len(cloud)

    def test_points_lie_within_their_bin_edges(self):
        rng = np.random.default_rng(2)
        spec = CylGridSpec(12, 9, 5, (0.0, 50.0), (-5.0, 3.0))
        cloud = random_cloud(rng, 1500)
        grid = voxelize(cloud, spec)
        polar = cart_to_polar(cloud.xyz)
        for row in range(grid.num_voxels):
            r, t, z = grid.indices3[row]
            pol = polar[grid.points_of_row(row)]
            assert (pol[:, 0] >= spec.r_edges[r] - 1e-9).all()
            assert (pol[:, 0] <= spec.r_edges[r + 1] + 1e-9).all()
            assert (pol[:, 1] >= spec.theta_edges[t] - 1e-9).all()
            assert (pol[:, 1] <= spec.theta_edges[t + 1] + 1e-9).all()
            assert (pol[:, 2] >= spec.z_edges[z] - 1e-9).all()
            assert (pol[:, 2] <= spec.z_edges[z + 1] + 1e-9).all()

    @settings(max_examples=300, deadline=None)
    @given(
        bins=st.tuples(st.integers(1, 500), st.integers(1, 720), st.integers(1, 64)),
        r_range=st.tuples(st.floats(0.0, 10.0), st.floats(0.5, 100.0)),
        z_range=st.tuples(st.floats(-10.0, 0.0), st.floats(0.5, 20.0)),
        points=st.lists(
            st.tuples(
                st.booleans(),
                st.one_of(st.floats(TWO_PI - 1e-12, TWO_PI, exclude_max=True),
                          st.floats(5e-324, 1e-12).map(lambda eps: cart_to_polar([1.0, -eps, 0.0])[1]),
                          st.just(0.0)),
                st.booleans(),
            ),
            min_size=1, max_size=20,
        ),
    )
    def test_range_edges_and_theta_near_two_pi_bin_into_their_interval(self, bins, r_range, z_range, points):
        spec = CylGridSpec(*bins, (r_range[0], r_range[0] + r_range[1]), (z_range[0], z_range[0] + z_range[1]))
        # rho and z on the lower or upper range edge; theta within 1e-12 of 2 pi, or rounded to it
        polar = np.array([[spec.r_range[r_hi], theta, spec.z_range[z_hi]] for r_hi, theta, z_hi in points])
        idx, inside = spec.bin_points(polar)
        assert inside.all()
        assert ((idx >= 0) & (idx < np.array(spec.shape))).all()
        for axis, edges in enumerate((spec.r_edges, spec.theta_edges, spec.z_edges)):
            i = idx[:, axis]
            assert ((edges[i] <= polar[:, axis]) & (polar[:, axis] <= edges[i + 1])).all()

    @pytest.mark.parametrize("spec", [
        NUSC_SPEC, CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0)),
        CylGridSpec(7, 13, 5, (1.5, 33.3), (-4.1, 2.7)), CylGridSpec(24, 18, 8, (0.0, 50.0), (-5.0, 3.0)),
    ])
    def test_values_within_ulps_of_an_edge_bin_between_the_edges(self, spec):
        # z = -1e-322 on the second spec used to land in z-bin 2 = [0, 1]
        ranges = (spec.r_range, (0.0, TWO_PI), spec.z_range)
        for axis, (edges, (lo, hi)) in enumerate(zip((spec.r_edges, spec.theta_edges, spec.z_edges), ranges)):
            probes = [edges]
            for direction in (np.inf, -np.inf):
                v = edges
                for _ in range(20):
                    v = np.nextafter(v, direction)
                    probes.append(v)
            vals = np.concatenate(probes)
            vals = vals[(vals >= lo) & (vals <= hi)]
            polar = np.tile([np.mean(spec.r_range), 1.0, np.mean(spec.z_range)], (len(vals), 1))
            polar[:, axis] = vals
            idx, inside = spec.bin_points(polar)
            assert inside.all()
            i = idx[:, axis]
            last = i == len(edges) - 2
            assert (edges[i] <= vals).all()
            assert ((vals < edges[i + 1]) | (last & (vals <= edges[-1]))).all()

    def test_negative_subnormal_z_lands_below_the_zero_edge(self):
        spec = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))
        idx, _ = spec.bin_points(np.array([[1.0, 0.1, -1e-322], [1.0, 0.1, 1e-322], [1.0, 0.1, 0.0]]))
        assert list(idx[:, 2]) == [1, 2, 2]

    def test_upper_range_edge_lands_in_last_bin(self):
        cloud = PointCloud(np.array([[50.0, 0.0, 3.0]]), np.zeros(1))
        grid = voxelize(cloud, NUSC_SPEC)
        assert grid.num_voxels == 1
        assert tuple(grid.indices3[0]) == (479, 0, 31)

    def test_per_voxel_order_follows_input_index(self):
        xyz = np.array([[10.0, 0.0, 0.0], [10.01, 0.0, 0.0], [10.02, 0.0, 0.0]])
        grid = voxelize(PointCloud(xyz[::-1].copy(), np.zeros(3)), CylGridSpec(5, 4, 2))
        assert np.array_equal(grid.points_of_row(0), [0, 1, 2])


def stable_sort_voxelize(cloud: PointCloud, spec: CylGridSpec):
    """order, voxel_ids, starts and source as a stable argsort of the flat ids gives them."""
    idx, inside = spec.bin_points(cart_to_polar(cloud.xyz))
    kept = np.flatnonzero(inside)
    flat = spec.flatten(idx[kept])
    perm = np.argsort(flat, kind="stable")
    order = kept[perm]
    voxel_ids, counts = np.unique(flat[perm], return_counts=True)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    source = (np.maximum.reduceat(cloud.source[order], starts[:-1]) if len(voxel_ids)
              else np.zeros(0, dtype=np.uint8))
    return order, voxel_ids, starts, source


def assert_grid_equals_stable_sort(grid, cloud, spec):
    for got, want in zip((grid.order, grid.voxel_ids, grid.starts, grid.source),
                         stable_sort_voxelize(cloud, spec)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert np.array_equal(grid.dropped, np.setdiff1d(np.arange(len(cloud)), grid.order))


class TestKeySort:
    SPEC = CylGridSpec(6, 5, 3, (0.0, 10.0), (-1.0, 1.0))
    coord = st.floats(-12.0, 12.0, allow_nan=False, width=32)
    point = st.tuples(coord, coord, st.floats(-1.5, 1.5, allow_nan=False, width=32))

    @settings(max_examples=200, deadline=None)
    @given(
        # a few distinct positions, each repeated, give duplicates and shared voxels;
        # coordinates past 10 m and 1 m are out of range
        pool=st.lists(point, min_size=1, max_size=6),
        picks=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 1)), max_size=60),
    )
    def test_equals_stable_argsort(self, pool, picks):
        xyz = np.array([pool[i % len(pool)] for i, _ in picks], dtype=np.float32).reshape(-1, 3)
        tags = np.array([tag for _, tag in picks], dtype=np.uint8)
        cloud = PointCloud(xyz, np.zeros(len(xyz)), source=tags)
        assert_grid_equals_stable_sort(voxelize(cloud, self.SPEC), cloud, self.SPEC)

    def test_empty_and_single_voxel_clouds(self):
        for xyz in (np.zeros((0, 3)), np.tile([3.0, 0.5, 0.2], (50, 1)), [[3.0, 0.5, 0.2], [99.0, 0.0, 0.0]]):
            cloud = PointCloud(xyz, np.zeros(len(xyz)), source=np.arange(len(xyz)) % 2)
            grid = voxelize(cloud, self.SPEC)
            assert grid.num_voxels == min(len(cloud), 1)
            assert_grid_equals_stable_sort(grid, cloud, self.SPEC)

    def test_keys_that_would_overflow_take_the_stable_argsort(self):
        spec = CylGridSpec(2**20, 2**20, 2**20, (0.0, 50.0), (-5.0, 3.0))
        rng = np.random.default_rng(21)
        xyz = np.column_stack([rng.uniform(-30, 30, (12, 2)), rng.uniform(-4, 2, 12)])
        xyz = np.concatenate([xyz, xyz[:4], [[80.0, 0.0, 0.0]]])  # duplicates, one point out of range
        cloud = PointCloud(xyz, np.zeros(len(xyz)), source=rng.integers(0, 2, len(xyz)))
        assert spec.num_cells * (len(cloud) - 1) >= 2**63
        grid = voxelize(cloud, spec)
        assert grid.num_voxels == 12
        assert_grid_equals_stable_sort(grid, cloud, spec)


class TestExtremePoints:
    SPEC = CylGridSpec(2, 4, 1, (0.0, 4.0), (0.0, 1.0))  # rho bins [0,2],[2,4]; theta pi/2 each

    def test_hand_corner_case(self):
        spec = CylGridSpec(2, 4, 1, (0.0, 2.0), (0.0, 1.0))
        corners = voxel_extreme_points((1, 0, 0), spec)  # rho [1,2], theta [0, pi/2], z [0,1]
        expected = {
            (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 2, 0),
            (1, 0, 1), (2, 0, 1), (0, 1, 1), (0, 2, 1),
        }
        got = {tuple(np.round(c, 9)) for c in corners}
        assert got == expected

    def test_always_eight_corners(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            idx = (
                int(rng.integers(0, NUSC_SPEC.r_bins)),
                int(rng.integers(0, NUSC_SPEC.theta_bins)),
                int(rng.integers(0, NUSC_SPEC.z_bins)),
            )
            assert voxel_extreme_points(idx, NUSC_SPEC).shape == (8, 3)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            voxel_extreme_points((2, 0, 0), self.SPEC)

    def test_contained_points_bounded_by_edges(self):
        rng = np.random.default_rng(4)
        spec = CylGridSpec(6, 6, 4, (0.0, 30.0), (-2.0, 2.0))
        cloud = random_cloud(rng, 800, radius=28.0)
        grid = voxelize(cloud, spec)
        for row in range(min(grid.num_voxels, 50)):
            corners = voxel_extreme_points(grid.indices3[row], spec)
            pol_pts = cart_to_polar(cloud.xyz[grid.points_of_row(row)])
            pol_corners = cart_to_polar(corners)
            assert pol_pts[:, 0].min() >= pol_corners[:, 0].min() - 1e-6
            assert pol_pts[:, 0].max() <= pol_corners[:, 0].max() + 1e-6
            assert pol_pts[:, 2].min() >= corners[:, 2].min() - 1e-6
            assert pol_pts[:, 2].max() <= corners[:, 2].max() + 1e-6


class TestCentroid:
    @pytest.mark.parametrize("spec", [NUSC_SPEC, CylGridSpec(7, 13, 5, (1.5, 33.3), (-4.1, 2.7)),
                                      CylGridSpec(1, 1, 1, (0.3, 0.7), (-0.1, 0.2))])
    def test_batch_equals_corner_mean_bit_for_bit(self, spec):
        rng = np.random.default_rng(6)
        for n in (0, 1, 9, 5000):
            idx = np.column_stack([rng.integers(0, b, n) for b in spec.shape])
            got = centroids_batch(idx, spec)
            expected = extreme_points_batch(idx, spec).mean(axis=1)
            assert got.shape == (n, 3) and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()
            # reductions over the rows (a column's mean lifts a BEV peak) sum in the same order
            assert n == 0 or got.mean(axis=0).tobytes() == expected.mean(axis=0).tobytes()
        with pytest.raises(IndexOutOfRangeError):
            centroids_batch(np.array([[0, -1, 0]]), spec)

    def test_hand_average(self):
        spec = CylGridSpec(2, 4, 1, (0.0, 2.0), (0.0, 1.0))
        assert np.allclose(voxel_centroid((1, 0, 0), spec), [0.75, 0.75, 0.5])

    def test_centroid_inside_corner_bbox(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            idx = (
                int(rng.integers(0, NUSC_SPEC.r_bins)),
                int(rng.integers(0, NUSC_SPEC.theta_bins)),
                int(rng.integers(0, NUSC_SPEC.z_bins)),
            )
            corners = voxel_extreme_points(idx, NUSC_SPEC)
            c = voxel_centroid(idx, NUSC_SPEC)
            assert (c >= corners.min(axis=0) - 1e-12).all()
            assert (c <= corners.max(axis=0) + 1e-12).all()

    def test_voxel_straddling_theta_zero_is_symmetric(self):
        spec = CylGridSpec(4, 4, 2, (0.0, 8.0), (0.0, 2.0))
        # theta bin 0 spans [0, pi/2); rotate the spec instead: use a voxel symmetric
        # about theta=0 by combining bins is not possible, so check bin centered there
        # via explicit mirrored corners of bins 0 and 3 averaging to y = 0.
        c0 = voxel_centroid((1, 0, 0), spec)
        c3 = voxel_centroid((1, 3, 0), spec)
        assert c0[1] == pytest.approx(-c3[1])

    def test_volume_grows_linearly_with_radial_bin(self):
        vols = np.array([voxel_volume((r, 0, 0), NUSC_SPEC) for r in range(NUSC_SPEC.r_bins)])
        expected = vols[0] * (2 * np.arange(NUSC_SPEC.r_bins) + 1)
        assert np.allclose(vols, expected, rtol=1e-9)


class TestPairing:
    def test_single_pixel_voxel(self):
        cam = ring_camera(0.0, 64, 64, 50.0, 0.0)
        cloud = PointCloud(np.array([[5.0, 0.0, 0.0]] * 3), np.zeros(3))
        grid = pair_voxel_image(voxelize(cloud, CylGridSpec(4, 4, 2, (0.0, 10.0), (-1.0, 1.0))), [cam])
        table = grid.pairings[0]
        assert len(table.flat_ids) == 1
        u0, v0, u1, v1 = table.rects[0]
        assert (u0, v0) == (u1, v1)

    def test_voxel_behind_camera_unpaired(self):
        cam = ring_camera(0.0, 64, 64, 50.0, 0.0)
        cloud = PointCloud(np.array([[-5.0, 0.0, 0.0]]), np.zeros(1))
        grid = pair_voxel_image(voxelize(cloud, CylGridSpec(4, 4, 2, (0.0, 10.0), (-1.0, 1.0))), [cam])
        table = grid.pairings[0]
        assert table.flat_ids.dtype == np.int64 and table.flat_ids.shape == (0,)
        assert table.rects.dtype == np.int32 and table.rects.shape == (0, 4)

    def test_rect_contains_every_kept_projection(self):
        from cylpano.geometry import valid_projections

        rng = np.random.default_rng(6)
        spec = CylGridSpec(10, 12, 4, (0.0, 30.0), (-3.0, 3.0))
        cams = [ring_camera(a, 96, 72, 60.0, 1.0) for a in (0.0, np.pi)]
        for _ in range(5):
            cloud = random_cloud(rng, 600, radius=25.0)
            grid = pair_voxel_image(voxelize(cloud, spec), cams)
            for cam_id, cam in enumerate(cams):
                uv, _, valid = valid_projections(cloud.xyz, cam)
                table = grid.pairings[cam_id]
                for row in range(grid.num_voxels):
                    pts = grid.points_of_row(row)
                    keep = valid[pts]
                    rect = table.rect_of(int(grid.voxel_ids[row]))
                    if not keep.any():
                        assert rect is None
                        continue
                    cells = np.floor(uv[pts][keep]).astype(int)
                    assert rect is not None
                    u0, v0, u1, v1 = rect
                    assert (cells[:, 0] >= u0).all() and (cells[:, 0] <= u1).all()
                    assert (cells[:, 1] >= v0).all() and (cells[:, 1] <= v1).all()

    def test_pairing_ignores_virtual_center(self):
        # Far, angularly wide voxel: centroid projects outside a narrow-FOV
        # camera while the member points project inside.
        spec = CylGridSpec(25, 4, 4, (0.0, 50.0), (-5.0, 3.0))
        cam = ring_camera(0.0, 640, 360, 2000.0, 0.0)
        theta = 0.03
        pts = np.array([[49.0 * np.cos(theta), 49.0 * np.sin(theta), 0.0],
                        [49.5 * np.cos(theta), 49.5 * np.sin(theta), 0.1]])
        cloud = PointCloud(pts, np.zeros(2))
        grid = pair_voxel_image(voxelize(cloud, spec), [cam])
        assert grid.num_voxels == 1
        from cylpano.geometry import valid_projections
        from cylpano.grid import centroids_batch

        centroid = centroids_batch(grid.indices3, spec)
        _, _, valid = valid_projections(centroid, cam)
        assert not valid[0]  # the virtual center misses the image
        assert grid.pairings[0].rect_of(int(grid.voxel_ids[0])) is not None
