import numpy as np
import pytest

from cylpano.errors import DimensionMismatchError, IndexOutOfRangeError, NoValidProjectionError
from cylpano.geometry import cart_to_polar, rotation_z, valid_projections
from cylpano.grid import CylGridSpec, PointCloud, centroids_batch, extreme_points_batch, voxelize
from cylpano.synth import ring_camera
from cylpano.tokens import (
    N_BANDS,
    SPE_BLOCK,
    FeatureMap,
    SpeParams,
    VoxelFeatures,
    aggregate_image_feature,
    build_tokens,
    centroid_image_feature,
    containing_rows,
    corner_distances,
    fuse_token,
    nearest_occupied_row,
    nearest_occupied_rows,
    position_encoding,
    scale_encoding,
    spe,
    spe_batch,
)

SPEC = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))


def const_fmap(value, dim=4, hw=(16, 16), image=(32, 32)):
    data = np.full((hw[0], hw[1], dim), value, dtype=np.float32)
    return FeatureMap(data, image[0], image[1])


class TestAggregation:
    def test_identical_cells_return_constant(self):
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        pts = np.array([[5.0, 0.0, 0.0], [5.0, 0.01, 0.01], [5.0, -0.01, 0.0]])
        out = aggregate_image_feature(pts, const_fmap(3.5), cam)
        assert np.allclose(out, 3.5)

    def test_mean_of_two_cells(self):
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        fmap = const_fmap(0.0, dim=1, hw=(32, 32))
        fmap.data[:, :16, 0] = 0.0
        fmap.data[:, 16:, 0] = 2.0
        # one point projects left of center, one right
        pts = np.array([[5.0, 1.0, 0.0], [5.0, -1.0, 0.0]])
        out = aggregate_image_feature(pts, fmap, cam)
        assert out[0] == pytest.approx(1.0)

    def test_no_valid_projection(self):
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        with pytest.raises(NoValidProjectionError):
            aggregate_image_feature(np.array([[-5.0, 0.0, 0.0]]), const_fmap(1.0), cam)

    def test_oracle_equality_over_random_voxels(self):
        from cylpano.geometry import valid_projections

        rng = np.random.default_rng(0)
        cam = ring_camera(0.0, 64, 48, 40.0, 0.5)
        fmap = FeatureMap(rng.standard_normal((12, 16, 8)).astype(np.float32), 64, 48)
        worst = 0.0
        for _ in range(1000):
            pts = np.column_stack(
                [rng.uniform(2, 20, (5, 1)), rng.uniform(-3, 3, (5, 1)), rng.uniform(-1, 2, (5, 1))]
            )
            uv, _, valid = valid_projections(pts, cam)
            if not valid.any():
                continue
            got = aggregate_image_feature(pts, fmap, cam)
            acc = np.zeros(8)
            n = 0
            for i in np.flatnonzero(valid):
                col = int(np.floor(uv[i, 0] * 16 / 64))
                row = int(np.floor(uv[i, 1] * 12 / 48))
                acc += fmap.data[row, col].astype(np.float64)
                n += 1
            worst = max(worst, np.abs(got - acc / n).max() / max(np.abs(acc / n).max(), 1e-12))
        assert worst < 1e-6

    def test_bilinear_interpolates_between_cells(self):
        fmap = FeatureMap(np.arange(4, dtype=np.float32).reshape(2, 2, 1), 2, 2)
        mid = fmap.sample(np.array([[1.0, 1.0]]), bilinear=True)
        assert mid[0, 0] == pytest.approx(np.mean([0, 1, 2, 3]))

    def test_bilinear_equals_four_cell_formula(self):
        rng = np.random.default_rng(3)
        fmap = FeatureMap(rng.standard_normal((6, 10, 3)).astype(np.float32), 40, 30)
        # inside, and on or past every image border
        uv = np.concatenate([rng.uniform(0, [40, 30], (200, 2)), [[0, 0], [40, 30], [39.99, 0.01], [0, 29.9]]])
        d = fmap.data.astype(np.float64)
        x = np.clip(uv[:, 0] * 10 / 40 - 0.5, 0, 9)
        y = np.clip(uv[:, 1] * 6 / 30 - 0.5, 0, 5)
        x0, y0 = np.floor(x).astype(int), np.floor(y).astype(int)
        x1, y1 = np.minimum(x0 + 1, 9), np.minimum(y0 + 1, 5)
        ax, ay = (x - x0)[:, None], (y - y0)[:, None]
        expected = (d[y0, x0] * (1 - ax) * (1 - ay) + d[y0, x1] * ax * (1 - ay)
                    + d[y1, x0] * (1 - ax) * ay + d[y1, x1] * ax * ay)
        assert np.abs(fmap.sample(uv, bilinear=True) - expected).max() < 1e-12


class TestSpe:
    def test_deterministic_for_identical_voxels(self):
        params = SpeParams.create(SPEC, dim=16, seed=3)
        corners = extreme_points_batch(np.array([[4, 2, 1]]), SPEC)[0]
        assert np.array_equal(spe(corners, params), spe(corners.copy(), params))

    def test_distance_vector_invariant_under_z_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            idx = np.array(
                [[rng.integers(0, SPEC.r_bins), rng.integers(0, SPEC.theta_bins), rng.integers(0, SPEC.z_bins)]]
            )
            corners = extreme_points_batch(idx, SPEC)[0]
            rot = rotation_z(rng.uniform(0, 2 * np.pi))
            d0 = corner_distances(corners)
            d1 = corner_distances(corners @ rot.T)
            assert np.abs(d0 - d1).max() < 1e-9

    def test_phi_bit_identical_for_identical_distances(self):
        params = SpeParams.create(SPEC, dim=32, seed=5)
        d = np.random.default_rng(2).uniform(0, 3, 8)
        assert np.array_equal(scale_encoding(d, params), scale_encoding(d.copy(), params))

    def test_degenerate_corners_reduce_to_zero_distance_term(self):
        params = SpeParams.create(SPEC, dim=16, seed=7)
        point = np.array([3.0, 1.0, 0.5])
        corners = np.tile(point, (8, 1))
        from cylpano.tokens import position_encoding

        expected = position_encoding(point[None], params)[0] + scale_encoding(np.zeros(8), params)[0]
        assert np.allclose(spe(corners, params), expected, atol=1e-12)

    def test_injective_on_small_grid(self):
        spec = CylGridSpec(24, 18, 8, (0.0, 50.0), (-5.0, 3.0))
        params = SpeParams.create(spec, dim=16, seed=0)
        idx = np.stack(np.meshgrid(
            np.arange(24), np.arange(18), np.arange(8), indexing="ij"
        ), axis=-1).reshape(-1, 3)
        emb = spe_batch(idx, spec, params)
        hashes = {np.round(row, 9).tobytes() for row in emb}
        assert len(hashes) == len(idx)

    @pytest.mark.parametrize("spec", [CylGridSpec(), SPEC, CylGridSpec(7, 13, 5, (1.5, 33.3), (-4.1, 2.7))])
    def test_index_form_equals_corner_definition(self, spec):
        rng = np.random.default_rng(12)
        params = SpeParams.create(spec, dim=32, seed=6)
        r, t, z = (b - 1 for b in spec.shape)
        edges = np.array([[0, 0, 0], [0, t, z], [r, t, z], [r, 0, 0], [0, t, 0], [r, 0, z]])
        idx = np.concatenate([edges, np.column_stack([rng.integers(0, b, 500) for b in spec.shape])])
        corners = extreme_points_batch(idx, spec)
        expected = position_encoding(corners.mean(axis=1), params) + scale_encoding(corner_distances(corners), params)
        got = spe_batch(idx, spec, params)
        assert got.shape == (len(idx), 32)
        assert np.abs(got - expected).max() < 1e-12
        assert np.abs(got[:6] - np.stack([spe(c, params) for c in corners[:6]])).max() < 1e-12
        assert spe_batch(idx[:0], spec, params).shape == (0, 32)

    def test_position_encoding_equals_direct_sinusoids(self):
        rng = np.random.default_rng(13)
        params = SpeParams.create(CylGridSpec(), dim=24, seed=4)
        centers = np.column_stack([rng.uniform(-50, 50, (300, 2)), rng.uniform(-5, 3, 300)])
        coords = np.column_stack([centers, cart_to_polar(centers)[:, :2]])
        args = np.pi * coords[:, :, None] * params.coord_scales[None, :, None] * 2.0 ** np.arange(N_BANDS)
        feats = np.concatenate([np.sin(args), np.cos(args)], axis=2).reshape(len(centers), -1)
        assert np.abs(position_encoding(centers, params) - feats @ params.psi_w.T).max() < 1e-12
        assert position_encoding(np.zeros((0, 3)), params).shape == (0, 24)

    def test_index_outside_grid_rejected(self):
        params = SpeParams.create(SPEC, dim=8, seed=0)
        for bad in ([[-1, 0, 0]], [[0, SPEC.theta_bins, 0]], [[SPEC.r_bins, 0, 0]], [[0, 0, SPEC.z_bins]]):
            with pytest.raises(IndexOutOfRangeError):
                spe_batch(np.array(bad), SPEC, params)

    def test_empty_batch(self):
        params = SpeParams.create(SPEC, dim=16, seed=0)
        assert spe_batch(np.zeros((0, 3), dtype=np.int64), SPEC, params).shape == (0, 16)

    def test_weights_file_round_trip(self, tmp_path):
        from cylpano.formats import read_spe_params, write_spe_params

        params = SpeParams.create(SPEC, dim=24, seed=11)
        write_spe_params(tmp_path / "w.spew", params)
        loaded = read_spe_params(tmp_path / "w.spew")
        idx = np.array([[3, 3, 2]])
        assert np.array_equal(spe_batch(idx, SPEC, params), spe_batch(idx, SPEC, loaded))


class TestFuseToken:
    def test_zero_embedding(self):
        f3d = np.arange(4.0)
        f2d = np.arange(4.0) * 2
        out = fuse_token(f3d, f2d, np.zeros(4))
        assert np.array_equal(out, np.concatenate([f3d, f2d]))

    def test_zero_content_gives_embedding_twice(self):
        s = np.arange(4.0)
        assert np.array_equal(fuse_token(np.zeros(4), np.zeros(4), s), np.concatenate([s, s]))

    def test_structural_length(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(1, 40))
            out = fuse_token(rng.normal(size=d), rng.normal(size=d), rng.normal(size=d))
            assert out.shape == (2 * d,)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fuse_token(np.zeros(3), np.zeros(4), np.zeros(4))


class TestBuildTokens:
    def _scene(self, rng, n=300):
        xyz = np.column_stack([rng.uniform(-20, 20, (n, 2)), rng.uniform(-2, 2, n)])
        cloud = PointCloud(xyz, rng.random(n))
        return voxelize(cloud, SPEC)

    def test_single_voxel_single_camera(self):
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        grid = voxelize(PointCloud(np.array([[5.0, 0.0, 0.0]]), np.zeros(1)), SPEC)
        params = SpeParams.create(SPEC, dim=4, seed=0)
        feats = VoxelFeatures.for_grid(grid, np.ones((1, 4)))
        tokens = build_tokens(grid, feats, [const_fmap(2.0)], [cam], params)
        assert len(tokens) == 1
        assert tokens.content[0].shape == (8,)
        assert tokens.image_valid[0]

    def test_cloud_out_of_range_gives_empty_set(self):
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        grid = voxelize(PointCloud(np.array([[100.0, 0.0, 0.0]]), np.zeros(1)), SPEC)
        params = SpeParams.create(SPEC, dim=4, seed=0)
        placeholder = VoxelFeatures.stats_placeholder(grid, 4)
        assert placeholder.feats.dtype == np.float64 and placeholder.feats.shape == (0, 4)
        feats = VoxelFeatures.for_grid(grid, np.zeros((0, 4)))
        tokens = build_tokens(grid, feats, [const_fmap(2.0)], [cam], params)
        assert len(tokens) == 0
        assert tokens.content.shape == (0, 8) and tokens.spe.shape == (0, 4)

    def test_two_cameras_identical_features_match_single(self):
        rng = np.random.default_rng(5)
        grid = self._scene(rng)
        params = SpeParams.create(SPEC, dim=4, seed=1)
        feats = VoxelFeatures.for_grid(grid, rng.normal(size=(grid.num_voxels, 4)))
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        fmap = const_fmap(1.25)
        one = build_tokens(grid, feats, [fmap], [cam], params)
        two = build_tokens(grid, feats, [fmap, fmap], [cam, cam], params)
        assert np.allclose(one.content, two.content)

    def test_invisible_voxel_gets_zero_image_half_and_flag(self):
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)  # looks along +x
        grid = voxelize(PointCloud(np.array([[-5.0, 0.0, 0.0]]), np.zeros(1)), SPEC)
        params = SpeParams.create(SPEC, dim=4, seed=2)
        feats = VoxelFeatures.for_grid(grid, np.zeros((1, 4)))
        tokens = build_tokens(grid, feats, [const_fmap(9.0)], [cam], params)
        assert not tokens.image_valid[0]
        assert np.allclose(tokens.content[0, 4:] - tokens.spe[0], 0.0)

    def test_shared_embedding_across_both_halves(self):
        rng = np.random.default_rng(6)
        grid = self._scene(rng)
        params = SpeParams.create(SPEC, dim=8, seed=3)
        f3d = rng.normal(size=(grid.num_voxels, 8))
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        fmap = FeatureMap(rng.standard_normal((8, 8, 8)).astype(np.float32), 32, 32)
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), [fmap], [cam], params)
        # recover the raw image means from a build with zeroed lidar features
        zeroed = build_tokens(grid, VoxelFeatures.for_grid(grid, np.zeros_like(f3d)),
                              [fmap], [cam], params)
        f2d = zeroed.content[:, 8:] - zeroed.spe
        # both halves must be shifted by the identical embedding vector
        assert np.allclose(tokens.content[:, :8] - f3d, tokens.content[:, 8:] - f2d, atol=1e-12)
        assert np.allclose(tokens.content[:, :8] - f3d, tokens.spe, atol=1e-12)

    @staticmethod
    def _brute_force_image_half(grid, fmaps, cams, bilinear):
        """Mean of `FeatureMap.sample` over each voxel's valid (point, camera) projections."""
        dim = fmaps[0].dim
        means, seen = np.zeros((grid.num_voxels, dim)), np.zeros(grid.num_voxels, dtype=bool)
        for row in range(grid.num_voxels):
            samples = []
            for p in grid.cloud.xyz[grid.points_of_row(row)]:
                for fmap, cam in zip(fmaps, cams):
                    uv, _, valid = valid_projections(p[None], cam)
                    if valid[0]:
                        samples.append(fmap.sample(uv, bilinear=bilinear)[0])
            if samples:
                means[row], seen[row] = np.mean(samples, axis=0), True
        return means, seen

    @pytest.mark.parametrize("bilinear", [False, True])
    def test_image_half_equals_brute_force(self, bilinear):
        rng = np.random.default_rng(9)
        # points in front of x = 0 only, so the camera looking along -x sees none of them
        n = 400
        xyz = np.column_stack([rng.uniform(1, 20, n), rng.uniform(-15, 15, n), rng.uniform(-2, 2, n)])
        grid = voxelize(PointCloud(xyz, rng.random(n)), SPEC)
        dim = 6
        cams = [ring_camera(0.0, 32, 32, 16.0, 0.0), ring_camera(0.7, 40, 24, 12.0, 0.3),
                ring_camera(np.pi, 32, 32, 16.0, 0.0)]
        fmaps = [FeatureMap(rng.standard_normal(hw + (dim,)).astype(np.float32), c.width, c.height)
                 for hw, c in zip([(8, 8), (6, 10), (4, 4)], cams)]
        params = SpeParams.create(SPEC, dim=dim, seed=8)
        f3d = rng.normal(size=(grid.num_voxels, dim))
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), fmaps, cams, params, bilinear=bilinear)

        means, seen = self._brute_force_image_half(grid, fmaps, cams, bilinear)
        per_cam = [self._brute_force_image_half(grid, [f], [c], bilinear)[1] for f, c in zip(fmaps, cams)]
        assert not per_cam[2].any()
        assert (per_cam[0] != per_cam[1]).any() and (per_cam[0] & per_cam[1]).any()  # some voxel one camera sees
        assert 0 < seen.sum() < grid.num_voxels
        assert np.array_equal(tokens.image_valid, seen)
        assert np.abs(tokens.content[:, dim:] - (tokens.spe + means)).max() < 1e-12
        assert np.array_equal(tokens.content[~seen, dim:], tokens.spe[~seen])
        assert np.abs(tokens.content[:, :dim] - (tokens.spe + f3d)).max() < 1e-12
        assert np.array_equal(tokens.spe, spe_batch(grid.indices3, SPEC, params))

        # the camera behind every point alone: the image half is the embedding, and no voxel is seen
        behind = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), fmaps[2:], cams[2:], params,
                              bilinear=bilinear)
        assert not behind.image_valid.any()
        assert np.array_equal(behind.content[:, dim:], behind.spe)

    @staticmethod
    def _blocked_grid(spec, m):
        """Grid of m voxels, one point each: those in even SPE_BLOCK-row blocks lie within 30 degrees
        of +x, those in odd blocks more than 60 degrees away."""
        idx3 = spec.unflatten(np.arange(spec.num_cells))
        theta = spec.theta_edges[idx3[:, 1]] + np.pi / spec.theta_bins
        off_axis = np.abs(np.angle(np.exp(1j * theta)))
        rows = []
        for flat in range(spec.num_cells):
            if len(rows) == m:
                break
            if off_axis[flat] > np.pi / 3 if (len(rows) // SPE_BLOCK) % 2 else off_axis[flat] < np.pi / 6:
                rows.append(flat)
        r, t, z = idx3[rows].T
        rho = (spec.r_edges[r] + spec.r_edges[r + 1]) / 2
        mid_t = (spec.theta_edges[t] + spec.theta_edges[t + 1]) / 2
        zc = (spec.z_edges[z] + spec.z_edges[z + 1]) / 2
        xyz = np.column_stack([rho * np.cos(mid_t), rho * np.sin(mid_t), zc])
        grid = voxelize(PointCloud(xyz, np.zeros(len(xyz))), spec)
        assert np.array_equal(grid.voxel_ids, rows)
        return grid

    @pytest.mark.parametrize("m", [0, 1, SPE_BLOCK - 1, SPE_BLOCK, SPE_BLOCK + 1, 2 * SPE_BLOCK + 3])
    def test_block_boundaries_equal_unblocked_reference(self, m):
        spec = CylGridSpec(80, 36, 4, (1.0, 41.0), (-0.5, 0.5))
        grid = self._blocked_grid(spec, m)
        dim = 6
        rng = np.random.default_rng(m)
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0)]
        fmaps = [FeatureMap(rng.standard_normal((8, 12, dim)).astype(np.float32), 48, 32)]
        params = SpeParams.create(spec, dim=dim, seed=2)
        f3d = rng.normal(size=(m, dim))
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), fmaps, cams, params)

        corners = extreme_points_batch(grid.indices3, spec)
        spe_ref = position_encoding(corners.mean(axis=1), params) + scale_encoding(corner_distances(corners), params)
        means, seen = self._brute_force_image_half(grid, fmaps, cams, False)
        # the camera along +x sees exactly the voxels of the even blocks
        assert np.array_equal(seen, np.arange(m) // SPE_BLOCK % 2 == 0)
        assert np.array_equal(tokens.image_valid, seen)
        assert tokens.content.shape == (m, 2 * dim)
        if m:
            assert np.abs(tokens.content[:, :dim] - (spe_ref + f3d)).max() < 1e-12
            assert np.abs(tokens.content[:, dim:] - (spe_ref + means)).max() < 1e-12
        assert np.array_equal(tokens.spe, spe_batch(grid.indices3, spec, params))

    def test_tokens_ordered_by_voxel_index(self):
        rng = np.random.default_rng(7)
        grid = self._scene(rng)
        params = SpeParams.create(SPEC, dim=4, seed=4)
        feats = VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels, 4)))
        tokens = build_tokens(grid, feats, [], [], params)
        flat = SPEC.flatten(tokens.indices3)
        assert (np.diff(flat) > 0).all()

    def test_physical_points_beat_virtual_center(self):
        # Far wide voxel: centroid outside the narrow image, points inside.
        spec = CylGridSpec(25, 4, 4, (0.0, 50.0), (-5.0, 3.0))
        cam = ring_camera(0.0, 640, 360, 2000.0, 0.0)
        theta = 0.03
        pts = np.array([[49.0 * np.cos(theta), 49.0 * np.sin(theta), 0.0],
                        [49.5 * np.cos(theta), 49.5 * np.sin(theta), 0.1]])
        grid = voxelize(PointCloud(pts, np.zeros(2)), spec)
        fmap = FeatureMap(np.full((36, 64, 4), 5.0, dtype=np.float32), 640, 360)
        agg = aggregate_image_feature(pts, fmap, cam)
        assert np.allclose(agg, 5.0)
        corners = extreme_points_batch(grid.indices3, spec)[0]
        with pytest.raises(NoValidProjectionError):
            centroid_image_feature(corners, fmap, cam)

    def test_feature_coverage_validated(self):
        rng = np.random.default_rng(8)
        grid = self._scene(rng)
        params = SpeParams.create(SPEC, dim=4, seed=5)
        with pytest.raises(DimensionMismatchError):
            VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels - 1, 4)))
        with pytest.raises(DimensionMismatchError):
            build_tokens(grid, VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels, 5))), [], [], params)


class TestNearestOccupiedRow:
    # one column (r=1, theta=0) of a grid with 1 m z-bins: voxels at z-bins 0 and 2 occupied
    spec = CylGridSpec(4, 4, 8, (0.0, 8.0), (-4.0, 4.0))

    def _grid(self):
        c = 3.0 * np.cos(np.pi / 4)
        pts = np.array([[c, c, -3.5], [c, c, -1.5]])
        return voxelize(PointCloud(pts, np.zeros(2)), self.spec)

    def test_equal_distance_goes_to_lower_row(self):
        grid = self._grid()
        cents = centroids_batch(grid.indices3, self.spec)
        # the centroid of the empty voxel between them, at z-bin 1
        pos = centroids_batch(np.array([[1, 0, 1]]), self.spec)[0]
        d = np.linalg.norm(cents - pos, axis=1)
        assert grid.indices3.tolist() == [[1, 0, 0], [1, 0, 2]]
        assert d[0] == d[1]
        assert containing_rows(grid, pos).tolist() == [-1]
        assert nearest_occupied_row(grid, pos) == 0
        assert nearest_occupied_rows(grid, [pos, pos]).tolist() == [0, 0]

    def test_containing_rows(self):
        grid = self._grid()
        c = 3.0 * np.cos(np.pi / 4)
        pos = np.array([[c, c, -1.5], [c, c, -2.5], [c, c, 9.0], [c, c, -3.5]])
        assert containing_rows(grid, pos).tolist() == [1, -1, -1, 0]
        assert containing_rows(grid, np.zeros((0, 3))).tolist() == []
        empty = voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), self.spec)
        assert containing_rows(empty, pos).tolist() == [-1] * 4
        assert nearest_occupied_row(empty, pos[0]) == -1

    def test_fallback_equals_brute_force_far_out_and_on_ties(self):
        rng = np.random.default_rng(11)
        pts = np.column_stack([rng.uniform(-8, 8, (400, 2)), rng.uniform(-4, 4, 400)])
        idx, _ = self.spec.bin_points(cart_to_polar(pts))
        # column (r=1, theta=0) keeps only z-bins 0 and 2, so the centroid of its
        # empty z-bin 1 lies exactly 1 m from two occupied centroids
        c = 3.0 * np.cos(np.pi / 4)
        pts = np.concatenate([pts[(idx[:, 0] != 1) | (idx[:, 1] != 0)], [[c, c, -3.5], [c, c, -1.5]]])
        grid = voxelize(PointCloud(pts, np.zeros(len(pts))), self.spec)
        tie = centroids_batch(np.array([[1, 0, 1]]), self.spec)[0]
        far = np.array([[1e6, 0.0, 0.0], [0.0, -1e6, 1e4], [-3e5, 2e5, -1e5], [0.0, 0.0, 50.0], [1e-9, 0.0, -1e3]])
        pos = np.concatenate([[tie], far, np.column_stack([rng.uniform(-30, 30, (300, 2)), rng.uniform(-9, 9, 300)])])
        missed = containing_rows(grid, pos) < 0
        assert missed.sum() > 200
        cents = centroids_batch(grid.indices3, self.spec)
        rows = nearest_occupied_rows(grid, pos)
        for p, row in zip(pos[missed], rows[missed]):
            assert row == np.argmin(np.linalg.norm(cents - p, axis=1))
        d = np.linalg.norm(cents - tie, axis=1)
        lower, upper = np.flatnonzero(d == d.min())
        assert grid.indices3[[lower, upper]].tolist() == [[1, 0, 0], [1, 0, 2]]
        assert rows[0] == lower

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_equal_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.column_stack([rng.uniform(-8, 8, (30, 2)), rng.uniform(-4, 4, 30)])
        grid = voxelize(PointCloud(pts, np.zeros(30)), self.spec)
        # the cloud's own points, and positions inside and outside the radial and height ranges
        pos = np.concatenate([pts, np.column_stack([rng.uniform(-12, 12, (40, 2)), rng.uniform(-6, 6, 40)])])
        cents = centroids_batch(grid.indices3, self.spec)
        expected = []
        for p in pos:
            idx, inside = self.spec.bin_points(cart_to_polar(p[None]))
            hit = np.flatnonzero(grid.voxel_ids == self.spec.flatten(idx)[0])
            if inside[0] and len(hit):
                expected.append(int(hit[0]))
            else:
                expected.append(int(np.argmin(np.linalg.norm(cents - p, axis=1))))
        rows = nearest_occupied_rows(grid, pos)
        assert rows.dtype == np.int64
        assert rows.tolist() == expected
        hits = containing_rows(grid, pos) >= 0
        assert min(expected) >= 0 and hits.any() and not hits.all()
        empty = voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), self.spec)
        assert nearest_occupied_rows(empty, pos).tolist() == [-1] * len(pos)
