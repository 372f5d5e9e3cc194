import dataclasses
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpano import tokens as tokens_module
from cylpano.config import TokenConfig
from cylpano.errors import DimensionMismatchError, IndexOutOfRangeError, NoValidProjectionError
from cylpano.geometry import cart_to_polar, rotation_z, valid_projections
from cylpano.grid import CylGridSpec, PointCloud, centroids_batch, extreme_points_batch, voxelize
from cylpano.synth import ring_camera
from cylpano.tokens import (
    SPE_BLOCK,
    _SUB_BLOCK,
    _bin_tables,
    _image_means,
    _build_bin_tables,
    FeatureMap,
    SpeParams,
    VoxelFeatures,
    aggregate_image_feature,
    build_tokens,
    centroid_image_feature,
    containing_rows,
    corner_distances,
    nearest_occupied_rows,
    scale_encoding,
    spe_batch,
)

from oracles import bilinear_sample, looped_image_means, position_encoding, reference_image_half
from test_bench_hooks import spans  # the benchmark's span recorder, loaded from bench/spans.py

SPEC = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 2.0))


def const_fmap(value, dim=4, hw=(16, 16), image=(32, 32)):
    data = np.full((hw[0], hw[1], dim), value, dtype=np.float32)
    return FeatureMap(data, image[0], image[1])


def assert_within_one_float32_ulp(got, expected):
    """`got` is float32 and within one float32 ulp of the float64 `expected`, elementwise."""
    assert got.dtype == np.float32 and got.shape == expected.shape
    assert (np.abs(got - expected) <= np.spacing(np.abs(expected).astype(np.float32))).all()


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

    @staticmethod
    def _bilinear_cells(fmap, uv):
        """The cells and weights `build_tokens` samples with `bilinear`, summed as its sampling matrix sums them."""
        idx, wts = fmap.cells(uv, bilinear=True)
        return (fmap.data.reshape(-1, fmap.dim).astype(np.float64)[idx] * wts[:, :, None]).sum(axis=1)

    @pytest.mark.parametrize("shape", [(0, 5, 8), (5, 0, 8), (5, 5, 0)])
    def test_map_without_cells_rejected(self, shape):
        with pytest.raises(ValueError):
            FeatureMap(np.zeros(shape, np.float32), 40, 30)

    def test_bilinear_interpolates_between_cells(self):
        fmap = FeatureMap(np.arange(4, dtype=np.float32).reshape(2, 2, 1), 2, 2)
        mid = self._bilinear_cells(fmap, np.array([[1.0, 1.0]]))
        assert mid[0, 0] == pytest.approx(np.mean([0, 1, 2, 3]))

    def test_bilinear_equals_four_cell_formula(self):
        rng = np.random.default_rng(3)
        fmap = FeatureMap(rng.standard_normal((6, 10, 3)).astype(np.float32), 40, 30)
        # inside, and on or past every image border
        uv = np.concatenate([rng.uniform(0, [40, 30], (200, 2)), [[0, 0], [40, 30], [39.99, 0.01], [0, 29.9]]])
        assert np.abs(self._bilinear_cells(fmap, uv) - bilinear_sample(fmap, uv)).max() < 1e-12


class TestSpe:
    def test_deterministic_for_identical_voxels(self):
        params = SpeParams.create(SPEC, dim=16, seed=3)
        idx = np.array([[4, 2, 1], [4, 2, 1]])
        emb = spe_batch(idx, SPEC, params)
        assert np.array_equal(emb[0], emb[1])
        assert np.array_equal(emb, spe_batch(idx.copy(), SPEC, params))

    def test_distance_vector_invariant_under_z_rotation(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            idx = np.array(
                [[rng.integers(0, SPEC.r_bins), rng.integers(0, SPEC.theta_bins), rng.integers(0, SPEC.z_bins)]]
            )
            corners = extreme_points_batch(idx, SPEC)
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
        corners = np.tile([3.0, 1.0, 0.5], (1, 8, 1))
        assert corner_distances(corners).tolist() == [[0.0] * 8]
        expected = np.tanh(params.phi_b1) @ params.phi_w2.T + params.phi_b2
        assert np.allclose(scale_encoding(corner_distances(corners), params)[0], expected, atol=1e-12)
        # one voxel's (8, 3) corners without the batch axis would average over x, y and z
        with pytest.raises(ValueError):
            corner_distances(corners[0])

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
        assert spe_batch(idx[:0], spec, params).shape == (0, 32)

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


class TestBinTableMemo:
    """`_bin_tables` builds once per grid spec and weight values, and hands the tables out read-only."""

    def test_warm_tables_equal_cold_ones_and_are_read_only(self, monkeypatch):
        import cylpano.tokens

        monkeypatch.setattr(cylpano.tokens, "_BIN_TABLES", {})  # so the first call below builds
        params = SpeParams.create(SPEC, dim=16, seed=3)
        idx = np.column_stack([np.arange(40) % b for b in SPEC.shape])
        cold_spe = spe_batch(idx, SPEC, params)
        warm = _bin_tables(SPEC, params)
        # equal weights in new objects reuse the tables
        assert all(a is b for a, b in zip(_bin_tables(SPEC, SpeParams.create(SPEC, dim=16, seed=3)), warm))
        assert spe_batch(idx, SPEC, params).tobytes() == cold_spe.tobytes()
        for table, built in zip(warm, _build_bin_tables(SPEC, params)):
            assert table.tobytes() == built.tobytes()
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0, 0] = 1.0

    @pytest.mark.parametrize("name", ["coord_scales", "psi_w", "phi_w1", "phi_b1", "phi_w2", "phi_b2"])
    @pytest.mark.parametrize("how", ["in place", "reassigned"])
    def test_a_changed_weight_gives_tables_equal_to_a_cold_build(self, name, how):
        params = SpeParams.create(SPEC, dim=16, seed=3)
        before = [t.copy() for t in _bin_tables(SPEC, params)]
        if how == "in place":
            getattr(params, name).flat[-1] += 0.5
        else:
            changed = getattr(params, name).copy()
            changed.flat[-1] += 0.5
            setattr(params, name, changed)
        after = _bin_tables(SPEC, params)
        assert any(not np.array_equal(a, b) for a, b in zip(after, before))
        assert [t.tobytes() for t in after] == [t.tobytes() for t in _build_bin_tables(SPEC, params)]

    def test_callers_on_several_threads_with_alternating_weights_get_their_own_tables(self):
        idx = np.column_stack([np.arange(12) % b for b in SPEC.shape])
        params = [SpeParams.create(SPEC, dim=8, seed=seed) for seed in range(5)]
        expected = [spe_batch(idx, SPEC, p).tobytes() for p in params]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(spe_batch, idx, SPEC, params[i % 5]) for i in range(600)]
                done, pending = wait(futures, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not pending
        assert [f.result().tobytes() for f in futures] == [expected[i % 5] for i in range(600)]

    def test_another_grid_gives_its_own_tables(self):
        params = SpeParams.create(SPEC, dim=16, seed=3)
        other = CylGridSpec(12, 8, 4, (0.0, 24.0), (-2.0, 3.0))
        _bin_tables(SPEC, params)
        built = _build_bin_tables(other, params)
        assert [t.tobytes() for t in _bin_tables(other, params)] == [t.tobytes() for t in built]


class TestFuseToken:
    """`build_tokens` content rows are the fused token [f3d + s, f2d + s]."""

    def _grid(self, n=60):
        rng = np.random.default_rng(4)
        xyz = np.column_stack([rng.uniform(-20, 20, (n, 2)), rng.uniform(-2, 2, n)])
        return voxelize(PointCloud(xyz, rng.random(n)), SPEC)

    def test_zero_embedding(self):
        grid = self._grid()
        params = SpeParams.create(SPEC, dim=4, seed=0)
        zero = dataclasses.replace(params, psi_w=0 * params.psi_w, phi_w2=0 * params.phi_w2, phi_b2=0 * params.phi_b2)
        f3d = np.arange(grid.num_voxels * 4.0).reshape(-1, 4)
        cam = ring_camera(0.0, 32, 32, 16.0, 0.0)
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), [const_fmap(2.0)], [cam], zero)
        assert not tokens.spe.any()
        assert np.array_equal(tokens.content[:, :4], f3d)
        assert 0 < tokens.image_valid.sum() < len(tokens)
        assert (tokens.content[:, 4:] == np.where(tokens.image_valid, 2.0, 0.0)[:, None]).all()

    def test_zero_content_gives_embedding_twice(self):
        grid = self._grid()
        params = SpeParams.create(SPEC, dim=4, seed=1)
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels, 4))), [], [], params)
        assert np.array_equal(tokens.content, np.concatenate([tokens.spe, tokens.spe], axis=1).astype(np.float32))

    def test_structural_length(self):
        grid = self._grid()
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = int(rng.integers(1, 40))
            params = SpeParams.create(SPEC, dim=d, seed=0)
            feats = VoxelFeatures.for_grid(grid, rng.normal(size=(grid.num_voxels, d)))
            tokens = build_tokens(grid, feats, [], [], params)
            assert tokens.content.shape == (grid.num_voxels, 2 * d) and tokens.spe.shape == (grid.num_voxels, d)

    def test_dimension_mismatch(self):
        grid = self._grid()
        params = SpeParams.create(SPEC, dim=4, seed=0)
        feats = VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels, 4)))
        with pytest.raises(DimensionMismatchError):
            build_tokens(grid, VoxelFeatures.for_grid(grid, np.zeros((grid.num_voxels, 3))), [], [], params)
        with pytest.raises(DimensionMismatchError):
            build_tokens(grid, feats, [const_fmap(1.0, dim=3)], [ring_camera(0.0, 32, 32, 16.0, 0.0)], params)


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
        placeholder = VoxelFeatures.stats_placeholder(grid, 4, TokenConfig().seed)
        dense = placeholder.rows(slice(0, grid.num_voxels), np.empty((grid.num_voxels, 4)))
        assert dense.dtype == np.float64 and dense.shape == (0, 4)
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
        assert np.array_equal(tokens.content[0, 4:], tokens.spe[0].astype(np.float32))

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
        """Mean of the nearest-cell `FeatureMap.sample`, or of the four-cell formula, over each voxel's
        valid (point, camera) projections."""
        dim = fmaps[0].dim
        means, seen = np.zeros((grid.num_voxels, dim)), np.zeros(grid.num_voxels, dtype=bool)
        for row in range(grid.num_voxels):
            samples = []
            for p in grid.cloud.xyz[grid.order[grid.starts[row]:grid.starts[row + 1]]]:
                for fmap, cam in zip(fmaps, cams):
                    uv, _, valid = valid_projections(p[None], cam)
                    if valid[0]:
                        samples.append((bilinear_sample(fmap, uv) if bilinear else fmap.sample(uv))[0])
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
        assert_within_one_float32_ulp(tokens.content[:, dim:], tokens.spe + means)
        assert np.array_equal(tokens.content[~seen, dim:], tokens.spe[~seen].astype(np.float32))
        assert_within_one_float32_ulp(tokens.content[:, :dim], tokens.spe + f3d)
        assert np.array_equal(tokens.spe, spe_batch(grid.indices3, SPEC, params))

        # the camera behind every point alone: the image half is the embedding, and no voxel is seen
        behind = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), fmaps[2:], cams[2:], params,
                              bilinear=bilinear)
        assert not behind.image_valid.any()
        assert np.array_equal(behind.content[:, dim:], behind.spe.astype(np.float32))

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
            assert_within_one_float32_ulp(tokens.content[:, :dim], spe_ref + f3d)
            assert_within_one_float32_ulp(tokens.content[:, dim:], spe_ref + means)
        assert np.array_equal(tokens.spe, spe_batch(grid.indices3, spec, params))

    @pytest.mark.parametrize("bilinear", [False, True])
    @pytest.mark.parametrize("m", [0, 1, _SUB_BLOCK + 1, SPE_BLOCK - 1, SPE_BLOCK, SPE_BLOCK + 1, 2 * SPE_BLOCK + 1,
                                   2 * SPE_BLOCK + 3, 2 * SPE_BLOCK + _SUB_BLOCK + 1])
    def test_factored_placeholder_equals_its_dense_features(self, m, bilinear):
        spec = CylGridSpec(80, 36, 4, (1.0, 41.0), (-0.5, 0.5))
        grid = self._blocked_grid(spec, m)
        dim = 6
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0)]
        fmaps = [FeatureMap(np.random.default_rng(m).standard_normal((8, 12, dim)).astype(np.float32), 48, 32)]
        params = SpeParams.create(spec, dim=dim, seed=2)
        placeholder = VoxelFeatures.stats_placeholder(grid, dim, seed=3)
        multiplied_out = placeholder.rows(slice(0, m), np.empty((m, dim)))
        assert multiplied_out.shape == (m, dim)
        dense = VoxelFeatures.for_grid(grid, multiplied_out)
        factored = build_tokens(grid, placeholder, fmaps, cams, params, bilinear=bilinear)
        assert np.array_equal(factored.content,
                              build_tokens(grid, dense, fmaps, cams, params, bilinear=bilinear).content)

    @pytest.mark.parametrize("bilinear", [False, True])
    @pytest.mark.parametrize("m", [255, 256, 257, 511, 512, 513, 2047, 2048, 2049, 2305, 4097])
    def test_two_block_levels_equal_unblocked_reference(self, m, bilinear):
        """Edges of the SPE_BLOCK // 2-row sub-blocks and the 2 * SPE_BLOCK-row super-blocks, and lone last rows."""
        spec = CylGridSpec(80, 36, 4, (1.0, 41.0), (-0.5, 0.5))
        r, t, z = spec.unflatten(np.arange(m)).T  # the first m cells, one point at the center of each
        rho = (spec.r_edges[r] + spec.r_edges[r + 1]) / 2
        theta = (spec.theta_edges[t] + spec.theta_edges[t + 1]) / 2
        zc = (spec.z_edges[z] + spec.z_edges[z + 1]) / 2
        rng = np.random.default_rng(m)
        xyz = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), zc])
        grid = voxelize(PointCloud(xyz, rng.random(m)), spec)
        assert grid.num_voxels == m
        dim = 6
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0)]
        fmaps = [FeatureMap(rng.standard_normal((8, 12, dim)).astype(np.float32), 48, 32)]
        params = SpeParams.create(spec, dim=dim, seed=2)
        placeholder = VoxelFeatures.stats_placeholder(grid, dim, seed=3)
        tokens = build_tokens(grid, placeholder, fmaps, cams, params, bilinear=bilinear)

        corners = extreme_points_batch(grid.indices3, spec)
        spe_ref = position_encoding(corners.mean(axis=1), params) + scale_encoding(corner_distances(corners), params)
        means, seen = self._brute_force_image_half(grid, fmaps, cams, bilinear)
        assert 0 < seen.sum() < m
        assert np.array_equal(tokens.image_valid, seen)
        assert_within_one_float32_ulp(tokens.content[:, :dim], spe_ref + placeholder.rows(slice(0, m), np.empty((m, dim))))
        assert_within_one_float32_ulp(tokens.content[:, dim:], spe_ref + means)
        assert np.array_equal(tokens.spe, spe_batch(grid.indices3, spec, params))
        # every row goes through gemm, also a lone last row of a super-block
        assert np.array_equal(tokens.spe[-1], spe_batch(grid.indices3[-2:], spec, params)[-1])

    @pytest.mark.parametrize("bilinear", [False, True])
    def test_image_means_equal_sums_over_counts_bit_for_bit(self, bilinear):
        """Only rows of two or more projections are divided, and each sub-block is written as whole rows."""
        spec = CylGridSpec(40, 36, 4, (1.0, 41.0), (-0.5, 0.5))
        rng = np.random.default_rng(12)
        n = 5000
        xyz = np.column_stack([rng.uniform(-40, 40, (n, 2)), rng.uniform(-0.5, 0.5, n)])
        grid = voxelize(PointCloud(xyz, rng.random(n)), spec)
        assert grid.num_voxels > 2 * SPE_BLOCK + _SUB_BLOCK  # several sub-blocks and super-blocks
        dim = 6
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0), ring_camera(0.5, 40, 24, 16.0, 0.2)]
        fmaps = [FeatureMap(rng.standard_normal((8, 12, dim)).astype(np.float32), 48, 32),
                 FeatureMap(rng.standard_normal((6, 10, dim)).astype(np.float32), 40, 24)]
        params = SpeParams.create(spec, dim=dim, seed=4)
        f3d = rng.normal(size=(grid.num_voxels, dim))
        tokens = build_tokens(grid, VoxelFeatures.for_grid(grid, f3d), fmaps, cams, params, bilinear=bilinear)

        image_half, counts = reference_image_half(grid, fmaps, cams, tokens.spe, bilinear)
        assert {0, 1, 2}.issubset(counts) and counts.max() > 2
        assert np.array_equal(tokens.content[:, dim:], image_half.astype(np.float32))
        assert np.array_equal(tokens.content[:, :dim], (tokens.spe + f3d).astype(np.float32))
        assert np.array_equal(tokens.image_valid, counts > 0)

    @pytest.mark.parametrize("bilinear", [False, True])
    def test_image_means_equal_a_row_loop_bit_for_bit(self, bilinear):
        """Repeated cells summed in input order, cells added in ascending order from 0.0, counts above 1 divided."""
        spec = CylGridSpec(6, 8, 2, (1.0, 13.0), (-1.0, 1.0))
        rng = np.random.default_rng(5)
        spread = np.column_stack([rng.uniform(-12, 12, (300, 2)), rng.uniform(-1, 1, 300)])
        crowd = np.array([6.0, 0.3, 0.0]) + rng.uniform(-0.4, 0.4, (12, 3))  # one voxel, many cells
        # three points at one spot that only camera 0 sees, alone in their voxel: every projection in one cell
        stack = np.repeat([[4.0, -2.8, 0.2]], 3, axis=0)
        flat = spec.flatten(spec.bin_points(cart_to_polar(np.concatenate([spread, stack[:1]])))[0])
        xyz = np.concatenate([spread[flat[:-1] != flat[-1]], crowd, stack])
        grid = voxelize(PointCloud(xyz, rng.random(len(xyz))), spec)
        cams = [ring_camera(0.0, 32, 24, 12.0, 0.0), ring_camera(0.6, 30, 20, 10.0, 0.1)]
        maps = [rng.standard_normal((3, 4, 3)).astype(np.float32), rng.standard_normal((2, 5, 3)).astype(np.float32)]
        for data in maps:
            data[..., 0] = -0.0
        fmaps = [FeatureMap(data, cam.width, cam.height) for data, cam in zip(maps, cams)]

        table, mean_rows, counts = _image_means(grid, fmaps, cams, 3, bilinear)
        means = table[mean_rows]
        expected, expected_counts = looped_image_means(grid, fmaps, cams, bilinear)
        assert means.tobytes() == expected.tobytes()  # also tells 0.0 from -0.0
        assert np.array_equal(counts, expected_counts)
        assert not np.signbit(means[:, 0]).any()  # 0.0 + w * -0.0 is 0.0
        assert {0, 1}.issubset(counts)
        assert counts[containing_rows(grid, stack[:1])[0]] == 3
        # a bilinear row of 17 or more entries, more than libstdc++'s sort keeps in input order
        assert counts[containing_rows(grid, crowd[:1])[0]] * 4 >= 17

    def test_peak_memory_stays_below_one_feature_array(self):
        # one point at the center of every cell: 9 blocks of voxels
        spec = CylGridSpec(96, 96, 1, (1.0, 49.0), (-0.5, 0.5))
        r, t, _ = spec.unflatten(np.arange(spec.num_cells)).T
        rho = (spec.r_edges[r] + spec.r_edges[r + 1]) / 2
        theta = (spec.theta_edges[t] + spec.theta_edges[t + 1]) / 2
        xyz = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), np.zeros(len(r))])
        grid = voxelize(PointCloud(xyz, np.linspace(0.0, 1.0, len(r))), spec)
        assert grid.num_voxels >= 8 * SPE_BLOCK
        dim = 128
        rng = np.random.default_rng(0)
        cams = [ring_camera(0.0, 64, 48, 32.0, 0.0), ring_camera(np.pi, 64, 48, 32.0, 0.0)]
        fmaps = [FeatureMap(rng.standard_normal((6, 8, dim)).astype(np.float32), 64, 48) for _ in cams]
        params = SpeParams.create(spec, dim=dim, seed=0)
        tracemalloc.start()
        try:
            feats = VoxelFeatures.stats_placeholder(grid, dim, TokenConfig().seed)
            tokens = build_tokens(grid, feats, fmaps, cams, params, bilinear=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < tokens.image_valid.sum() < grid.num_voxels
        # neither the (M, dim) features, the image means nor the embedding are ever held whole
        assert tokens.content.dtype == np.float32
        assert peak - tokens.content.nbytes < grid.num_voxels * dim * 8

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


def first_cells_grid(spec, m):
    """Grid of the first m cells of `spec`, one point at the center of each."""
    r, t, z = spec.unflatten(np.arange(m)).T
    rho = (spec.r_edges[r] + spec.r_edges[r + 1]) / 2
    theta = (spec.theta_edges[t] + spec.theta_edges[t + 1]) / 2
    zc = (spec.z_edges[z] + spec.z_edges[z + 1]) / 2
    xyz = np.column_stack([rho * np.cos(theta), rho * np.sin(theta), zc])
    grid = voxelize(PointCloud(xyz, np.random.default_rng(m).random(m)), spec)
    assert grid.num_voxels == m
    return grid


class TestLanes:
    """`build_tokens` fills its rows in two lanes on two CPUs, and writes the bytes of one lane."""

    SPEC = CylGridSpec(80, 36, 4, (1.0, 41.0), (-0.5, 0.5))

    @pytest.mark.parametrize("bilinear", [False, True])
    # below and at the two-lane threshold, one past it, and a tail with a lone last row
    @pytest.mark.parametrize("m", [2 * SPE_BLOCK - 1, 2 * SPE_BLOCK, 2 * SPE_BLOCK + 1, 3 * SPE_BLOCK + _SUB_BLOCK + 1])
    def test_two_lanes_write_the_bytes_of_one(self, monkeypatch, m, bilinear):
        grid = first_cells_grid(self.SPEC, m)
        dim = 6
        rng = np.random.default_rng(m)
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0), ring_camera(2.0, 40, 24, 16.0, 0.2)]
        fmaps = [FeatureMap(rng.standard_normal((8, 12, dim)).astype(np.float32), 48, 32),
                 FeatureMap(rng.standard_normal((6, 10, dim)).astype(np.float32), 40, 24)]
        params = SpeParams.create(self.SPEC, dim=dim, seed=2)
        # the factored placeholder, and features with no projection as `for_grid` takes them
        voxel_feats = [VoxelFeatures.stats_placeholder(grid, dim, seed=3),
                       VoxelFeatures.for_grid(grid, rng.normal(size=(m, dim)))]
        built = {}
        for cpus in (1, 2):
            monkeypatch.setattr(tokens_module, "_cpus", lambda cpus=cpus: cpus)
            assert len(tokens_module._lane_bounds(m)) == (3 if cpus == 2 and m >= 2 * SPE_BLOCK else 2)
            built[cpus] = [build_tokens(grid, feats, fmaps, cams, params, bilinear=bilinear) for feats in voxel_feats]
        for one, two in zip(built[1], built[2]):
            assert 0 < one.image_valid.sum() < m
            assert one.content.tobytes() == two.content.tobytes()
            assert one.image_valid.tobytes() == two.image_valid.tobytes()

    @pytest.mark.parametrize("m", [2 * SPE_BLOCK, 3 * SPE_BLOCK + _SUB_BLOCK + 1])
    def test_lanes_split_at_a_sub_block_boundary_near_the_middle(self, monkeypatch, m):
        monkeypatch.setattr(tokens_module, "_cpus", lambda: 2)
        start, mid, stop = tokens_module._lane_bounds(m)
        assert (start, stop) == (0, m) and mid % _SUB_BLOCK == 0
        assert abs(mid - m / 2) <= _SUB_BLOCK / 2

    def test_concurrent_callers_under_a_short_switch_interval_write_the_bytes_of_one_lane(self, monkeypatch):
        """Callers on more threads than CPUs share the one worker thread, and each lane keeps its own buffers."""
        m = 3 * SPE_BLOCK + _SUB_BLOCK + 1
        grid = first_cells_grid(self.SPEC, m)
        dim = 6
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0)]
        fmaps = [FeatureMap(np.random.default_rng(2).standard_normal((8, 12, dim)).astype(np.float32), 48, 32)]
        params = SpeParams.create(self.SPEC, dim=dim, seed=2)
        feats = VoxelFeatures.stats_placeholder(grid, dim, seed=3)
        monkeypatch.setattr(tokens_module, "_cpus", lambda: 1)
        expected = build_tokens(grid, feats, fmaps, cams, params).content.tobytes()
        monkeypatch.setattr(tokens_module, "_cpus", lambda: 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as callers:
                futures = [callers.submit(build_tokens, grid, feats, fmaps, cams, params) for _ in range(8)]
                done, pending = wait(futures, timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not pending
        assert all(f.result().content.tobytes() == expected for f in done)

    def test_wrapped_functions_run_on_the_calling_thread(self, monkeypatch):
        """Every function the benchmark's tracer wraps runs on the thread that called `build_tokens`,
        so its spans stay nested."""
        m = 3 * SPE_BLOCK + 1
        grid = first_cells_grid(self.SPEC, m)
        dim = 6
        cams = [ring_camera(0.0, 48, 32, 24.0, 0.0)]
        fmaps = [FeatureMap(np.random.default_rng(1).standard_normal((8, 12, dim)).astype(np.float32), 48, 32)]
        params = SpeParams.create(self.SPEC, dim=dim, seed=11)  # new weights: the per-bin tables are built
        feats = VoxelFeatures.stats_placeholder(grid, dim, seed=3)
        monkeypatch.setattr(tokens_module, "_cpus", lambda: 2)
        tracer = spans.Tracer()
        opened = tracer.open
        seen = []
        tracer.open = lambda name: seen.append((name, threading.get_ident())) or opened(name)
        tracer.install(0)
        try:
            tokens_module.build_tokens(grid, feats, fmaps, cams, params)  # the module's name, which the tracer wraps
        finally:
            tracer.remove()
        names = {name for name, _ in seen}
        assert {"tokens.build_tokens", "grid.centroids_batch", "grid.extreme_points_batch",
                "geometry.valid_projections"} <= names
        assert {ident for _, ident in seen} == {threading.get_ident()}
        assert [s.name for s in tracer.spans].count("grid.centroids_batch") == 1
        assert tracer.stack == []


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
        assert nearest_occupied_rows(grid, pos).tolist() == [0]
        assert nearest_occupied_rows(grid, [pos, pos]).tolist() == [0, 0]

    def test_containing_rows(self):
        grid = self._grid()
        c = 3.0 * np.cos(np.pi / 4)
        pos = np.array([[c, c, -1.5], [c, c, -2.5], [c, c, 9.0], [c, c, -3.5]])
        assert containing_rows(grid, pos).tolist() == [1, -1, -1, 0]
        assert containing_rows(grid, np.zeros((0, 3))).tolist() == []
        empty = voxelize(PointCloud(np.zeros((0, 3)), np.zeros(0)), self.spec)
        assert containing_rows(empty, pos).tolist() == [-1] * 4
        assert nearest_occupied_rows(empty, pos).tolist() == [-1] * 4

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

    @settings(max_examples=200, deadline=None)
    @given(
        r_bins=st.sampled_from([1, 2, 3, 6, 40]),
        theta_bins=st.sampled_from([1, 2, 3, 5, 8, 360]),
        z_bins=st.sampled_from([1, 2, 4]),
        r_lo=st.sampled_from([0.0, 0.5, 3.0]),
        span=st.floats(1.0, 10.0),
        n=st.integers(1, 30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_equal_brute_force_on_edge_grids(self, r_bins, theta_bins, z_bins, r_lo, span, n, seed):
        spec = CylGridSpec(r_bins, theta_bins, z_bins, (r_lo, r_lo + span), (-2.0, 2.0))
        rng = np.random.default_rng(seed)
        rho = rng.uniform(r_lo, r_lo + span, n)
        phi = rng.uniform(0, 2 * np.pi, n)
        pts = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), rng.uniform(-2, 2, n)])
        grid = voxelize(PointCloud(pts, np.zeros(n)), spec)
        cents = centroids_batch(grid.indices3, spec)
        below_2pi = np.nextafter(2 * np.pi, 0.0)
        r_max = spec.r_range[1]
        # a few bins from the occupied voxels, where the nearest often lies just past a window's edge
        m = min(n, 10)
        near_rho = rho[:m] + rng.uniform(-4, 4, m) * span / r_bins
        near_phi = phi[:m] + rng.uniform(-4, 4, m) * 2 * np.pi / theta_bins
        pos = [
            *np.column_stack([near_rho * np.cos(near_phi), near_rho * np.sin(near_phi), rng.uniform(-3, 3, m)]),
            # anywhere around the grid, inside and outside its ranges
            *np.column_stack([rng.uniform(-1.5, 1.5, (20, 2)) * r_max, rng.uniform(-3, 3, 20)]),
            # on the axis, at and off the height range
            [0.0, 0.0, 0.0], [0.0, 0.0, 7.5], [0.0, -0.0, -2.0],
            # theta within an ulp of 2*pi
            [r_lo + span / 3, -5e-324, 0.1], [2.0 * np.cos(below_2pi), 2.0 * np.sin(below_2pi), -1.0],
            # a million metres out
            [1e6, 0.0, 0.0], [-3e5, 1e6, 1e4], [1e6 * np.cos(phi[0]), 1e6 * np.sin(phi[0]), 0.0],
        ]
        # equidistant from an occupied voxel's centroid above and below: the empty voxel between
        # two occupied ones of one column, whose z-edges are exact
        col = grid.voxel_ids // z_bins
        for i in np.flatnonzero((col[:-1] == col[1:]) & (grid.voxel_ids[1:] - grid.voxel_ids[:-1] == 2)):
            pos.append(centroids_batch(spec.unflatten(grid.voxel_ids[i] + 1), spec)[0])
        pos = np.array(pos)
        rows = nearest_occupied_rows(grid, pos)
        hit = containing_rows(grid, pos)
        for p, row, direct in zip(pos, rows, hit):
            assert row == (direct if direct >= 0 else np.argmin(np.linalg.norm(cents - p, axis=1)))

    def test_nearest_one_theta_bin_past_a_closer_looking_voxel(self):
        # a ring of 36 theta bins and two height bins; the position sits at the top of
        # theta bin 0, in height bin 1. Voxel A (theta bin 35, height bin 0) is the next
        # bin down and one height bin below; voxel B (theta bin 2, height bin 1) is two
        # bins up at the same height. B is nearer, but a window of one theta bin either
        # side holds only A, and A is nearer than a bound one bin too generous
        spec = CylGridSpec(1, 36, 2, (19.5, 20.5), (-2.0, 2.0))
        step = 2 * np.pi / 36
        pts = np.array([[20 * np.cos(a), 20 * np.sin(a), z] for a, z in [(35.5 * step, -1.0), (2.5 * step, 1.0)]])
        grid = voxelize(PointCloud(pts, np.zeros(2)), spec)
        assert grid.indices3.tolist() == [[0, 2, 1], [0, 35, 0]]
        a = np.nextafter(step, 0.0)
        pos = np.array([20 * np.cos(a), 20 * np.sin(a), 1.0])
        d = np.linalg.norm(centroids_batch(grid.indices3, spec) - pos, axis=1)
        assert d[0] < d[1] < 20 * np.sin(2.5 * step)
        assert nearest_occupied_rows(grid, pos).tolist() == [0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_position_is_named(self, bad):
        grid = self._grid()
        pos = np.array([[1.0, 2.0, 0.0], [3.0, bad, 0.5]])
        with pytest.raises(ValueError, match=r"position \[3\.0, -?(nan|inf), 0\.5\] is not finite"):
            nearest_occupied_rows(grid, pos)

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
