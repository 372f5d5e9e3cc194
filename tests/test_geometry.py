import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylpano.geometry import (
    TWO_PI,
    CameraModel,
    InstanceTransform,
    cart_to_polar,
    project_points,
    similarity_matrix,
    transform_camera,
    transform_instance,
    valid_projections,
)
from cylpano.grid import CylGridSpec, PointCloud, pair_voxel_image, voxelize

from oracles import polar_to_cart, reference_projections


def make_camera(fx=100.0, fy=100.0, cx=320.0, cy=180.0, width=640, height=360, T=None):
    K = np.array([[fx, 0, cx], [0, fy, cy], [0, 0, 1.0]])
    return CameraModel(K, np.eye(4) if T is None else T, width, height)


class TestPolar:
    def test_axis_aligned(self):
        assert np.allclose(cart_to_polar([1, 0, 0]), [1, 0, 0])
        rho, theta, z = cart_to_polar([0, 2, 5])
        assert np.allclose([rho, theta, z], [2, np.pi / 2, 5])

    def test_third_quadrant_normalizes(self):
        rho, theta, z = cart_to_polar([-1, -1, 0])
        assert rho == pytest.approx(np.sqrt(2))
        assert theta == pytest.approx(5 * np.pi / 4)

    def test_origin_convention(self):
        assert np.allclose(cart_to_polar([0, 0, 0]), [0, 0, 0])

    # signed zeros, subnormals, the least normal, and y tiny enough that 2*pi - |y| rounds to 2*pi
    EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308,
             1e-17, -1e-17, -4.4e-16, -4.5e-16, 1.0, -1.0, 3.5, -3.5]

    @staticmethod
    def _theta_by_remainder(x, y):
        theta = np.arctan2(y, x) % TWO_PI
        return np.where(theta >= TWO_PI, 0.0, theta)

    def test_theta_equals_remainder_form_on_edges(self):
        x, y = np.array(np.meshgrid(self.EDGES, self.EDGES)).reshape(2, -1)
        theta = cart_to_polar(np.column_stack([x, y, np.zeros_like(x)]))[:, 1]
        assert theta.tobytes() == self._theta_by_remainder(x, y).tobytes()
        assert (theta[(x < 0) & (y == 0)] == np.pi).all()
        assert not np.signbit(theta).any()
        assert (theta[(x >= 1.0) & (y < 0) & (y > -1e-16)] == 0.0).all()  # 2*pi - |y| rounds up to 2*pi
        assert np.nextafter(TWO_PI, 0.0) in theta  # y = -4.5e-16 at x = 1 does not

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.one_of(st.sampled_from(EDGES), st.floats(-1e6, 1e6)),
                              st.one_of(st.sampled_from(EDGES), st.floats(-1e6, 1e6))),
                    min_size=1, max_size=20))
    def test_theta_equals_remainder_form(self, pairs):
        x, y = np.array(pairs).T
        theta = cart_to_polar(np.column_stack([x, y, np.zeros_like(x)]))[:, 1]
        assert theta.tobytes() == self._theta_by_remainder(x, y).tobytes()

    def test_polar_to_cart_axis_cases(self):
        assert np.allclose(polar_to_cart([1, 0, 0]), [1, 0, 0])
        assert np.allclose(polar_to_cart([2, np.pi / 2, 5]), [0, 2, 5], atol=1e-12)

    def test_round_trip_1000_random_points(self):
        rng = np.random.default_rng(7)
        pts = rng.uniform(-60, 60, (1000, 3))
        back = polar_to_cart(cart_to_polar(pts))
        assert np.abs(back - pts).max() < 1e-9

    def test_polar_round_trip_for_positive_rho(self):
        rng = np.random.default_rng(8)
        pol = np.column_stack(
            [rng.uniform(0.1, 50, 500), rng.uniform(0, 2 * np.pi, 500), rng.uniform(-5, 3, 500)]
        )
        back = cart_to_polar(polar_to_cart(pol))
        assert np.abs(back - pol).max() < 1e-9

    def test_theta_always_in_range(self):
        rng = np.random.default_rng(9)
        pts = rng.normal(0, 1e-12, (1000, 3))  # adversarial near-origin angles
        theta = cart_to_polar(pts)[:, 1]
        assert (theta >= 0).all() and (theta < 2 * np.pi).all()


class TestProjection:
    def test_principal_point_on_axis(self):
        cam = CameraModel(np.eye(3), np.eye(4), 10, 10)
        uv, depth = project_points([0, 0, 2], cam)
        assert uv.tolist() == [[0.0, 0.0]] and depth.tolist() == [2.0]

    def test_hand_projection(self):
        cam = make_camera()
        uv, depth = project_points([1, 0, 2], cam)
        assert uv.tolist() == [[370.0, 180.0]] and depth.tolist() == [2.0]

    def test_behind_camera(self):
        cam = make_camera()
        _, depth, valid = valid_projections([[0, 0, -1], [0, 0, 1]], cam)
        assert depth.tolist() == [-1.0, 1.0] and valid.tolist() == [False, True]

    def test_out_of_image_is_not_an_error(self):
        cam = make_camera()
        uv, depth, valid = valid_projections([100, 0, 1], cam)
        assert uv[0, 0] > cam.width and depth.tolist() == [1.0] and valid.tolist() == [False]

    def test_homogeneous_scale_invariance(self):
        rng = np.random.default_rng(3)
        cam = make_camera()
        for _ in range(50):
            p = np.append(rng.uniform(-5, 5, 2), rng.uniform(0.5, 20))
            hom = cam.intrinsic @ (cam.extrinsic @ np.append(p, 1.0))[:3]
            lam = rng.uniform(0.1, 10)
            a = (hom[:2] / hom[2])
            b = ((lam * hom)[:2] / (lam * hom)[2])
            assert np.allclose(a, b, rtol=1e-12)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(4)
        cam = make_camera(T=np.eye(4))
        pts = np.column_stack([rng.uniform(-3, 3, (20, 2)), rng.uniform(1, 10, 20)])
        uv, depth = project_points(pts, cam)
        for i in range(20):
            uv_i, depth_i = project_points(pts[i], cam)
            assert np.allclose(np.append(uv_i, depth_i), [uv[i, 0], uv[i, 1], depth[i]])

    @settings(max_examples=100, deadline=None)
    @given(angle=st.floats(-np.pi, np.pi), mirrored=st.booleans(),
           shift=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
           points=st.lists(st.tuples(*[st.floats(-50.0, 50.0)] * 3), max_size=30))
    def test_valid_projections_equal_the_plain_expression(self, angle, mirrored, shift, points):
        # pixel (u, v) = (64 x / z + 32, 64 y / z + 16) at the identity extrinsic, exactly
        K = np.array([[64.0, 0.0, 32.0], [0.0, 64.0, 16.0], [0.0, 0.0, 1.0]])
        # on each image border, just inside and outside it, at depth 0 and behind the camera
        edges = [[-0.5, 0.0, 1.0], [0.5, 0.0, 1.0], [0.4999999, 0.0, 1.0], [0.0, -0.25, 1.0], [0.0, 0.25, 1.0],
                 [0.0, 0.2499999, 1.0], [-0.5000001, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0],
                 [0.3, 0.1, -2.0], [-0.5, -0.25, 1.0]]
        for T in (np.eye(4), self._extrinsic(angle, mirrored, shift)):
            cam = CameraModel(K, T, 64, 32)
            for xyz in (np.array(edges), np.array(points, dtype=np.float64).reshape(-1, 3),
                        np.array(points, dtype=np.float32).reshape(-1, 3)):
                with np.errstate(over="ignore"):  # a depth near the least normal overflows u and v
                    got, want = valid_projections(xyz, cam), reference_projections(xyz, cam)
                for g, w in zip(got, want):
                    assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()
        identity = valid_projections(np.array(edges), CameraModel(K, np.eye(4), 64, 32))
        assert identity[2].tolist() == [True, False, True, True, False, True, False, False, False, False, True]

    @staticmethod
    def _extrinsic(angle, mirrored, shift):
        T = np.eye(4)
        c, s = np.cos(angle), np.sin(angle)
        T[:3, :3] = np.array([[c, 0.0, -s], [0.0, 1.0, 0.0], [s, 0.0, c]])
        if mirrored:
            T[:3, :3] = np.diag([1.0, -1.0, 1.0]) @ T[:3, :3]
        T[:3, 3] = shift
        return T

    def test_camera_validation(self):
        with pytest.raises(ValueError):
            make_camera(fx=-1.0)
        bad = np.eye(4)
        bad[0, 0] = 2.0
        with pytest.raises(ValueError):
            CameraModel(np.eye(3), bad, 4, 4)
        with pytest.raises(ValueError):
            CameraModel(np.eye(3), np.eye(4), 0, 4)


class TestRect:
    """Rectangles `pair_voxel_image` writes for one voxel whose points project to chosen pixels."""

    SPEC = CylGridSpec(1, 1, 1, (0.0, 100.0), (0.0, 2.0))

    def _rects(self, uv, width=40, height=40):
        cam = CameraModel(np.eye(3), np.eye(4), width, height)  # (x, y, z) projects to (x / z, y / z)
        uv = np.asarray(uv, dtype=np.float64).reshape(-1, 2)
        cloud = PointCloud(np.column_stack([uv, np.ones(len(uv))]), np.zeros(len(uv)))
        return pair_voxel_image(voxelize(cloud, self.SPEC), [cam]).pairings[0].rects, cloud

    def test_single_pixel(self):
        assert self._rects([(5.2, 7.9)])[0].tolist() == [[5, 7, 5, 7]]

    def test_two_pixels(self):
        assert self._rects([(0, 0), (3, 4)])[0].tolist() == [[0, 0, 3, 4]]

    def test_empty(self):
        # every point left of or below the image: the voxel gets no rectangle
        assert self._rects([(-0.5, 3.0), (3.0, 40.0)])[0].shape == (0, 4)

    def test_minimality_property(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            rects, cloud = self._rects(rng.uniform(-10, 50, (rng.integers(1, 30), 2)))
            cells = np.floor(cloud.xyz[:, :2].astype(np.float64)).astype(int)
            cells = cells[((cells >= 0) & (cells < 40)).all(axis=1)]
            if len(cells) == 0:
                assert len(rects) == 0
                continue
            # the floor-rounded in-image cells' bounds: shrinking any side excludes one of them
            assert rects.tolist() == [cells.min(axis=0).tolist() + cells.max(axis=0).tolist()]


class TestInstanceTransform:
    def test_identity(self):
        pts = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        out = transform_instance(pts, InstanceTransform(np.zeros(3)))
        assert np.allclose(out, pts)

    def test_centroid_is_fixed_point(self):
        p = np.array([[2.0, -1.0, 0.5]])
        out = transform_instance(p, InstanceTransform(np.zeros(3), rot_z=1.3, scale=4.0))
        assert np.allclose(out, p)

    def test_quarter_turn_about_centroid(self):
        pts = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]) + np.array([5.0, 5.0, 1.0])
        out = transform_instance(pts, InstanceTransform(np.zeros(3), rot_z=np.pi / 2))
        expected = np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]) + np.array([5.0, 5.0, 1.0])
        assert np.allclose(out, expected, atol=1e-12)

    def test_scale_one_rot_zero_is_translation(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0, 3, (30, 3))
        t = np.array([1.0, -2.0, 0.5])
        out = transform_instance(pts, InstanceTransform(t))
        assert np.allclose(out, pts + t)

    def test_composition_matches_hand_composition(self):
        rng = np.random.default_rng(11)
        pts = rng.normal(0, 2, (25, 3))
        t1 = InstanceTransform(rng.normal(0, 1, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.5, 2))
        t2 = InstanceTransform(rng.normal(0, 1, 3), rng.uniform(-np.pi, np.pi), rng.uniform(0.5, 2))
        step = transform_instance(transform_instance(pts, t1), t2)

        def by_hand(p, t):
            c = p.mean(axis=0)
            rot = np.array(
                [
                    [np.cos(t.rot_z), -np.sin(t.rot_z), 0],
                    [np.sin(t.rot_z), np.cos(t.rot_z), 0],
                    [0, 0, 1],
                ]
            )
            return (p - c) @ rot.T * t.scale + c + t.translation

        assert np.abs(step - by_hand(by_hand(pts, t1), t2)).max() < 1e-9

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            InstanceTransform(np.zeros(3), scale=0.0)


class TestGlobalTransforms:
    def test_camera_adjustment_cancels_point_transform(self):
        rng = np.random.default_rng(12)
        cam = make_camera(T=np.eye(4))
        for _ in range(20):
            scale = rng.uniform(0.5, 2)
            A = similarity_matrix(rng.uniform(-np.pi, np.pi), rng.random() < 0.5, scale)
            cam2 = transform_camera(cam, A)
            pts = np.column_stack([rng.uniform(-3, 3, (10, 2)), rng.uniform(1, 10, 10)])
            uv1, d1 = project_points(pts, cam)
            uv2, d2 = project_points(pts @ A.T, cam2)
            assert np.allclose(uv1, uv2, atol=1e-8)
            assert np.allclose(d1 * scale, d2, atol=1e-9)  # depths scale with the scene
