"""Coordinate conversions, pinhole projection, and rigid transforms.

Conventions:
  * Cartesian points are arrays of shape (..., 3) holding (x, y, z) in meters.
  * Polar triples are (rho, theta, z) with rho >= 0 and theta in [0, 2*pi).
  * Pixel coordinates (u, v) are continuous; u grows right, v grows down.
  * The camera extrinsic maps the LiDAR frame into the camera frame
    (x right, y down, z forward); depth is the camera-frame z.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi


def cart_to_polar(xyz: np.ndarray) -> np.ndarray:
    """Convert (..., 3) Cartesian points to (rho, theta, z) with theta in [0, 2*pi)."""
    return np.stack(polar_columns(xyz), axis=-1)


def polar_columns(xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`cart_to_polar` as three float64 arrays of shape (...): rho, theta and z."""
    xyz = np.asarray(xyz)
    x, y, z = (np.asarray(xyz[..., i], dtype=np.float64) for i in range(3))
    rho = np.hypot(x, y)
    theta = np.arctan2(y, x)
    # arctan2 lies in [-pi, pi], where this equals `theta % TWO_PI` bit for bit (-0.0 gives 0.0)
    theta = theta + np.where(theta < 0.0, TWO_PI, 0.0)
    # A tiny negative angle plus 2*pi can round up to exactly 2*pi.
    theta = np.where(theta >= TWO_PI, 0.0, theta)
    return rho, theta, z


def rotation_z(angle: float) -> np.ndarray:
    """3x3 rotation about the z axis."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera: intrinsic K (3x3, pixels), extrinsic T (4x4, LiDAR -> camera)."""

    intrinsic: np.ndarray
    extrinsic: np.ndarray
    width: int
    height: int

    def __post_init__(self):
        K = np.asarray(self.intrinsic, dtype=np.float64).reshape(3, 3)
        T = np.asarray(self.extrinsic, dtype=np.float64).reshape(4, 4)
        if not (np.isfinite(K).all() and np.isfinite(T).all()):
            raise ValueError("camera matrices must be finite")
        if K[0, 0] <= 0 or K[1, 1] <= 0 or K[2, 2] <= 0:
            raise ValueError("intrinsic focal entries must be positive")
        if np.abs(K[np.tril_indices(3, k=-1)]).max() > 1e-9:
            raise ValueError("intrinsic must be upper-triangular")
        R = T[:3, :3]
        if not np.allclose(R @ R.T, np.eye(3), atol=1e-6):
            raise ValueError("extrinsic rotation block must be orthonormal")
        # |det| == 1 admits the mirrored extrinsics produced by flip augmentation;
        # calibration files must flag them as "mirrored".
        if abs(abs(np.linalg.det(R)) - 1.0) > 1e-6:
            raise ValueError("extrinsic rotation block must have |det| == 1")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        object.__setattr__(self, "intrinsic", K)
        object.__setattr__(self, "extrinsic", T)

    @property
    def is_proper(self) -> bool:
        return np.linalg.det(self.extrinsic[:3, :3]) > 0.0


def project_points(xyz: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray]:
    """Project (N, 3) points: returns continuous (N, 2) pixel coords and (N,) depths.

    Rows with depth <= 0 hold unusable pixel values; callers filter on depth
    and image bounds. Out-of-image projections are not an error.
    """
    xyz = np.asarray(xyz, dtype=np.float64).reshape(-1, 3)
    # contiguous copies of the transposed matrices give the same products as the
    # transposed views, about three times faster
    cam_pts = xyz @ np.ascontiguousarray(cam.extrinsic[:3, :3].T)
    cam_pts += cam.extrinsic[:3, 3]
    depth = cam_pts[:, 2]
    hom = cam_pts @ np.ascontiguousarray(cam.intrinsic.T)
    uv = np.empty((len(xyz), 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        for axis in (0, 1):  # one column at a time: a broadcast over (N, 2) is twice as slow
            np.divide(hom[:, axis], depth, out=uv[:, axis])
    return uv, depth


def valid_projections(xyz: np.ndarray, cam: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project points and keep those in front of the camera and inside the image.

    Returns (uv, depth, valid_mask); uv/depth cover all input rows.
    """
    uv, depth = project_points(xyz, cam)
    u, v = uv.T
    valid = depth > 0.0
    valid &= u >= 0.0
    valid &= u < cam.width
    valid &= v >= 0.0
    valid &= v < cam.height
    return uv, depth, valid


@dataclass(frozen=True)
class InstanceTransform:
    """Similarity transform applied to a pasted instance about its centroid."""

    translation: np.ndarray
    rot_z: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "translation", t)


def transform_instance(points: np.ndarray, t: InstanceTransform) -> np.ndarray:
    """Rotate/scale about the point-set centroid, then translate. Returns float64 (N, 3)."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if pts.shape[0] == 0:
        return pts.copy()
    centroid = pts.mean(axis=0)
    out = (pts - centroid) @ rotation_z(t.rot_z).T * t.scale
    return out + centroid + t.translation


def similarity_matrix(rot_z: float, flip_y: bool, scale: float) -> np.ndarray:
    """3x3 linear map for the global scene transforms: p' = scale * F * Rz * p."""
    A = rotation_z(rot_z)
    if flip_y:
        A = np.diag([1.0, -1.0, 1.0]) @ A
    return scale * A


def transform_camera(cam: CameraModel, A: np.ndarray) -> CameraModel:
    """Adjust an extrinsic so projection of transformed points matches the original.

    For points p' = A p with A = scale * orthogonal, the returned camera maps
    p' to the original pixel (u, v); depths scale with the scene, keeping the
    extrinsic rotation block orthonormal.
    """
    A = np.asarray(A, dtype=np.float64)
    scale = abs(np.linalg.det(A)) ** (1.0 / 3.0)
    O = A / scale
    R = cam.extrinsic[:3, :3]
    t = cam.extrinsic[:3, 3]
    T = np.eye(4)
    T[:3, :3] = R @ np.linalg.inv(O)
    T[:3, 3] = scale * t
    return CameraModel(cam.intrinsic, T, cam.width, cam.height)
