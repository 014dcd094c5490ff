"""Pinhole camera, per-pixel ray generation, and spherical view sampling.

Conventions, fixed once for the whole codec:
  - camera space is right-handed, looking down -z, up is +y;
  - pixel (row j, col i) maps to the pre-normalized camera-frame
    direction ((i - cx)/fx, -(j - cy)/fx, -1) with fx = 0.5*W/tan(fov_x/2),
    cx = W/2, cy = H/2 (integer pixel coordinates, square pixels);
  - directions are rotated by the camera-to-world rotation and then
    unit-normalized, so stored depths are Euclidean distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mesh import _frozen

# Field of view (radians) of the shorter image axis paired with a view
# distance of 1.2 so that a normalized mesh (unit bounding box, bounding
# sphere radius 0.866) stays inside the frame from every direction, with
# a margin. It is the horizontal field of view of a square frame.
DEFAULT_FOV_X = 2.0 * math.asin(0.875 / 1.2)
DEFAULT_DISTANCE = 1.2


@dataclass(frozen=True)
class Camera:
    width: int
    height: int
    fov_x: float
    c2w: np.ndarray

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("image dimensions must be at least 1 pixel, "
                             f"got {self.width}x{self.height}")
        if not 0.0 < self.fov_x < math.pi:
            raise ValueError(f"fov_x must lie in (0, pi), got {self.fov_x!r}")
        mat = np.asarray(self.c2w, dtype=np.float64).reshape(4, 4)
        bad = np.argwhere(~np.isfinite(mat))
        if len(bad):
            i, j = bad[0]
            raise ValueError(f"non-finite c2w[{i}, {j}] = {float(mat[i, j])!r}")
        rot = mat[:3, :3]
        if not np.allclose(rot @ rot.T, np.eye(3), atol=1e-9):
            raise ValueError("camera rotation block is not orthonormal")
        if not np.allclose(mat[3], [0.0, 0.0, 0.0, 1.0], atol=1e-12):
            raise ValueError("last row of c2w must be (0, 0, 0, 1)")
        object.__setattr__(self, "c2w", _frozen(mat))

    @property
    def position(self) -> np.ndarray:
        return self.c2w[:3, 3]

    @property
    def rotation(self) -> np.ndarray:
        return self.c2w[:3, :3]

    @property
    def fx(self) -> float:
        return 0.5 * self.width / math.tan(0.5 * self.fov_x)


def generate_rays(camera: Camera) -> np.ndarray:
    """Unit world-frame direction of each pixel's ray, shape (H, W, 3).

    Every ray starts at camera.position, so no per-pixel origin is stored.
    """
    w, h = camera.width, camera.height
    fx = camera.fx
    cx, cy = w / 2.0, h / 2.0
    i = np.arange(w, dtype=np.float64)
    j = np.arange(h, dtype=np.float64)
    ii, jj = np.meshgrid(i, j)  # (H, W)
    dirs = np.stack([(ii - cx) / fx, -(jj - cy) / fx, -np.ones_like(ii)], axis=-1)
    dirs = dirs @ camera.rotation.T
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    return _frozen(dirs)


def look_at(
    position,
    target=(0.0, 0.0, 0.0),
    up=(0.0, 1.0, 0.0),
) -> np.ndarray:
    """Camera-to-world matrix for a camera at `position` facing `target`."""
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    z_cam = position - target
    norm = np.linalg.norm(z_cam)
    if norm < 1e-12:
        raise ValueError("camera position coincides with target")
    z_cam = z_cam / norm
    x_cam = np.cross(up, z_cam)
    x_norm = np.linalg.norm(x_cam)
    if x_norm < 1e-12:
        raise ValueError("view direction is parallel to the up vector")
    x_cam = x_cam / x_norm
    y_cam = np.cross(z_cam, x_cam)
    c2w = np.eye(4)
    c2w[:3, 0] = x_cam
    c2w[:3, 1] = y_cam
    c2w[:3, 2] = z_cam
    c2w[:3, 3] = position
    return c2w


def camera_from_spherical(
    azimuth_deg: float,
    elevation_deg: float,
    distance: float = DEFAULT_DISTANCE,
    width: int = 256,
    height: int = 256,
    fov_x: float | None = None,
) -> Camera:
    """Camera on a sphere around the origin, looking inward.

    Azimuth 0 / elevation 0 places the camera at (0, 0, distance) facing
    -z; azimuth rotates about +y, elevation lifts toward +y. Without
    `fov_x`, the shorter image axis spans DEFAULT_FOV_X, so a normalized
    mesh at the default distance is not clipped in any frame shape.
    """
    if fov_x is None:
        fov_x = DEFAULT_FOV_X
        if width > height:  # widen so that the vertical axis spans DEFAULT_FOV_X
            fov_x = 2.0 * math.atan(math.tan(0.5 * DEFAULT_FOV_X) * width / height)
    az = math.radians(azimuth_deg)
    el = math.radians(elevation_deg)
    position = distance * np.array(
        [math.sin(az) * math.cos(el), math.sin(el), math.cos(az) * math.cos(el)]
    )
    return Camera(width, height, fov_x, look_at(position))


def sample_view_angles(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic random view angles: azimuth uniform in [-180, 180)
    degrees, elevation uniform in [0, 45] degrees."""
    if n < 1:
        raise ValueError(f"need at least one view, got {n!r}")
    rng = np.random.default_rng(seed)
    azimuths = rng.uniform(-180.0, 180.0, size=n)
    elevations = rng.uniform(0.0, 45.0, size=n)
    return azimuths, elevations


def sample_views(
    seed: int,
    n: int,
    width: int = 256,
    height: int = 256,
    fov_x: float | None = None,
) -> list[Camera]:
    """Draw n deterministic random views around the origin at
    DEFAULT_DISTANCE, looking at the origin with up = +y (default field
    of view as in camera_from_spherical)."""
    azimuths, elevations = sample_view_angles(seed, n)
    return [
        camera_from_spherical(az, el, DEFAULT_DISTANCE, width, height, fov_x)
        for az, el in zip(azimuths, elevations)
    ]
