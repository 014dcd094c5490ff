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


def _pose_error(fov_x: float, c2w: np.ndarray, tol: float) -> str | None:
    """The one rule for a valid pinhole pose: fov_x in (0, pi), a finite
    4x4 c2w whose last row is exactly (0, 0, 0, 1), and a rotation block
    R with every entry of |R R^T - I| at most tol. Returns a message
    naming the first violating value, or None for a valid pose."""
    if not 0.0 < fov_x < math.pi:
        return f"fov_x must lie in (0, pi), got {fov_x!r}"
    bad = np.argwhere(~np.isfinite(c2w))
    if len(bad):
        row, col = bad[0]
        return f"non-finite c2w[{row}, {col}] = {float(c2w[row, col])!r}"
    if not np.array_equal(c2w[3], [0.0, 0.0, 0.0, 1.0]):
        return f"c2w last row {c2w[3].tolist()} is not (0, 0, 0, 1)"
    rot = c2w[:3, :3]
    error = np.abs(rot @ rot.T - np.eye(3)).max()
    if error > tol:
        return (f"c2w rotation {np.round(rot, 6).tolist()} is not orthonormal "
                f"(|R R^T - I| reaches {error:.3g})")
    return None


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
        mat = np.asarray(self.c2w, dtype=np.float64).reshape(4, 4)
        error = _pose_error(self.fov_x, mat, tol=1e-9)
        if error:
            raise ValueError(error)
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


def look_at(position) -> np.ndarray:
    """Camera-to-world matrix for a camera at `position` facing the
    origin, with +y up."""
    position = np.asarray(position, dtype=np.float64)
    norm = np.linalg.norm(position)
    if norm < 1e-12:
        raise ValueError(f"camera position {position.tolist()} coincides with the origin it faces")
    z_cam = position / norm
    x_cam = np.cross((0.0, 1.0, 0.0), z_cam)
    x_norm = np.linalg.norm(x_cam)
    if x_norm < 1e-12:
        raise ValueError(f"camera position {position.tolist()} lies on the y axis, "
                         "so the view direction is parallel to the up vector +y")
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
