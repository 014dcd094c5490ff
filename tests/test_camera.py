import math

import numpy as np
import pytest

from xray3d.camera import (
    DEFAULT_FOV_X,
    Camera,
    camera_from_spherical,
    generate_rays,
    look_at,
    sample_view_angles,
)
from xray3d.codec import XRayDataError, XRayTensor


def _identity_camera(width, height, fov_x):
    return Camera(width, height, fov_x, np.eye(4))


def _sampled_views(seed, n, width=256, height=256):
    """n sampled views, built as `xray3d views` and the sweep build them."""
    return [camera_from_spherical(az, el, width=width, height=height)
            for az, el in zip(*sample_view_angles(seed, n))]


def test_corner_pixel_direction_formula():
    # fx = 1 requires fov_x = pi/2 at width 2; pixel (0, 0) then maps to
    # the pre-normalized direction (-1, 1, -1).
    cam = _identity_camera(2, 2, math.pi / 2)
    assert cam.fx == pytest.approx(1.0)
    dirs = generate_rays(cam)
    expected = np.array([-1.0, 1.0, -1.0]) / math.sqrt(3.0)
    np.testing.assert_allclose(dirs[0, 0], expected, atol=1e-12)


def test_center_pixel_of_odd_image_near_axis():
    cam = _identity_camera(17, 17, 0.9)
    d = generate_rays(cam)[8, 8]
    # half-pixel offset from exact -z
    scale = -d[2]
    assert abs(d[0] / scale) <= 0.5 / cam.fx + 1e-12
    assert abs(d[1] / scale) <= 0.5 / cam.fx + 1e-12


def test_center_pixel_of_even_image_exact_axis():
    cam = _identity_camera(256, 256, 0.8575560450553894)
    np.testing.assert_allclose(generate_rays(cam)[128, 128], [0, 0, -1], atol=1e-15)


@pytest.mark.parametrize("size", [2, 17, 64, 256])
def test_directions_unit_length(size):
    cam = camera_from_spherical(33.0, 21.0, 1.2, size, size)
    dirs = generate_rays(cam)
    assert dirs.shape == (size, size, 3) and not dirs.flags.writeable
    norms = np.linalg.norm(dirs, axis=-1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-9)


def test_sample_views_deterministic():
    a = _sampled_views(7, 8)
    b = _sampled_views(7, 8)
    for ca, cb in zip(a, b):
        np.testing.assert_array_equal(ca.c2w, cb.c2w)
    c = _sampled_views(8, 8)
    assert any(not np.array_equal(ca.c2w, cc.c2w) for ca, cc in zip(a, c))


def test_sample_views_distance_and_ranges():
    cams = _sampled_views(3, 16)
    for cam in cams:
        assert np.linalg.norm(cam.position) == pytest.approx(1.2, abs=1e-9)
    az, el = sample_view_angles(3, 16)
    assert np.all((az >= -180) & (az < 180))
    assert np.all((el >= 0) & (el <= 45))


def test_front_view_anchor_case():
    cam = camera_from_spherical(0.0, 0.0, 1.2)
    np.testing.assert_allclose(cam.position, [0, 0, 1.2], atol=1e-12)
    # forward (-z of camera) points at the origin
    forward = cam.rotation @ np.array([0.0, 0.0, -1.0])
    np.testing.assert_allclose(forward, [0, 0, -1], atol=1e-12)


def test_sampled_views_central_ray_hits_origin():
    for cam in _sampled_views(11, 6):
        o = cam.position
        d = generate_rays(cam)[128, 128]
        # distance from the origin to the central ray line
        miss = np.linalg.norm(np.cross(-o, d))
        assert miss < 1e-6


def test_camera_validation():
    with pytest.raises(ValueError):
        Camera(0, 4, 0.8, np.eye(4))
    with pytest.raises(ValueError):
        Camera(4, 4, 0.0, np.eye(4))
    with pytest.raises(ValueError):
        Camera(4, 4, math.pi, np.eye(4))
    bad = np.eye(4)
    bad[0, 0] = 2.0
    with pytest.raises(ValueError, match="orthonormal"):
        Camera(4, 4, 0.8, bad)
    # Within np.allclose's default rtol, but the tensor header check would
    # reject it after encode, so Camera rejects it first.
    bad[0, 0] = 1.0 + 4e-6
    with pytest.raises(ValueError, match=r"is not orthonormal \(\|R R\^T - I\| reaches 8e-06\)"):
        Camera(4, 4, 0.8, bad)


@pytest.mark.parametrize("fov_x,entry,value,message", [
    (math.nan, None, None, "fov_x must lie in (0, pi), got nan"),
    (-0.5, None, None, "fov_x must lie in (0, pi), got -0.5"),
    (0.8, (2, 1), math.inf, "non-finite c2w[2, 1] = inf"),
    (0.8, (3, 0), 0.5, "c2w last row [0.5, 0.0, 0.0, 1.0] is not (0, 0, 0, 1)"),
    (0.8, (1, 1), 3.0, "c2w rotation [[1.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]] "
                       "is not orthonormal (|R R^T - I| reaches 8)"),
    (0.8, (0, 0), -1.0, "c2w rotation determinant must be +1, got -1"),
], ids=["fov-nan", "fov-negative", "c2w-inf", "last-row", "rotation", "reflection"])
def test_camera_and_tensor_header_share_the_pose_rule(fov_x, entry, value, message):
    c2w = np.eye(4)
    if entry is not None:
        c2w[entry] = value
    with pytest.raises(ValueError) as info:
        Camera(4, 4, fov_x, c2w)
    assert str(info.value) == message
    tensor = XRayTensor(np.zeros((1, 8, 4, 4), dtype=np.float32), fov_x, c2w)
    with pytest.raises(XRayDataError) as info:
        tensor.validate()
    assert str(info.value) == message



@pytest.mark.parametrize("row", [0, 1, 2])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_camera_rejects_non_finite_translation(row, value):
    c2w = np.eye(4)
    c2w[row, 3] = value
    with pytest.raises(ValueError) as info:
        Camera(8, 8, 1.0, c2w)
    assert str(info.value) == f"non-finite c2w[{row}, 3] = {value!r}"

def test_look_at_degenerate_cases():
    with pytest.raises(ValueError, match=r"position \[0\.0, 0\.0, 0\.0\] coincides with the origin"):
        look_at([0, 0, 0])
    with pytest.raises(ValueError, match=r"position \[0\.0, -2\.0, 0\.0\] lies on the y axis.* up"):
        look_at([0, -2, 0])
    with pytest.raises(ValueError, match="parallel to the up vector"):
        camera_from_spherical(30.0, 90.0)


@pytest.mark.parametrize("width,height", [(256, 256), (200, 320), (320, 200), (1000, 7)])
def test_default_fov_spans_the_shorter_axis(width, height):
    camera = camera_from_spherical(10.0, 5.0, width=width, height=height)
    if width <= height:
        assert camera.fov_x == DEFAULT_FOV_X
    # Half-extent of the shorter axis over the focal length, in pixels.
    half_tan = 0.5 * min(width, height) / camera.fx
    assert half_tan == pytest.approx(math.tan(0.5 * DEFAULT_FOV_X), rel=1e-12)
    assert all(v.fov_x == camera.fov_x for v in _sampled_views(0, 2, width, height))
