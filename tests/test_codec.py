import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import box_surface_distance
from xray3d.camera import Camera, camera_from_spherical, generate_rays
from xray3d.codec import (
    PointCloud,
    XRayDataError,
    XRayFormatError,
    XRayTensor,
    decode_to_pointcloud,
    encode,
    pad_or_truncate,
    read_xray,
    storage_ratio,
    write_xray,
)
from xray3d.fixtures import cube, icosphere, nested_cubes
from xray3d.mesh import TriangleMesh, normalize_mesh


def front_camera(size=64):
    return camera_from_spherical(0.0, 0.0, 1.2, size, size)


def random_valid_tensor(rng, layers=None, height=None, width=None) -> XRayTensor:
    layers = layers or int(rng.integers(1, 5))
    height = height or int(rng.integers(1, 9))
    width = width or int(rng.integers(1, 9))
    data = np.zeros((layers, 8, height, width), dtype=np.float32)
    hit_counts = rng.integers(0, layers + 1, size=(height, width))
    for j in range(height):
        for i in range(width):
            k = hit_counts[j, i]
            if k == 0:
                continue
            depths = np.sort(rng.uniform(0.2, 2.0, size=k))
            normals = rng.normal(size=(k, 3))
            normals /= np.linalg.norm(normals, axis=1, keepdims=True)
            data[:k, 0, j, i] = 1.0
            data[:k, 1, j, i] = depths
            data[:k, 2:5, j, i] = normals
            data[:k, 5:8, j, i] = rng.uniform(0, 1, size=(k, 3))
    c2w = np.eye(4)
    c2w[:3, 3] = rng.uniform(-1, 1, size=3)
    return XRayTensor(data, float(rng.uniform(0.3, 1.5)), c2w)


def test_encode_cube_central_pixel():
    tensor = encode(cube(), front_camera(64), 8)
    px = tensor.data[:, :, 32, 32]
    assert px[0, 0] == 1.0
    assert px[0, 1] == pytest.approx(0.7, abs=1e-6)
    np.testing.assert_allclose(px[0, 2:5], [0, 0, 1], atol=1e-6)
    assert px[1, 1] == pytest.approx(1.7, abs=1e-6)
    np.testing.assert_allclose(px[1, 2:5], [0, 0, -1], atol=1e-6)
    assert not px[2:].any()
    tensor.validate()


def test_encode_away_from_mesh_all_zero():
    # camera between mesh and +z, turned 180 degrees about +y to face away from the cube
    c2w = np.diag([-1.0, 1.0, -1.0, 1.0])
    c2w[2, 3] = 1.2
    camera = Camera(32, 32, 0.3, c2w)
    tensor = encode(cube(), camera, 4)
    assert not tensor.data.any()


def test_encode_empty_mesh_all_zero():
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=int))
    tensor = encode(empty, front_camera(16), 4)
    assert not tensor.data.any()


def test_encode_sphere_even_hits_per_pixel(sphere_mesh):
    tensor = encode(sphere_mesh, front_camera(96), 8)
    per_pixel = tensor.hit_mask().sum(axis=0)
    assert per_pixel.max() <= 8
    # Convex watertight surface: 0 or 2 crossings per ray, except the
    # few silhouette-tangent rays that graze an edge.
    assert np.isin(per_pixel, [0, 2]).mean() > 0.995
    assert per_pixel.max() == 2
    tensor.validate()


def test_encode_truncates_deep_hits(nested_mesh):
    full = encode(nested_mesh, front_camera(32), 8)
    shallow = encode(nested_mesh, front_camera(32), 2)
    np.testing.assert_array_equal(shallow.data, full.data[:2])
    assert full.hit_mask()[2:].any()


def test_encode_fills_as_many_layers_as_asked():
    # 70 parallel squares stacked along z; the central pixel's ray crosses
    # every one (along their shared diagonals, one merged hit each).
    verts, faces = [], []
    for k in range(70):
        z = -0.05 * k
        base = 4 * k
        verts += [[-1, -1, z], [1, -1, z], [1, 1, z], [-1, 1, z]]
        faces += [[base, base + 1, base + 2], [base, base + 2, base + 3]]
    stack = TriangleMesh(np.array(verts, dtype=float), np.array(faces))
    full = encode(stack, front_camera(64), 70)
    assert full.data[:, 0, 32, 32].sum() == 70
    assert np.all(np.diff(full.data[:, 1, 32, 32]) > 0)
    for layers in (1, 8, 64):
        np.testing.assert_array_equal(encode(stack, front_camera(64), layers).data,
                                      full.data[:layers])


@pytest.mark.parametrize("layers", [0, -2])
def test_encode_rejects_fewer_than_one_layer(layers):
    with pytest.raises(ValueError, match=f"need at least one layer, got {layers}$"):
        encode(cube(), front_camera(16), layers)


def test_encode_colored_interpolation(colored_cube):
    tensor = encode(colored_cube, front_camera(32), 2)
    colors = tensor.data[:, 5:8].transpose(0, 2, 3, 1)[tensor.hit_mask()]
    assert colors.min() >= 0.0 and colors.max() <= 1.0
    assert colors.std() > 0.01  # actually interpolated, not constant


def test_encode_validates_on_random_views(sphere_mesh, nested_mesh, rng):
    for mesh in (sphere_mesh, nested_mesh):
        for _ in range(3):
            camera = camera_from_spherical(
                float(rng.uniform(-180, 180)), float(rng.uniform(0, 45)), 1.2, 48, 48
            )
            encode(mesh, camera, 6).validate()


def test_pad_zero_fills():
    rng = np.random.default_rng(0)
    x = random_valid_tensor(rng, layers=2, height=4, width=4)
    padded = pad_or_truncate(x, 8)
    assert padded.layers == 8
    np.testing.assert_array_equal(padded.data[:2], x.data)
    assert not padded.data[2:].any()
    padded.validate()


def test_truncate_keeps_prefix():
    rng = np.random.default_rng(1)
    x = random_valid_tensor(rng, layers=12, height=4, width=4)
    cut = pad_or_truncate(x, 8)
    np.testing.assert_array_equal(cut.data, x.data[:8])
    assert np.shares_memory(cut.data, x.data)
    assert cut.data.flags.c_contiguous and not cut.data.flags.writeable
    assert (cut.fov_x, cut.c2w.tobytes()) == (x.fov_x, x.c2w.tobytes())
    cut.validate()


def test_pad_identity_bitwise():
    rng = np.random.default_rng(2)
    x = random_valid_tensor(rng, layers=8, height=4, width=4)
    assert pad_or_truncate(x, 8) is x


def test_pad_idempotent():
    rng = np.random.default_rng(3)
    x = random_valid_tensor(rng, layers=5, height=3, width=3)
    once = pad_or_truncate(x, 3)
    twice = pad_or_truncate(once, 3)
    np.testing.assert_array_equal(once.data, twice.data)


def test_pad_rejects_nonpositive():
    rng = np.random.default_rng(4)
    with pytest.raises(ValueError):
        pad_or_truncate(random_valid_tensor(rng), 0)


def test_decode_single_synthetic_hit():
    data = np.zeros((1, 8, 5, 5), dtype=np.float32)
    data[0, 0, 2, 2] = 1.0
    data[0, 1, 2, 2] = 0.7
    data[0, 2:5, 2, 2] = [0, 0, 1]
    data[0, 5:8, 2, 2] = [1, 0, 0]
    x = XRayTensor(data, 0.9, np.eye(4))
    cloud = decode_to_pointcloud(x, frame="camera")
    assert len(cloud) == 1
    direction = generate_rays(Camera(5, 5, x.fov_x, np.eye(4)))[2, 2]
    np.testing.assert_allclose(cloud.positions[0], 0.7 * direction, atol=1e-6)
    np.testing.assert_allclose(cloud.colors[0], [1, 0, 0], atol=1e-6)


def test_decode_world_points_on_cube_surface():
    camera = camera_from_spherical(25.0, 30.0, 1.2, 128, 128)
    tensor = encode(cube(), camera, 8)
    cloud = decode_to_pointcloud(tensor, frame="world")
    assert len(cloud) == tensor.total_hits()
    dist = box_surface_distance(cloud.positions, 0.5)
    assert dist.max() < 1e-4


def test_decode_surface_distance_at_full_resolution(sphere_mesh):
    camera = camera_from_spherical(40.0, 15.0, 1.2, 256, 256)
    tensor = encode(sphere_mesh, camera, 8)
    cloud = decode_to_pointcloud(tensor, frame="world")
    # faceted sphere: all faces within ~0.002 of the 0.5-radius sphere
    radial = np.abs(np.linalg.norm(cloud.positions, axis=1) - 0.5)
    assert (radial < 2.0 / 256).mean() > 0.99


def test_decode_camera_frame_relates_by_pose():
    camera = camera_from_spherical(40.0, 10.0, 1.2, 32, 32)
    tensor = encode(cube(), camera, 4)
    world = decode_to_pointcloud(tensor, frame="world").positions
    local = decode_to_pointcloud(tensor, frame="camera").positions
    c2w = np.asarray(tensor.c2w, dtype=np.float64)
    lifted = local @ c2w[:3, :3].T + c2w[:3, 3]
    np.testing.assert_allclose(lifted, world, atol=1e-5)


def test_decode_all_zero_empty():
    x = XRayTensor(np.zeros((2, 8, 4, 4), dtype=np.float32), 0.8, np.eye(4))
    assert len(decode_to_pointcloud(x)) == 0


def test_decode_corrupt_hit_channel():
    data = np.zeros((1, 8, 2, 2), dtype=np.float32)
    data[0, 0, 0, 0] = 0.5
    x = XRayTensor(data, 0.8, np.eye(4))
    with pytest.raises(XRayDataError, match="corrupt hit"):
        decode_to_pointcloud(x)


def test_validate_and_decode_name_the_bad_hit_value():
    # 0.7 reads as a hit and 0.25 as no hit; either is a corrupt hit value.
    for value in (0.7, 0.25):
        data = np.zeros((1, 8, 2, 2), dtype=np.float32)
        data[0, 0, 1, 0] = value
        x = XRayTensor(data, 0.8, np.eye(4))
        for check in (x.validate, lambda: decode_to_pointcloud(x)):
            with pytest.raises(XRayDataError) as info:
                check()
            assert str(info.value) == (f"corrupt hit channel (value {value} is neither 0 nor 1) "
                                       "at layer 0, pixel (1, 0)")


def test_decode_zero_normal_names_its_pixel():
    data = np.zeros((2, 8, 3, 4), dtype=np.float32)
    data[:, 0] = 1.0
    data[0, 1], data[1, 1] = 0.5, 0.9
    data[:, 4] = 2.0  # normal (0, 0, 2): decode renormalises it
    normals = decode_to_pointcloud(XRayTensor(data.copy(), 0.8, np.eye(4))).normals
    np.testing.assert_array_equal(normals, np.tile([0.0, 0.0, 1.0], (24, 1)))
    data[1, 2:5, 2, 3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(XRayDataError) as info:
            decode_to_pointcloud(XRayTensor(data, 0.8, np.eye(4)))
    assert str(info.value) == "zero-length normal at layer 1, pixel (2, 3)"


def test_decode_point_count_equals_truncated_hits(nested_mesh):
    tensor = encode(nested_mesh, front_camera(48), 3)
    cloud = decode_to_pointcloud(tensor, frame="world")
    assert len(cloud) == tensor.total_hits()


def test_write_read_round_trip_bitwise(tmp_path, rng):
    for i in range(50):
        x = random_valid_tensor(rng)
        path = tmp_path / f"t{i}.xray"
        write_xray(x, path)
        y = read_xray(path)
        assert x.data.tobytes() == y.data.tobytes()
        assert x.c2w.tobytes() == y.c2w.tobytes()
        assert np.float32(x.fov_x) == np.float32(y.fov_x)


def test_read_memory_one_payload(tmp_path, rng):
    """The tensor read back is a view of the file's bytes, so a read holds
    one payload (plus the header and array objects). Slicing the header
    off the bytes first holds it twice."""
    x = XRayTensor(rng.random((8, 8, 128, 128), dtype=np.float32), 1.0, np.eye(4))
    path = tmp_path / "big.xray"
    write_xray(x, path)
    tracemalloc.start()
    try:
        y = read_xray(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert y.data.tobytes() == x.data.tobytes()
    assert peak <= 1.1 * x.data.nbytes


def test_read_bad_magic(tmp_path, rng):
    path = tmp_path / "bad.xray"
    write_xray(random_valid_tensor(rng), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XRAX"
    path.write_bytes(bytes(raw))
    with pytest.raises(XRayFormatError, match="magic"):
        read_xray(path)


def test_read_version_mismatch(tmp_path, rng):
    path = tmp_path / "bad.xray"
    write_xray(random_valid_tensor(rng), path)
    raw = bytearray(path.read_bytes())
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(XRayFormatError, match="version"):
        read_xray(path)


def test_read_truncated_payload(tmp_path, rng):
    path = tmp_path / "bad.xray"
    write_xray(random_valid_tensor(rng), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(XRayFormatError, match="truncated"):
        read_xray(path)


def test_read_oversized_payload(tmp_path, rng):
    path = tmp_path / "bad.xray"
    write_xray(random_valid_tensor(rng), path)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(XRayFormatError, match="mismatch"):
        read_xray(path)


def test_read_short_header(tmp_path):
    path = tmp_path / "tiny.xray"
    path.write_bytes(b"XRAY\x01")
    with pytest.raises(XRayFormatError, match="short"):
        read_xray(path)


def test_storage_ratio_values():
    assert storage_ratio(8, 256) == 0.96875
    assert f"{storage_ratio(8, 256) * 100:.2f}%" == "96.88%"
    assert storage_ratio(256, 256) == 0.0
    assert storage_ratio(1, 2) == 0.5
    with pytest.raises(ValueError):
        storage_ratio(0, 256)
    with pytest.raises(ValueError):
        storage_ratio(8, 0)


def _tweak(data, layer, channel, row, col, value):
    out = data.copy()
    out[layer, channel, row, col] = value
    return out


def test_validate_catches_violations():
    rng = np.random.default_rng(9)
    x = random_valid_tensor(rng, layers=3, height=4, width=4)
    hit = x.hit_mask()
    j, i = 0, 0
    # find a pixel with at least 2 hits
    counts = hit.sum(axis=0)
    j, i = np.argwhere(counts >= 2)[0]

    bad = _tweak(x.data, 0, 0, j, i, 0.7)
    with pytest.raises(XRayDataError, match="hit channel"):
        XRayTensor(bad, x.fov_x, x.c2w).validate()

    bad = _tweak(x.data, 0, 0, j, i, 0.0)  # hole before a later hit
    bad[0, 1:, j, i] = 0.0
    with pytest.raises(XRayDataError, match="prefix"):
        XRayTensor(bad, x.fov_x, x.c2w).validate()

    bad = _tweak(x.data, 1, 1, j, i, x.data[0, 1, j, i] - 1e-3)  # depth order
    with pytest.raises(XRayDataError, match="strictly increase"):
        XRayTensor(bad, x.fov_x, x.c2w).validate()

    bad = _tweak(x.data, 0, 2, j, i, 5.0)  # non-unit normal
    with pytest.raises(XRayDataError, match="unit"):
        XRayTensor(bad, x.fov_x, x.c2w).validate()

    zero_pixel = np.argwhere(counts == 0)
    if len(zero_pixel):
        zj, zi = zero_pixel[0]
        bad = _tweak(x.data, x.layers - 1, 5, zj, zi, 0.3)
        with pytest.raises(XRayDataError, match="unhit"):
            XRayTensor(bad, x.fov_x, x.c2w).validate()


def _every_pixel_hit_twice():
    """A valid 2 x 8 x 3 x 4 tensor: every pixel hit at depths 0.5 and
    0.9 with normal +z and grey color."""
    data = np.zeros((2, 8, 3, 4), dtype=np.float32)
    data[:, 0] = 1.0
    data[0, 1], data[1, 1] = 0.5, 0.9
    data[:, 4] = 1.0
    data[:, 5:8] = 0.5
    return data


EVERY_CHANNEL = slice(None)


@pytest.mark.parametrize("edits,message", [
    ([((0, EVERY_CHANNEL, 1, 2), 0.0)],
     "hit flags are not prefix-dense: no hit at layer 0, pixel (1, 2), but a hit at the next layer"),
    ([((1, EVERY_CHANNEL, 2, 3), 0.0), ((1, 6, 2, 3), 0.25)],
     "non-zero color 0.25 at layer 1, pixel (2, 3), which is unhit"),
    ([((0, 1, 0, 1), -0.5)], "non-positive depth -0.5 at layer 0, pixel (0, 1)"),
    ([((1, 1, 2, 0), 0.25)],
     "depths do not strictly increase: 0.25 at layer 1 after 0.5 at layer 0, pixel (2, 0)"),
    ([((1, 4, 0, 3), 2.0)],
     "hit normal of length 2.0 is not unit length (within 1e-3) at layer 1, pixel (0, 3)"),
    ([((0, 7, 0, 0), 1.5)], "color 1.5 outside [0, 1] at layer 0, pixel (0, 0)"),
], ids=["prefix", "unhit", "depth", "order", "normal", "color"])
def test_validate_names_the_entry_and_value(edits, message):
    data = _every_pixel_hit_twice()
    XRayTensor(data.copy(), 0.8, np.eye(4)).validate()
    for index, value in edits:
        data[index] = value
    with pytest.raises(XRayDataError) as info:
        XRayTensor(data, 0.8, np.eye(4)).validate()
    assert str(info.value) == message


def test_decode_rejects_a_color_outside_the_unit_range():
    data = _every_pixel_hit_twice()
    data[1, 5, 2, 1] = 1.5
    x = XRayTensor(data, 0.8, np.eye(4))
    for check in (x.validate, lambda: decode_to_pointcloud(x)):
        with pytest.raises(XRayDataError) as info:
            check()
        assert str(info.value) == "color 1.5 outside [0, 1] at layer 1, pixel (2, 1)"


def test_pointcloud_validation():
    with pytest.raises(ValueError, match="equal length"):
        PointCloud(np.zeros((2, 3)), np.zeros((1, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError) as info:
        PointCloud(np.zeros((2, 3)), np.array([[0, 0, 1.0], [0.5, 0, 0]]), np.zeros((2, 3)))
    assert str(info.value) == "normals must be unit length (within 1e-3), got length 0.5 at point 1"
    normals = np.tile([0.0, 0.0, 1.0], (3, 1))
    for value in (1.5, -0.25):
        colors = np.full((3, 3), 0.5)
        colors[2, 1] = value
        with pytest.raises(ValueError) as info:
            PointCloud(np.zeros((3, 3)), normals, colors)
        assert str(info.value) == f"colors must lie in [0, 1], got {value} at point 2"
    PointCloud(np.zeros((2, 3)), normals[:2], [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])


def test_constructors_leave_the_callers_arrays_writable():
    data = np.zeros((1, 8, 2, 2), dtype=np.float32)
    c2w = np.eye(4)
    positions, colors = np.zeros((2, 3)), np.ones((2, 3))
    normals = np.tile([0.0, 0.0, 1.0], (2, 1))
    vertices, faces = np.eye(3), np.array([[0, 1, 2]], dtype=np.int64)
    cloud = PointCloud(positions, normals, colors)
    mesh = TriangleMesh(vertices, faces)
    tensor = XRayTensor(data, 0.8, c2w)
    held = [(data, tensor.data), (c2w, Camera(2, 2, 0.8, c2w).c2w),
            (positions, cloud.positions), (normals, cloud.normals), (colors, cloud.colors),
            (vertices, mesh.vertices), (faces, mesh.faces)]
    for caller, kept in held:
        assert caller.flags.writeable and not kept.flags.writeable
    assert np.shares_memory(data, tensor.data)  # held as a view, not a copy


def _non_finite_cases(channel, name):
    """A two-layer cube tensor with one NaN or +-inf in `channel`, in one of
    two hit slots or two unhit ones, each with the message that names it."""
    x = encode(cube(), front_camera(8), 2)
    assert x.hit_mask()[0, 4, 4]
    hit_slots = np.argwhere(x.hit_mask())
    unhit_slots = np.argwhere(~x.hit_mask())
    for value in (np.nan, np.inf, -np.inf):
        for layer, row, col in (hit_slots[0], (0, 4, 4), unhit_slots[0], unhit_slots[-1]):
            bad = XRayTensor(_tweak(x.data, layer, channel, row, col, value), x.fov_x, x.c2w)
            yield bad, f"non-finite {name} at layer {layer}, pixel ({row}, {col})"


@pytest.mark.parametrize("channel,name", [(1, "depth"), (2, "normal"), (6, "color"), (0, "hit")])
def test_validate_rejects_non_finite(channel, name):
    for bad, message in _non_finite_cases(channel, name):
        with pytest.raises(XRayDataError) as info:
            bad.validate()
        assert str(info.value) == message


@pytest.mark.parametrize("name", ["depth", "normal", "color", "hit"])
def test_decode_rejects_non_finite(name):
    channel = {"depth": 1, "normal": 2, "color": 6, "hit": 0}[name]
    for bad, message in _non_finite_cases(channel, name):
        with pytest.raises(XRayDataError) as info:
            decode_to_pointcloud(bad, frame="world")
        assert str(info.value) == message


@pytest.mark.parametrize("name", ["positions", "normals", "colors"])
def test_pointcloud_rejects_non_finite(name):
    arrays = {"positions": np.zeros((2, 3)), "normals": np.eye(3)[:2], "colors": np.ones((2, 3))}
    arrays[name][1, 0] = np.nan
    with pytest.raises(ValueError, match=f"non-finite {name} at point 1"):
        PointCloud(**arrays)


@pytest.mark.parametrize("width,height", [(256, 256), (320, 200), (200, 320)])
def test_default_camera_does_not_clip_normalized_cube(width, height):
    mesh, _ = normalize_mesh(cube())
    camera = camera_from_spherical(30.0, 20.0, width=width, height=height)
    hit = encode(mesh, camera, 2).hit_mask()[0]
    assert hit.shape == (height, width) and hit.any()
    border = np.concatenate([hit[0], hit[-1], hit[:, 0], hit[:, -1]])
    assert not border.any()


def _corrupt_header(c2w_entry=None, value=None, fov_x=None):
    x = encode(cube(), camera_from_spherical(30.0, 20.0, width=8, height=8), 2)
    c2w = np.array(x.c2w)
    if c2w_entry is not None:
        c2w[c2w_entry] = value
    return XRayTensor(x.data, x.fov_x if fov_x is None else fov_x, c2w)


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (dict(fov_x=np.nan), r"fov_x must lie in \(0, pi\), got nan"),
        (dict(fov_x=4.0), r"fov_x must lie in \(0, pi\), got 4\.0"),
        (dict(fov_x=-0.5), r"fov_x must lie in \(0, pi\), got -0\.5"),
        (dict(c2w_entry=(1, 2), value=np.nan), r"non-finite c2w\[1, 2\] = nan"),
        (dict(c2w_entry=(0, 3), value=np.inf), r"non-finite c2w\[0, 3\] = inf"),
        (dict(c2w_entry=(3, 1), value=0.5), r"c2w last row \[0\.0, 0\.5, 0\.0, 1\.0\]"),
        (dict(c2w_entry=(3, 3), value=2.0), r"c2w last row \[0\.0, 0\.0, 0\.0, 2\.0\]"),
        (dict(c2w_entry=(0, 0), value=3.0), r"c2w rotation \[\[3\.0, .* is not orthonormal"),
        (dict(c2w_entry=(2, 1), value=1e-3), r"c2w rotation .* is not orthonormal"),
    ],
    ids=["fov_nan", "fov_wide", "fov_negative", "c2w_nan", "c2w_inf",
         "last_row", "last_row_scale", "scaled_rotation", "sheared_rotation"],
)
def test_corrupt_header_camera_rejected(corrupt, message, tmp_path):
    path = tmp_path / "bad.xray"
    write_xray(_corrupt_header(**corrupt), path)
    x = read_xray(path)
    with pytest.raises(XRayDataError, match=message):
        x.validate()
    for frame in ("camera", "world"):
        with pytest.raises(XRayDataError, match=message):
            decode_to_pointcloud(x, frame=frame)


def test_float32_rounded_poses_accepted(tmp_path):
    rng = np.random.default_rng(3)
    x = encode(cube(), camera_from_spherical(0.0, 0.0, width=8, height=8), 2)
    for _ in range(200):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        c2w = np.eye(4)
        c2w[:3, :3] = q
        c2w[:3, 3] = rng.uniform(-5, 5, size=3)
        write_xray(XRayTensor(x.data, x.fov_x, c2w), tmp_path / "pose.xray")
        y = read_xray(tmp_path / "pose.xray")
        y.validate()
        assert len(decode_to_pointcloud(y, frame="world")) == x.total_hits()
