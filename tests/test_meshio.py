import numpy as np
import pytest

from xray3d.codec import PointCloud
from xray3d.fixtures import cube, icosphere
from xray3d.mesh import MeshError, TriangleMesh
from xray3d.meshio import (
    MeshIOError,
    load_mesh,
    load_pointcloud_ply,
    save_mesh,
    save_pointcloud_ply,
)


def test_obj_round_trip_exact(tmp_path, cube_mesh):
    path = tmp_path / "cube.obj"
    save_mesh(cube_mesh, path)
    again = load_mesh(path)
    assert again.n_vertices == 8 and again.n_faces == 12
    np.testing.assert_array_equal(again.faces, cube_mesh.faces)
    np.testing.assert_allclose(again.vertices, cube_mesh.vertices, atol=1e-6)


def test_obj_colors_round_trip(tmp_path, colored_cube):
    path = tmp_path / "cube.obj"
    save_mesh(colored_cube, path)
    again = load_mesh(path)
    np.testing.assert_allclose(again.vertex_colors, colored_cube.vertex_colors, atol=1e-6)


def test_obj_normals_round_trip(tmp_path):
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0]],
        [[0, 1, 2]],
        vertex_normals=[[0, 0, 1]] * 3,
    )
    path = tmp_path / "tri.obj"
    save_mesh(mesh, path)
    again = load_mesh(path)
    np.testing.assert_allclose(again.vertex_normals, mesh.vertex_normals, atol=1e-9)


def test_obj_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_mesh(path)
    assert mesh.n_faces == 2
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])


def test_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_face_index_out_of_range(tmp_path):
    path = tmp_path / "bad.obj"
    lines = [f"v {x} {y} 0" for x in (0, 1) for y in (0, 1, 2, 3)]
    path.write_text("\n".join(lines) + "\nf 1 2 10\n")
    with pytest.raises(MeshError, match="out of range"):
        load_mesh(path)


def test_obj_malformed_vertex(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 1 2\nf 1 1 1\n")
    with pytest.raises(MeshIOError):
        load_mesh(path)


def test_obj_empty_file(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing\n")
    with pytest.raises(MeshIOError, match="empty"):
        load_mesh(path)


def test_save_empty_mesh_rejected(tmp_path):
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=int))
    with pytest.raises(MeshError):
        save_mesh(empty, tmp_path / "x.obj")


def test_save_unwritable_path(cube_mesh):
    with pytest.raises(OSError):
        save_mesh(cube_mesh, "/nonexistent-dir/cube.obj")


def test_ply_binary_round_trip(tmp_path):
    mesh = icosphere(1, colored=True)
    path = tmp_path / "sphere.ply"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert again.n_faces == mesh.n_faces
    np.testing.assert_array_equal(again.faces, mesh.faces)
    np.testing.assert_allclose(again.vertices, mesh.vertices, atol=1e-6)
    np.testing.assert_allclose(again.vertex_colors, mesh.vertex_colors, atol=1.0 / 255)


def test_ply_ascii_parse(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "comment hand written\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "element face 1\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0 255 0 0\n"
        "1 0 0 0 255 0\n"
        "0 1 0 0 0 255\n"
        "3 0 1 2\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_vertices == 3 and mesh.n_faces == 1
    np.testing.assert_allclose(mesh.vertex_colors[0], [1, 0, 0], atol=1e-9)


def test_ply_quad_faces_triangulated(tmp_path):
    path = tmp_path / "quad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
        "4 0 1 2 3\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_faces == 2


def test_ply_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"plx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(MeshIOError, match="magic"):
        load_mesh(path)


def test_ply_truncated_binary(tmp_path, cube_mesh):
    path = tmp_path / "cube.ply"
    save_mesh(cube_mesh, path)
    data = path.read_bytes()
    path.write_bytes(data[:-20])
    with pytest.raises(MeshIOError):
        load_mesh(path)


def test_unknown_format_rejected(tmp_path, cube_mesh):
    with pytest.raises(MeshIOError, match="unsupported"):
        save_mesh(cube_mesh, tmp_path / "cube.stl")
    with pytest.raises(MeshIOError, match="unsupported"):
        load_mesh(tmp_path / "cube.stl")


def _example_cloud(n=100, seed=3):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(rng.uniform(-0.5, 0.5, (n, 3)), normals, rng.uniform(0, 1, (n, 3)))


def test_pointcloud_ply_round_trip(tmp_path):
    cloud = _example_cloud()
    path = tmp_path / "cloud.ply"
    save_pointcloud_ply(cloud, path)
    again = load_pointcloud_ply(path)
    assert len(again) == len(cloud)
    np.testing.assert_allclose(again.positions, cloud.positions, atol=1e-6)
    np.testing.assert_allclose(again.normals, cloud.normals, atol=1e-3)
    np.testing.assert_allclose(again.colors, cloud.colors, atol=1.0 / 255)


def test_pointcloud_ply_ascii_load(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nproperty float ny\nproperty float nz\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0.25 -0.5 0.125 0 0 2 255 0 51\n"
        "-0.375 0 0.5 3 4 0 0 255 0\n"
        "0 0.0625 -0.25 0 -1 0 0 0 255\n"
    )
    cloud = load_pointcloud_ply(path)
    np.testing.assert_array_equal(
        cloud.positions, [[0.25, -0.5, 0.125], [-0.375, 0, 0.5], [0, 0.0625, -0.25]]
    )
    np.testing.assert_allclose(cloud.normals, [[0, 0, 1], [0.6, 0.8, 0], [0, -1, 0]], atol=1e-12)
    np.testing.assert_allclose(cloud.colors, [[1, 0, 0.2], [0, 1, 0], [0, 0, 1]], atol=1e-12)


def test_pointcloud_ply_not_a_mesh(tmp_path):
    save_pointcloud_ply(_example_cloud(), tmp_path / "cloud.ply")
    with pytest.raises(MeshIOError, match="load_pointcloud_ply"):
        load_mesh(tmp_path / "cloud.ply")
