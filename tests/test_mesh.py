import dataclasses

import numpy as np
import pytest

from xray3d.fixtures import cube, icosphere, standard_suite, torus
from xray3d.mesh import (
    MeshError,
    RigidTransform,
    TriangleMesh,
    face_normals,
    normalize_mesh,
    surface_attributes,
)
from xray3d.raycast import build_bvh, cast_rays


def test_face_index_out_of_range_rejected():
    with pytest.raises(MeshError, match="out of range"):
        TriangleMesh(np.zeros((3, 3)), [[0, 1, 5]])


def test_repeated_index_face_rejected():
    with pytest.raises(MeshError, match="degenerate"):
        TriangleMesh(np.eye(3), [[0, 1, 1]])


def _with(array, index, value):
    array = np.array(array, dtype=np.float64)
    array[index] = value
    return array


@pytest.mark.parametrize("faces,vertices,colors,message", [
    ([[0, 1, 2], [2, 0, 2]], np.eye(3), None,
     "degenerate face 1 with repeated vertex index [2, 0, 2]"),
    ([[0, 1, 2]], _with(np.eye(3), (2, 1), np.inf), None,
     "non-finite vertex coordinate inf at vertex 2"),
    ([[0, 1, 2]], np.eye(3), _with(np.full((3, 3), 0.5), (1, 2), 1.25),
     "vertex colors must lie in [0, 1], got 1.25 at vertex 1"),
], ids=["repeated-index", "non-finite", "color"])
def test_mesh_errors_name_the_entry_and_value(faces, vertices, colors, message):
    with pytest.raises(MeshError) as info:
        TriangleMesh(vertices, faces, colors)
    assert str(info.value) == message


def test_color_length_mismatch_rejected():
    with pytest.raises(MeshError):
        TriangleMesh(np.eye(3), [[0, 1, 2]], vertex_colors=np.zeros((2, 3)))


def test_mesh_arrays_frozen(cube_mesh):
    with pytest.raises(ValueError):
        cube_mesh.vertices[0, 0] = 9.0


@pytest.mark.parametrize("field,value", [
    ("vertices", np.zeros((8, 3))),
    ("faces", [[0, 0, 99]]),
    ("vertex_colors", np.ones((8, 3))),
])
def test_mesh_fields_cannot_be_reassigned(cube_mesh, field, value):
    # A mesh is checked once, when it is built, so no field may change after.
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cube_mesh, field, value)
    assert not hasattr(TriangleMesh, "validate")


def test_normalize_shifted_cube():
    mesh = cube(extent=2.0, center=(1.0, 1.0, 1.0))
    normalized, transform = normalize_mesh(mesh)
    lo, hi = normalized.bounds()
    np.testing.assert_allclose(lo, [-0.5, -0.5, -0.5], atol=1e-12)
    np.testing.assert_allclose(hi, [0.5, 0.5, 0.5], atol=1e-12)
    assert transform.scale == pytest.approx(0.5)


def test_normalize_already_normalized_is_identity(cube_mesh):
    normalized, transform = normalize_mesh(cube_mesh)
    np.testing.assert_allclose(normalized.vertices, cube_mesh.vertices, atol=1e-9)
    assert transform.scale == pytest.approx(1.0)
    np.testing.assert_allclose(transform.translation, 0.0, atol=1e-9)


def test_normalize_elongated_box_uniform_scale():
    # 4 x 1 x 1 box: hand computation with one uniform factor 1/4.
    box = cube()
    verts = box.vertices * [4.0, 1.0, 1.0]
    mesh = TriangleMesh(verts, box.faces)
    normalized, _ = normalize_mesh(mesh)
    lo, hi = normalized.bounds()
    np.testing.assert_allclose(lo, [-0.5, -0.125, -0.125], atol=1e-12)
    np.testing.assert_allclose(hi, [0.5, 0.125, 0.125], atol=1e-12)


def test_normalize_idempotent(rng):
    for _ in range(5):
        verts = rng.uniform(-3, 7, size=(20, 3))
        faces = rng.integers(0, 20, size=(10, 3))
        faces = faces[
            (faces[:, 0] != faces[:, 1])
            & (faces[:, 1] != faces[:, 2])
            & (faces[:, 0] != faces[:, 2])
        ]
        if not len(faces):
            continue
        mesh = TriangleMesh(verts, faces)
        once, _ = normalize_mesh(mesh)
        twice, _ = normalize_mesh(once)
        np.testing.assert_allclose(once.vertices, twice.vertices, atol=1e-9)


def test_normalize_rejects_degenerate():
    with pytest.raises(MeshError):
        normalize_mesh(TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=int)))
    with pytest.raises(MeshError, match="zero-extent"):
        normalize_mesh(TriangleMesh(np.ones((3, 3)), [[0, 1, 2]]))


def test_face_normal_right_hand_rule():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    np.testing.assert_allclose(face_normals(mesh)[0], [0, 0, 1], atol=1e-15)


def test_face_normal_reversed_winding():
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 2, 1]])
    np.testing.assert_allclose(face_normals(mesh)[0], [0, 0, -1], atol=1e-15)


def test_face_normal_colinear_degenerate():
    # A zero-area face has no normal; the ray cast and the area sampler
    # never select it, so the attribute path never reads this zero.
    mesh = TriangleMesh([[0, 0, 0], [1, 0, 0], [2, 0, 0]], [[0, 1, 2]])
    np.testing.assert_array_equal(face_normals(mesh)[0], [0, 0, 0])
    batch = cast_rays(build_bvh(mesh), [[1.0, 0.0, 1.0]], [[0.0, 0.0, -1.0]], 1)
    assert batch.face.size == 0


def test_face_normal_bad_index(cube_mesh):
    with pytest.raises(IndexError):
        surface_attributes(cube_mesh, np.array([12]), np.zeros(1), np.zeros(1))


def test_face_normals_unit_outward_on_sphere():
    mesh = icosphere(2)
    normals = face_normals(mesh)
    np.testing.assert_allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-12)
    a, b, c = mesh.triangle_corners()
    centroids = (a + b + c) / 3
    outward = centroids / np.linalg.norm(centroids, axis=1, keepdims=True)
    assert np.all(np.sum(normals * outward, axis=1) > 0.5)


def test_rigid_transform_validation():
    with pytest.raises(ValueError, match="orthonormal"):
        RigidTransform(np.ones((3, 3)), np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(ValueError) as info:
        RigidTransform(reflection, np.zeros(3))
    assert str(info.value) == "rotation determinant must be +1, got -1"
    with pytest.raises(ValueError, match="scale"):
        RigidTransform(np.eye(3), np.zeros(3), scale=0.0)
    # Determinant 1 and within np.allclose's default rtol, but a stretch.
    stretch = np.diag([1.0 + 4e-6, 1.0 / (1.0 + 4e-6), 1.0])
    with pytest.raises(ValueError, match=r"orthonormal \(\|R R\^T - I\| reaches 8e-06\)"):
        RigidTransform(stretch, np.zeros(3))
    with pytest.raises(ValueError, match="orthonormal .* nan"):
        RigidTransform(np.full((3, 3), np.nan), np.zeros(3))
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError) as info:
            RigidTransform(np.eye(3), [0.0, value, 0.0])
        assert str(info.value) == f"non-finite translation [0.0, {value!r}, 0.0]"
    for scale in (np.nan, np.inf):
        with pytest.raises(ValueError) as info:
            RigidTransform(np.eye(3), np.zeros(3), scale=scale)
        assert str(info.value) == f"scale must be finite and positive, got {scale!r}"


def test_fixtures_wound_outward():
    for name, mesh in standard_suite().items():
        a, b, c = mesh.triangle_corners()
        signed_volume = np.sum(a * np.cross(b, c)) / 6.0
        assert signed_volume > 0, name
    mesh = torus(major_radius=0.32)
    a, b, c = mesh.triangle_corners()
    centroids = (a + b + c) / 3
    core = centroids * [1.0, 0.0, 1.0]  # nearest point of the core circle
    core *= 0.32 / np.linalg.norm(core, axis=1, keepdims=True)
    away = np.sum(face_normals(mesh) * (centroids - core), axis=1) > 0
    assert away.mean() >= 0.99
