import math
import tracemalloc

import numpy as np
import pytest

from xray3d import raycast
from xray3d.camera import Camera, camera_from_spherical, generate_rays, look_at, sample_view_angles
from xray3d.fixtures import cube
from xray3d.mesh import MeshError, TriangleMesh, normalize_mesh, surface_attributes
from xray3d.raycast import EPS_DUP, EPS_MIN, build_bvh, cast_rays

EVERY_HIT = 1 << 20  # a cap no test ray reaches


def brute_force_hits(mesh, origin, direction):
    """Independent all-triangle oracle with the same accept/merge rules."""
    v0, v1, v2 = (mesh.vertices[mesh.faces[:, k]] for k in range(3))
    e1, e2 = v1 - v0, v2 - v0
    pvec = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, pvec)
    nonparallel = np.abs(det) > 1e-12
    det = np.where(nonparallel, det, 1.0)
    s = origin - v0
    u = np.einsum("ij,ij->i", s, pvec) / det
    qvec = np.cross(s, e1)
    w = qvec @ direction / det
    t = np.einsum("ij,ij->i", e2, qvec) / det
    accept = nonparallel & (u >= 0.0) & (w >= 0.0) & (u + w <= 1.0) & (t > EPS_MIN)
    faces = np.nonzero(accept)[0]
    order = np.lexsort((faces, t[faces]))
    merged = []
    for t_hit, fi in zip(t[faces][order], faces[order]):
        if merged and t_hit - merged[-1][0] < EPS_DUP:
            continue
        merged.append((float(t_hit), int(fi)))
    return merged


def _cast_one(mesh, origin, direction=(0.0, 0.0, -1.0)):
    """All hits of one ray, nearest first."""
    return cast_rays(build_bvh(mesh), np.array([origin]), np.array([direction]), EVERY_HIT)


def test_cube_central_ray_two_hits(cube_mesh):
    hits = _cast_one(cube_mesh, [0.0, 0.0, 1.2])
    assert len(hits.depth) == 2
    assert hits.depth[0] == pytest.approx(0.7, abs=1e-12)
    assert hits.depth[1] == pytest.approx(1.7, abs=1e-12)


def test_miss_returns_empty(cube_mesh):
    assert _cast_one(cube_mesh, [5.0, 5.0, 5.0]).depth.size == 0


def test_stacked_cubes_four_increasing_hits():
    lower = cube()
    upper = cube(center=(0.0, 0.0, -1.5))  # gap of 0.5 between z=-0.5 and z=-1.0
    mesh = TriangleMesh(
        np.vstack([lower.vertices, upper.vertices]),
        np.vstack([lower.faces, upper.faces + lower.n_vertices]),
    )
    depths = _cast_one(mesh, [0.0, 0.0, 1.2]).depth
    np.testing.assert_allclose(depths, [0.7, 1.7, 2.2, 3.2], atol=1e-12)
    assert all(b > a for a, b in zip(depths, depths[1:]))


def test_single_triangle_hit_and_miss():
    mesh = TriangleMesh([[-1, -1, 0], [1, -1, 0], [0, 1, 0]], [[0, 1, 2]])
    hit = _cast_one(mesh, [0, 0, 1.0])
    assert len(hit.depth) == 1 and hit.depth[0] == pytest.approx(1.0)
    assert _cast_one(mesh, [2, 2, 1.0]).depth.size == 0


def _repeated_triangle(n):
    """n copies of one triangle: every face's box centre coincides."""
    return TriangleMesh([[-1, -1, 0.2], [1, -0.5, -0.3], [0, 1, 0.1]], np.tile([0, 1, 2], (n, 1)))


def _scattered_triangles(n):
    rng = np.random.default_rng(n)
    centres = rng.uniform(-1.0, 1.0, size=(n, 1, 3))
    corners = centres + 0.2 * rng.normal(size=(n, 3, 3))
    return TriangleMesh(corners.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))


def _flat_rays(camera):
    """A camera's rays as (N, 3) origins and unit directions."""
    directions = generate_rays(camera).reshape(-1, 3)
    return np.broadcast_to(camera.position, directions.shape), directions


def _pinhole_grids():
    """Flattened ray grids of a sampled view, of a camera inside the cube,
    sphere and torus (in the torus's tube), and of a non-square frame."""
    # At (0.3, 0.02, 0.01), facing along (0, -0.42, 0.89) with +y up.
    c, s = np.array([0.89, 0.42]) / math.hypot(0.89, 0.42)
    straddle = np.array([[-1.0, 0, 0, 0.3], [0, c, s, 0.02], [0, s, -c, 0.01], [0, 0, 0, 1]])
    (azimuth,), (elevation,) = sample_view_angles(7, 1)
    cameras = [
        camera_from_spherical(azimuth, elevation, width=24, height=24),
        Camera(20, 20, 2.6, straddle),
        Camera(37, 11, 1.1, look_at((0.5, 1.3, 0.8))),
    ]
    return [_flat_rays(camera) for camera in cameras]


@pytest.mark.parametrize(
    "mesh_name", ["cube", "sphere", "torus", "coincident", "nested", "single"]
)
def test_bvh_equals_brute_force(
    mesh_name, rng, sphere_mesh, cube_mesh, torus_mesh, nested_mesh
):
    mesh = {
        "cube": cube_mesh,
        "sphere": sphere_mesh,
        "torus": torus_mesh,
        "coincident": _repeated_triangle(80),
        "nested": nested_mesh,  # inner wall shell wound inward
        "single": _repeated_triangle(1),  # the root node is a leaf
    }[mesh_name]
    accel = build_bvh(mesh)
    origins = rng.uniform(-1.5, 1.5, size=(1000, 3))
    directions = rng.normal(size=(1000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    for origins, directions in [(origins, directions), *_pinhole_grids()]:
        n = len(origins)
        batch = cast_rays(accel, origins, directions, EVERY_HIT)
        offsets = np.searchsorted(batch.ray, np.arange(n + 1))
        for i in range(n):
            got = [
                (batch.depth[k], batch.face[k]) for k in range(offsets[i], offsets[i + 1])
            ]
            expected = brute_force_hits(mesh, origins[i], directions[i])
            assert len(got) == len(expected)
            assert batch.layer[offsets[i]:offsets[i + 1]].tolist() == list(range(len(got)))
            for (gt, gf), (et, ef) in zip(got, expected):
                assert gt == pytest.approx(et, abs=1e-9)
                assert gf == ef


def test_depths_strictly_increasing(sphere_mesh, rng):
    accel = build_bvh(sphere_mesh)
    origins = rng.uniform(-1.0, 1.0, size=(500, 3))
    directions = rng.normal(size=(500, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    batch = cast_rays(accel, origins, directions, EVERY_HIT)
    same_ray = batch.ray[1:] == batch.ray[:-1]
    assert np.all(batch.depth[1:][same_ray] > batch.depth[:-1][same_ray])


@pytest.mark.parametrize("fixture", ["cube", "sphere"])
def test_even_parity_from_outside(fixture, rng, cube_mesh, sphere_mesh):
    mesh = cube_mesh if fixture == "cube" else sphere_mesh
    accel = build_bvh(mesh)
    n = 400
    # origins outside the unit-extent meshes, rays toward the interior
    origins = rng.normal(size=(n, 3))
    origins = 2.0 * origins / np.linalg.norm(origins, axis=1, keepdims=True)
    targets = rng.uniform(-0.2, 0.2, size=(n, 3))
    directions = targets - origins
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    batch = cast_rays(accel, origins, directions, EVERY_HIT)
    offsets = np.searchsorted(batch.ray, np.arange(n + 1))
    checked = 0
    for i in range(n):
        sel = slice(offsets[i], offsets[i + 1])
        bary_min = np.minimum(
            np.minimum(batch.bary_u[sel], batch.bary_v[sel]),
            1.0 - batch.bary_u[sel] - batch.bary_v[sel],
        )
        if len(bary_min) and bary_min.min() < 1e-4:
            continue  # edge-grazing rays excluded
        assert (offsets[i + 1] - offsets[i]) % 2 == 0
        checked += 1
    assert checked > n // 2


def test_translation_equivariance(sphere_mesh, rng):
    offset = np.array([0.37, -1.2, 0.81])
    moved = TriangleMesh(sphere_mesh.vertices + offset, sphere_mesh.faces)
    a1 = build_bvh(sphere_mesh)
    a2 = build_bvh(moved)
    origins = rng.uniform(-1.0, 1.0, size=(200, 3))
    directions = rng.normal(size=(200, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    b1 = cast_rays(a1, origins, directions, EVERY_HIT)
    b2 = cast_rays(a2, origins + offset, directions, EVERY_HIT)
    assert len(b1.depth) == len(b2.depth)
    np.testing.assert_array_equal(b1.ray, b2.ray)
    np.testing.assert_allclose(b1.depth, b2.depth, atol=1e-9)


def test_hit_record_invariants(sphere_mesh, rng):
    accel = build_bvh(sphere_mesh)
    origins = 2.0 * rng.normal(size=(20, 3))
    origins /= np.linalg.norm(origins, axis=1, keepdims=True) / 2.0
    directions = -origins / np.linalg.norm(origins, axis=1, keepdims=True)
    hits = cast_rays(accel, origins, directions, EVERY_HIT)
    assert hits.depth.size
    position = origins[hits.ray] + hits.depth[:, None] * directions[hits.ray]
    w0, w1, w2 = 1.0 - hits.bary_u - hits.bary_v, hits.bary_u, hits.bary_v
    np.testing.assert_allclose(w0 + w1 + w2, 1.0, atol=1e-9)
    corners = sphere_mesh.vertices[sphere_mesh.faces[hits.face]]
    recon = w0[:, None] * corners[:, 0] + w1[:, None] * corners[:, 1] + w2[:, None] * corners[:, 2]
    np.testing.assert_allclose(recon, position, atol=1e-6)


def test_surface_attributes_axis_face(cube_mesh):
    hits = _cast_one(cube_mesh, [0.0, 0.0, 1.2])
    normal, color = surface_attributes(cube_mesh, hits.face, hits.bary_u, hits.bary_v)
    assert hits.depth[0] == pytest.approx(0.7)
    np.testing.assert_allclose(normal[0], [0, 0, 1], atol=1e-12)
    np.testing.assert_allclose(color[0], [1, 1, 1])  # colorless default
    np.testing.assert_allclose(normal[1], [0, 0, -1], atol=1e-12)


def test_surface_attributes_barycentric_color():
    mesh = TriangleMesh(
        [[-1, -1, 0], [1, -1, 0], [0, 1, 0]],
        [[0, 1, 2]],
        vertex_colors=[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    )
    centroid = mesh.vertices.mean(axis=0)
    hits = _cast_one(mesh, centroid + [0, 0, 1.0])
    assert len(hits.face) == 1
    _, color = surface_attributes(mesh, hits.face, hits.bary_u, hits.bary_v)
    np.testing.assert_allclose(color[0], [1 / 3, 1 / 3, 1 / 3], atol=1e-9)


@pytest.mark.parametrize("max_hits", [0, -3])
def test_cast_rejects_a_cap_below_one(cube_mesh, max_hits):
    with pytest.raises(ValueError, match=f"max_hits must be at least 1, got {max_hits}$"):
        cast_rays(build_bvh(cube_mesh), [[0.0, 0.0, 1.2]], [[0.0, 0.0, -1.0]], max_hits)


def test_duplicate_edge_hits_merged():
    # Two triangles sharing the diagonal of a square: a ray through the
    # shared edge must yield one record, not two.
    mesh = TriangleMesh(
        [[-1, -1, 0], [1, -1, 0], [1, 1, 0], [-1, 1, 0]],
        [[0, 1, 2], [0, 2, 3]],
    )
    assert len(_cast_one(mesh, [0.0, 0.0, 1.0]).depth) == 1


def test_concurrent_casting_over_shared_accel(sphere_mesh, rng):
    from concurrent.futures import ThreadPoolExecutor

    accel = build_bvh(sphere_mesh)
    origins = rng.uniform(-1.0, 1.0, size=(400, 3))
    directions = rng.normal(size=(400, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    serial = cast_rays(accel, origins, directions, EVERY_HIT)
    chunks = [(origins[i::4], directions[i::4]) for i in range(4)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda c: cast_rays(accel, *c, EVERY_HIT), chunks))
    total = sum(len(r.depth) for r in results)
    assert total == len(serial.depth)
    for i, r in enumerate(results):
        own = serial.ray % 4 == i
        np.testing.assert_allclose(np.sort(r.depth), np.sort(serial.depth[own]))


def test_empty_mesh_rejected():
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=int))
    with pytest.raises(MeshError):
        build_bvh(empty)


@pytest.mark.parametrize("n_faces", [1, 5, 65, "sphere"])
def test_bvh_leaf_sizes(n_faces, sphere_mesh):
    mesh = sphere_mesh if n_faces == "sphere" else _scattered_triangles(n_faces)
    accel = build_bvh(mesh)
    n_inner = (1 << accel.depth) - 1
    assert accel.leaf_bounds.shape == (n_inner + 2,)
    leaves = np.diff(accel.leaf_bounds)
    assert leaves.min() >= 1 and leaves.max() <= 4
    assert leaves.sum() == mesh.n_faces
    order = np.sort(accel.tri_order)
    np.testing.assert_array_equal(order, np.arange(mesh.n_faces))

    lo, hi = accel.node_min.T, accel.node_max.T
    assert len(lo) == 2 * n_inner + 1
    for node in range(n_inner):
        for child in (2 * node + 1, 2 * node + 2):
            assert np.all(lo[node] <= lo[child]) and np.all(hi[child] <= hi[node])
    for k, (start, stop) in enumerate(zip(accel.leaf_bounds[:-1], accel.leaf_bounds[1:])):
        node = n_inner + k
        corners = mesh.vertices[mesh.faces[accel.tri_order[start:stop]]].reshape(-1, 3)
        assert np.all(lo[node] <= corners) and np.all(corners <= hi[node])


def _with_square_stack(mesh):
    """The mesh plus 70 parallel squares at x in [2, 4], y in [-1, 1]
    (beside every fixture), each split along its (2, -1)-(4, 1) diagonal."""
    verts, faces = [], []
    for k in range(70):
        z = -0.05 * k
        base = mesh.n_vertices + 4 * k
        verts += [[2, -1, z], [4, -1, z], [4, 1, z], [2, 1, z]]
        faces += [[base, base + 1, base + 2], [base, base + 2, base + 3]]
    return TriangleMesh(np.vstack([mesh.vertices, verts]), np.vstack([mesh.faces, faces]))


@pytest.mark.parametrize("extra", [0, 1], ids=["exact_multiple", "one_more"])
@pytest.mark.parametrize("block", [1, 7, 64, raycast._RAY_CHUNK, "over"])
@pytest.mark.parametrize("mesh_name", ["torus", "nested", "sphere"])
def test_cast_across_chunks_matches_one_chunk(
    mesh_name, block, extra, torus_mesh, nested_mesh, sphere_mesh, monkeypatch
):
    mesh = {"torus": torus_mesh, "nested": nested_mesh, "sphere": sphere_mesh}[mesh_name]
    accel = build_bvh(_with_square_stack(mesh))
    block_rays = 600 if block == "over" else block * max(1, 512 // block)
    n = block_rays + extra
    side = max(64, int(np.ceil(np.sqrt(n))))
    camera = Camera(side, side, 1.2, look_at((0.4, 0.9, 0.7)))
    spread = np.linspace(0, side * side - 1, n).astype(np.int64)
    origins, directions = (a[spread] for a in _flat_rays(camera))
    # Rays next to block edges cross the stack: 70 squares, one merged
    # record each. Even ones run along the shared diagonals.
    size = n + 1 if block == "over" else block
    edges = list(range(size, n, size))
    stack_rays = sorted({0, n - 1} | {i for e in edges[:2] + edges[-2:] for i in (e - 1, e)})
    for k, i in enumerate(stack_rays):
        origins[i] = (3.0, 0.0, 1.0) if k % 2 == 0 else (3.1, 0.3, 1.0)
        directions[i] = (0.0, 0.0, -1.0)

    monkeypatch.setattr(raycast, "_RAY_CHUNK", n + 1)
    every = cast_rays(accel, origins, directions, EVERY_HIT)
    offsets = np.searchsorted(every.ray, np.arange(n + 1))
    assert np.setdiff1d(every.ray, stack_rays).size > n // 10
    for i in stack_rays:
        depth = every.depth[offsets[i]:offsets[i + 1]]
        assert depth.size == 70 and np.all(np.diff(depth) > EPS_DUP)
    for max_hits in (1, 3, 64):
        monkeypatch.setattr(raycast, "_RAY_CHUNK", n + 1)
        whole = cast_rays(accel, origins, directions, max_hits)
        nearest = every.layer < max_hits
        for name in ("ray", "depth", "face", "bary_u", "bary_v", "layer"):
            assert getattr(whole, name).tobytes() == getattr(every, name)[nearest].tobytes(), name
        for i in stack_rays:
            assert whole.layer[whole.ray == i].tolist() == list(range(max_hits))
        monkeypatch.setattr(raycast, "_RAY_CHUNK", size)
        chunked = cast_rays(accel, origins, directions, max_hits)
        for name in ("ray", "depth", "face", "bary_u", "bary_v", "layer"):
            a, b = getattr(whole, name), getattr(chunked, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (max_hits, name)


def test_cast_of_no_rays(torus_mesh):
    empty = cast_rays(build_bvh(torus_mesh), np.empty((0, 3)), np.empty((0, 3)), EVERY_HIT)
    for name, dtype in (("ray", np.int64), ("depth", np.float64), ("face", np.int64),
                        ("bary_u", np.float64), ("bary_v", np.float64), ("layer", np.int64)):
        array = getattr(empty, name)
        assert array.shape == (0,) and array.dtype == dtype, name


def test_cast_memory_bounded_by_block(nested_mesh):
    """A cast holds its result twice (the blocks' columns, then their
    concatenation) plus the working set of one block. That set is about 4
    (ray, triangle) candidates per ray for this view, each with about 34
    float64 kernel temporaries, so 1 KiB per block ray bounds it. Casting
    all 262,144 rays as one block peaks at 327 MB for 13 MB of hits."""
    mesh, _ = normalize_mesh(nested_mesh)
    accel = build_bvh(mesh)
    origins, directions = _flat_rays(camera_from_spherical(30.0, 20.0, width=512, height=512))
    tracemalloc.start()
    try:
        batch = cast_rays(accel, origins, directions, EVERY_HIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out_bytes = sum(getattr(batch, name).nbytes
                    for name in ("ray", "depth", "face", "bary_u", "bary_v", "layer"))
    assert out_bytes > 10e6
    assert peak <= 2 * out_bytes + 1024 * raycast._RAY_CHUNK
