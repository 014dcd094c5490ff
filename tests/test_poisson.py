import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from conftest import closed_two_manifold, euler_characteristic
from xray3d.codec import PointCloud
from xray3d.mcubes import marching_cubes
from xray3d.mesh import face_normals
from xray3d.poisson import (
    Field,
    GridSpec,
    PoissonError,
    SolverConvergenceError,
    _inverse_neg_laplacian,
    density_trim,
    divergence,
    extract_isosurface,
    reconstruct,
    solve_poisson,
    splat_normals,
)


def sphere_cloud(n=10000, radius=0.4, seed=0, inward=False):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    normals = -v if inward else v
    return PointCloud(radius * v, normals, np.ones((n, 3)))


def grid_node_positions(grid: GridSpec):
    idx = np.arange(grid.resolution)
    return grid.origin[0] + idx * grid.spacing


def test_splat_point_at_node_center():
    grid = GridSpec(16)
    coords = grid_node_positions(grid)
    target = np.array([coords[5], coords[8], coords[3]])
    pc = PointCloud([target], [[0, 0, 1.0]], [[1, 1, 1]])
    vec, den = splat_normals(pc, 16)
    np.testing.assert_allclose(vec.data[5, 8, 3], [0, 0, 1], atol=1e-12)
    assert den.data[5, 8, 3] == pytest.approx(1.0)
    assert den.data.sum() == pytest.approx(1.0)
    total = np.zeros(3)
    total[2] = vec.data[..., 2].sum()
    np.testing.assert_allclose(vec.data.sum(axis=(0, 1, 2)), [0, 0, 1], atol=1e-12)


def test_splat_point_at_cell_center_spreads_evenly():
    grid = GridSpec(16)
    coords = grid_node_positions(grid)
    center = np.array(
        [(coords[5] + coords[6]) / 2, (coords[8] + coords[9]) / 2, (coords[3] + coords[4]) / 2]
    )
    pc = PointCloud([center], [[0, 0, 1.0]], [[1, 1, 1]])
    vec, den = splat_normals(pc, 16)
    occupied = np.argwhere(den.data > 0)
    assert len(occupied) == 8
    np.testing.assert_allclose(den.data[den.data > 0], 0.125, atol=1e-12)
    np.testing.assert_allclose(vec.data[..., 2][den.data > 0], 0.125, atol=1e-12)


def test_splat_partition_of_unity(rng):
    n = 777
    pts = rng.uniform(-0.5, 0.5, size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    pc = PointCloud(pts, normals, np.ones((n, 3)))
    _, den = splat_normals(pc, 32)
    assert den.data.sum() == pytest.approx(n, abs=1e-6)



def _splat_by_scatter(pc: PointCloud, r: int):
    """Oracle: scatter each point's trilinear weights into its 8 nodes one
    corner at a time with np.add.at."""
    g = GridSpec(r).grid_coords(pc.positions)
    base = np.floor(g).astype(np.int64)
    frac = g - base
    vec, den = np.zeros((r, r, r, 3)), np.zeros((r, r, r))
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                w = np.ones(len(g))
                for a, d in enumerate((dx, dy, dz)):
                    w *= frac[:, a] if d else 1.0 - frac[:, a]
                node = (base[:, 0] + dx, base[:, 1] + dy, base[:, 2] + dz)
                np.add.at(den, node, w)
                np.add.at(vec, node, w[:, None] * pc.normals)
    return vec, den


@pytest.mark.parametrize("r", [2, 16, 64])
def test_splat_matches_scatter_oracle(r):
    rng = np.random.default_rng(r)
    grid = GridSpec(r)
    # the largest coordinate the splat accepts: just below the last node
    top = grid.origin[0] + (r - 1) * grid.spacing
    while np.floor(grid.grid_coords(np.full(3, top))).max() > r - 2:
        top = np.nextafter(top, -np.inf)
    node = grid.origin[0] + rng.integers(0, r - 1, size=(60, 3)) * grid.spacing
    positions = np.concatenate([
        grid.origin + rng.uniform(0.0, r - 1, size=(500, 3)) * grid.spacing,
        node,  # on node planes
        np.where(rng.random((60, 3)) < 0.5, top, node),  # on the upper boundary
    ])
    positions = positions[(np.floor(grid.grid_coords(positions)) <= r - 2).all(axis=1)]
    normals = rng.normal(size=positions.shape)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    pc = PointCloud(positions, normals, np.ones_like(positions))
    assert len(pc) >= 600 and (positions == top).any()
    vec, den = splat_normals(pc, r)
    want_vec, want_den = _splat_by_scatter(pc, r)
    for got, want in ((vec.data, want_vec), (den.data, want_den)):
        scale = np.abs(want).max()
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
    assert den.data.sum() == pytest.approx(len(pc), rel=1e-12)

def _map_world(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Oracle: scipy's order-1 spline at world points, each clamped to the
    node hull; node i sits at -0.6 + (i + 0.5) * 1.2 / R on every axis."""
    r = data.shape[0]
    g = np.clip((np.asarray(points) + 0.6) / (1.2 / r) - 0.5, 0.0, r - 1)
    return map_coordinates(data, g.T, order=1, mode="nearest")


@pytest.mark.parametrize("r", [2, 17, 64])
def test_trilinear_matches_map_coordinates(r):
    rng = np.random.default_rng(r)
    grid = GridSpec(r)
    data = rng.normal(size=(r, r, r))
    nodes = grid_node_positions(grid)
    points = np.concatenate([
        rng.uniform(nodes[0], nodes[-1], size=(500, 3)),  # inside the node hull
        rng.uniform(-1.0, 1.0, size=(500, 3)),  # mostly outside it
        nodes[rng.integers(0, r, size=(50, 3))],  # on nodes, hull faces included
    ])
    assert ((points < nodes[0]) | (points > nodes[-1])).any(axis=1).sum() > 100
    got = grid.trilinear(data, points)
    np.testing.assert_allclose(got, _map_world(data, points), rtol=0, atol=1e-12)


def test_extract_iso_level_is_sample_mean():
    # Samples off the zero set, so the iso level is far from 0 and set by
    # where the samples are, not by the field.
    rng = np.random.default_rng(8)
    directions = rng.normal(size=(3000, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    pc = PointCloud(rng.uniform(0.2, 0.45, size=(3000, 1)) * directions, directions,
                    np.ones((3000, 3)))
    grid = GridSpec(48)
    coords = grid_node_positions(grid)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    sdf = np.sqrt(X**2 + Y**2 + Z**2) - 0.4
    _, den = splat_normals(pc, 48)
    iso = _map_world(sdf, pc.positions).mean()
    assert iso < -0.05
    want = marching_cubes(sdf, iso, grid.origin, grid.spacing)
    got = extract_isosurface(Field(grid, sdf), den)
    np.testing.assert_array_equal(got.faces, want.faces)
    np.testing.assert_allclose(got.vertices, want.vertices, rtol=0, atol=1e-12)


def test_splat_rejects_outside_domain():
    pc = PointCloud([[0.9, 0.0, 0.0]], [[1.0, 0, 0]], [[1, 1, 1]])
    with pytest.raises(PoissonError, match="outside"):
        splat_normals(pc, 16)


def test_splat_rejects_empty():
    empty = PointCloud(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(PoissonError, match="empty"):
        splat_normals(empty, 16)


def test_field_accepts_scalar_or_vector_grids_only():
    grid = GridSpec(4)
    Field(grid, np.zeros((4, 4, 4)))
    Field(grid, np.zeros((4, 4, 4, 3)))
    for shape in ((4, 4, 5), (4, 4, 4, 2), (64,)):
        with pytest.raises(ValueError, match="expected shape"):
            Field(grid, np.zeros(shape))


def test_divergence_constant_field_zero():
    grid = GridSpec(12)
    vec = VectorLike = np.ones((12, 12, 12, 3))
    f = divergence(Field(grid, vec))
    np.testing.assert_allclose(f.data[1:-1, 1:-1, 1:-1], 0.0, atol=1e-12)


def test_divergence_linear_field_unit():
    grid = GridSpec(12)
    idx = np.arange(12, dtype=np.float64)
    x = np.broadcast_to(idx[:, None, None], (12, 12, 12))
    vec = np.zeros((12, 12, 12, 3))
    vec[..., 0] = x
    f = divergence(Field(grid, vec))
    np.testing.assert_allclose(f.data[1:-1, 1:-1, 1:-1], 1.0, atol=1e-12)


def test_divergence_solenoidal_zero():
    grid = GridSpec(12)
    idx = np.arange(12, dtype=np.float64)
    x = np.broadcast_to(idx[:, None, None], (12, 12, 12))
    y = np.broadcast_to(idx[None, :, None], (12, 12, 12))
    vec = np.zeros((12, 12, 12, 3))
    vec[..., 0] = -y
    vec[..., 1] = x
    f = divergence(Field(grid, vec))
    np.testing.assert_allclose(f.data[1:-1, 1:-1, 1:-1], 0.0, atol=1e-12)



@pytest.mark.parametrize("r", [2, 3, 17, 64])
def test_divergence_equals_gradient_sum(r):
    vec = np.random.default_rng(r).normal(size=(r, r, r, 3))
    vec[0, 0, 0] = -0.0
    want = sum(np.gradient(vec[..., a], axis=a) for a in range(3))
    got = divergence(Field(GridSpec(r), vec)).data
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

def test_solve_zero_source_gives_zero():
    grid = GridSpec(16)
    phi, info = solve_poisson(Field(grid, np.zeros((16, 16, 16))))
    assert info.converged and info.iterations == 0
    assert not phi.data.any()


def _discrete_neg_lap(x):
    out = 6.0 * x
    out[1:] -= x[:-1]
    out[:-1] -= x[1:]
    out[:, 1:] -= x[:, :-1]
    out[:, :-1] -= x[:, 1:]
    out[:, :, 1:] -= x[:, :, :-1]
    out[:, :, :-1] -= x[:, :, 1:]
    return out


def test_solve_recovers_manufactured_discrete_solution(rng):
    # f chosen as the exact discrete operator applied to a known field,
    # so the solver must reproduce that field to its tolerance.
    grid = GridSpec(24)
    coords = grid_node_positions(grid)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    k = np.pi / 1.2
    phi_star = np.cos(k * X) * np.cos(k * Y) * np.cos(k * Z)
    f = -_discrete_neg_lap(phi_star)  # (lap phi*) in grid units
    phi, info = solve_poisson(Field(grid, f), tol=1e-9)
    assert info.converged
    err = np.abs(phi.data - phi_star).max()
    assert err <= 1e-6 * np.abs(phi_star).max()


def test_solve_residual_history_non_increasing():
    grid = GridSpec(24)
    rng = np.random.default_rng(5)
    f = rng.normal(size=(24, 24, 24))
    phi, info = solve_poisson(Field(grid, f), tol=1e-8)
    h = info.residual_history
    assert np.all(h[1:] <= h[:-1] + 1e-15)
    assert info.relative_residual <= 1e-8


@pytest.mark.parametrize("r", [2, 3, 17, 48])
def test_preconditioner_inverts_discrete_laplacian(r):
    b = np.random.default_rng(r).normal(size=(r, r, r))
    recovered = _discrete_neg_lap(_inverse_neg_laplacian(b))
    assert np.linalg.norm(recovered - b) <= 1e-12 * np.linalg.norm(b)


def test_unscreened_solve_takes_one_iteration():
    grid = GridSpec(32)
    f = np.random.default_rng(3).normal(size=(32, 32, 32))
    phi, info = solve_poisson(Field(grid, f), tol=1e-12)
    assert info.converged and info.iterations == 1
    residual = np.linalg.norm(_discrete_neg_lap(phi.data) + f)
    assert residual <= 1e-12 * np.linalg.norm(f)


def test_screened_solve_true_residual_within_tol():
    pc = sphere_cloud(2000)
    vec, den = splat_normals(pc, 32)
    f = divergence(vec)
    tol = 1e-8
    # 34 iterations with conjugate directions; without them (steepest
    # descent on the same preconditioner) it takes over 140.
    phi, info = solve_poisson(f, 4.0, den, tol=tol, max_iter=60)
    assert info.converged and info.iterations > 1
    residual = _discrete_neg_lap(phi.data) + 4.0 * den.data * phi.data + f.data
    assert np.linalg.norm(residual) <= tol * np.linalg.norm(f.data)


def test_solve_non_convergence_reported_not_raised():
    # Screened, so the solve is iterative: the preconditioner alone
    # inverts the unscreened operator in one step.
    grid = GridSpec(24)
    rng = np.random.default_rng(6)
    f = rng.normal(size=(24, 24, 24))
    density = Field(grid, rng.uniform(size=(24, 24, 24)))
    phi, info = solve_poisson(Field(grid, f), 1.0, density, tol=1e-12, max_iter=3)
    assert not info.converged
    assert info.iterations == 3
    assert info.relative_residual > 1e-12


def test_solve_convergence_improves_with_resolution():
    # Fixed smooth target with analytic source; error drops as the grid
    # refines (max-norm).
    def run(res):
        grid = GridSpec(res)
        coords = grid_node_positions(grid)
        X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
        k = np.pi / 1.2
        phi_star = np.cos(k * X) * np.cos(k * Y) * np.cos(k * Z)
        f = -3.0 * k**2 * phi_star * grid.spacing**2
        phi, info = solve_poisson(Field(grid, f), tol=1e-8)
        assert info.converged
        return np.abs(phi.data - phi_star).max()

    assert run(64) < run(32)


def test_screening_shrinks_solution_at_samples():
    pc = sphere_cloud(2000)
    vec, den = splat_normals(pc, 32)
    f = divergence(vec)
    phi0, _ = solve_poisson(f, 0.0, den)
    phi1, _ = solve_poisson(f, 50.0, den)
    a0 = np.abs(phi0.grid.trilinear(phi0.data, pc.positions)).mean()
    a1 = np.abs(phi1.grid.trilinear(phi1.data, pc.positions)).mean()
    assert a1 < a0


def test_extract_sphere_sdf():
    grid = GridSpec(64)
    coords = grid_node_positions(grid)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    sdf = np.sqrt(X**2 + Y**2 + Z**2) - 0.4
    pc = sphere_cloud(4000)
    _, den = splat_normals(pc, 64)
    mesh = extract_isosurface(Field(grid, sdf), den)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 0.4).max() <= 2 * (1.2 / 64)
    assert closed_two_manifold(mesh)
    assert euler_characteristic(mesh) == 2
    # outward orientation along the gradient of the SDF
    outward = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
    a, b, c = mesh.triangle_corners()
    centroids = (a + b + c) / 3
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    assert np.mean(np.sum(face_normals(mesh) * centroids, axis=1) > 0) > 0.99


def test_extract_constant_field_degenerate():
    grid = GridSpec(16)
    with pytest.raises(PoissonError, match="iso"):
        flat = Field(grid, np.ones((16, 16, 16)))
        extract_isosurface(flat, flat)


def test_extract_rejects_mismatched_density_grid():
    grid = GridSpec(64)
    coords = grid_node_positions(grid)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    sdf = np.sqrt(X**2 + Y**2 + Z**2) - 0.4
    pc = sphere_cloud(4000)
    _, den = splat_normals(pc, 32)
    with pytest.raises(ValueError, match="density and potential grids do not match"):
        extract_isosurface(Field(grid, sdf), den)


@pytest.mark.parametrize("kind", ["sdf", "neg_sdf", "smooth"])
def test_marching_cubes_winds_along_gradient(kind):
    # Grid units (origin 0, spacing 1), so face centroids are fractional
    # node coordinates and np.gradient is the gradient in those units.
    r = 33
    X, Y, Z = np.meshgrid(*3 * [np.arange(r, dtype=np.float64)], indexing="ij")
    radius = np.sqrt((X - 16) ** 2 + (Y - 16) ** 2 + (Z - 16) ** 2)
    values = {
        "sdf": radius - 10.0,
        "neg_sdf": 10.0 - radius,
        "smooth": np.sin(0.3 * X) * np.cos(0.2 * Y) + np.sin(0.25 * Z + 0.1 * X),
    }[kind]
    mesh = marching_cubes(values, 0.1, np.zeros(3), 1.0)
    assert mesh.n_faces > 500
    a, b, c = mesh.triangle_corners()
    centroids = (a + b + c) / 3
    grad = np.stack(
        [map_coordinates(g, centroids.T, order=1) for g in np.gradient(values)], axis=1
    )
    assert np.mean(np.sum(face_normals(mesh) * grad, axis=1) > 0) >= 0.99


def test_density_trim_noop_and_empty(cube_mesh):
    d = np.full(cube_mesh.n_vertices, 2.0)
    same = density_trim(cube_mesh, d, 0.0)
    assert same is cube_mesh
    empty = density_trim(cube_mesh, d, 3.0)
    assert empty.is_empty


def _connected_components(mesh) -> int:
    parent = list(range(mesh.n_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for f in mesh.faces:
        ra, rb, rc = find(f[0]), find(f[1]), find(f[2])
        parent[rb] = ra
        parent[rc] = ra
    used = {find(v) for f in mesh.faces for v in f}
    return len(used)


def test_density_trim_removes_low_density_component():
    # Sphere plus a far outlier blob; the blob carries almost no sample
    # density, so trimming at 1% of the peak removes that component.
    from xray3d.fixtures import icosphere
    from xray3d.mesh import TriangleMesh

    sphere = icosphere(2, 0.4)
    blob = icosphere(1, 0.05)
    mesh = TriangleMesh(
        np.vstack([sphere.vertices, blob.vertices + 0.55]),
        np.vstack([sphere.faces, blob.faces + sphere.n_vertices]),
    )
    densities = np.concatenate(
        [np.full(sphere.n_vertices, 1.0), np.full(blob.n_vertices, 0.001)]
    )
    assert _connected_components(mesh) == 2
    trimmed = density_trim(mesh, densities, 0.01 * densities.max())
    assert _connected_components(trimmed) == 1
    assert trimmed.n_faces == sphere.n_faces
    assert np.linalg.norm(trimmed.vertices, axis=1).max() < 0.5


def test_density_trim_removes_closure_over_missing_data():
    # Upper hemisphere only: the solve closes the bottom smoothly, and
    # those closure vertices carry near-zero sample density.
    pc = sphere_cloud(8000)
    keep = pc.positions[:, 1] > 0
    hemi = PointCloud(pc.positions[keep], pc.normals[keep], pc.colors[keep])
    vec, den = splat_normals(hemi, 48)
    f = divergence(vec)
    phi, info = solve_poisson(f, 0.0, den)
    assert info.converged
    mesh = extract_isosurface(phi, den)
    dens = phi.grid.trilinear(den.data, mesh.vertices)
    assert closed_two_manifold(mesh)
    assert mesh.vertices[:, 1].min() < -0.1  # closure lid below the equator
    trimmed = density_trim(mesh, dens, 0.01 * dens.max())
    assert 0 < trimmed.n_faces < mesh.n_faces
    assert trimmed.vertices[:, 1].min() > -0.05  # closure removed


@pytest.mark.parametrize("fraction", [0.01, 0.1])
def test_reconstruct_trim_equals_trim_of_untrimmed(fraction):
    pc = sphere_cloud(8000)
    keep = pc.positions[:, 1] > 0
    hemi = PointCloud(pc.positions[keep], pc.normals[keep], pc.colors[keep])
    full = reconstruct(hemi, 48)
    _, den = _splat_by_scatter(hemi, 48)
    dens = _map_world(den, full.vertices)
    trim = fraction * dens.max()
    want = density_trim(full, dens, trim)
    assert 0 < want.n_faces < full.n_faces
    got = reconstruct(hemi, 48, trim=trim)
    np.testing.assert_array_equal(got.faces, want.faces)
    np.testing.assert_array_equal(got.vertices, want.vertices)


def test_reconstruct_sphere_radial_accuracy():
    mesh = reconstruct(sphere_cloud(), 64)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 0.4).max() <= 2 * (1.2 / 64)
    assert closed_two_manifold(mesh)


def test_reconstruct_inward_normals_flip_orientation():
    out_mesh = reconstruct(sphere_cloud(4000), 48)
    in_mesh = reconstruct(sphere_cloud(4000, inward=True), 48)

    def outward_score(mesh):
        a, b, c = mesh.triangle_corners()
        centroids = (a + b + c) / 3
        centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
        return np.mean(np.sum(face_normals(mesh) * centroids, axis=1))

    assert outward_score(out_mesh) > 0.5
    assert outward_score(in_mesh) < -0.5


def test_reconstruct_empty_cloud_errors():
    empty = PointCloud(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)))
    with pytest.raises(PoissonError):
        reconstruct(empty, 32)


def test_reconstruct_raises_on_stalled_solver():
    with pytest.raises(SolverConvergenceError):
        reconstruct(sphere_cloud(2000), 48, screening=4.0, tol=1e-14, max_iter=2)


def test_reconstruct_rotation_equivariance():
    pc = sphere_cloud(3000, seed=2)
    bump = pc.positions * (1 + 0.15 * np.sign(pc.positions[:, :1]))  # break symmetry
    bump = np.clip(bump, -0.52, 0.52)
    normals = pc.normals
    base = PointCloud(bump, normals, pc.colors)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rotated = PointCloud(bump @ rot.T, normals @ rot.T, pc.colors)

    mesh_a = reconstruct(base, 32)
    mesh_b = reconstruct(rotated, 32)
    want = mesh_a.vertices @ rot.T
    from scipy.spatial import cKDTree

    d, _ = cKDTree(mesh_b.vertices).query(want)
    assert d.max() < 1e-6
