import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import map_coordinates

from conftest import closed_two_manifold, components, euler_characteristic
from xray3d import poisson
from xray3d.camera import DEFAULT_FOV_X, camera_from_spherical, sample_view_angles
from xray3d.codec import PointCloud, decode_to_pointcloud, encode
from xray3d.fixtures import standard_suite
from xray3d.mcubes import marching_cubes
from xray3d.mesh import face_normals, normalize_mesh
from xray3d.metrics import sample_surface
from xray3d.poisson import (
    Field,
    GridSpec,
    PoissonError,
    SolverConvergenceError,
    _inverse_neg_laplacian,
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


def _stencil_8n(r: int, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference: the (8, N) flat node ids and trilinear weights of node
    coordinates g in [0, r - 1]^3 as whole arrays; row k is the corner
    offset by the bits of k, x highest."""
    base = np.minimum(np.floor(g), r - 2).astype(np.int64)
    frac = g - base
    bit = np.arange(2)
    corner = (bit[:, None, None] * r + bit[:, None]) * r + bit
    nodes = corner.reshape(8, 1) + (base[:, 0] * r + base[:, 1]) * r + base[:, 2]
    wx, wy, wz = (np.array([1.0 - frac[:, a], frac[:, a]]) for a in range(3))
    return nodes, ((wx[:, None, None] * wy[:, None]) * wz).reshape(8, -1)


def _splat_by_bincount(pc: PointCloud, r: int):
    """Reference: one np.bincount per normal component and one for the
    density over the (8, N) stencil."""
    nodes, weights = _stencil_8n(r, GridSpec(r).grid_coords(pc.positions))
    nodes = nodes.ravel()
    n = r**3
    vec = np.stack([
        np.bincount(nodes, weights=(weights * pc.normals[:, a]).ravel(), minlength=n)
        for a in range(3)
    ], axis=-1)
    den = np.bincount(nodes, weights=weights.ravel(), minlength=n)
    return vec.reshape(r, r, r, 3), den.reshape(r, r, r)


@pytest.mark.parametrize("r", [2, 17, 64, 128])
def test_splat_is_bitwise_the_bincount_splat(r, nested_mesh):
    """Adding corner by corner gives every node the bincount's terms in the
    bincount's order, so the sums agree to the bit."""
    mesh, _ = normalize_mesh(nested_mesh)
    pc = sample_surface(mesh, 20_000, seed=r)
    if r == 2:  # every sample in the one cell, none on the upper hull
        pc = PointCloud(np.clip(pc.positions, -0.29, 0.29), pc.normals, pc.colors)
    vec, den = splat_normals(pc, r)
    want_vec, want_den = _splat_by_bincount(pc, r)
    assert vec.data.tobytes() == want_vec.tobytes()
    assert den.data.tobytes() == want_den.tobytes()


def _map_world(data: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Oracle: scipy's order-1 spline at world points, each clamped to the
    node hull; node i sits at -0.6 + (i + 0.5) * 1.2 / R on every axis."""
    r = data.shape[0]
    g = np.clip((np.asarray(points) + 0.6) / (1.2 / r) - 0.5, 0.0, r - 1)
    return map_coordinates(data, g.T, order=1, mode="nearest")


def _parked(den: Field) -> tuple[np.ndarray, np.ndarray]:
    """A splat density as reconstruct parks it for extraction: its nonzero
    flat node indices and their values."""
    nodes = np.flatnonzero(den.data)
    return nodes, den.data.reshape(-1)[nodes]


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
    got = extract_isosurface(Field(grid, sdf), *_parked(den))
    np.testing.assert_array_equal(got.faces, want.faces)
    np.testing.assert_allclose(got.vertices, want.vertices, rtol=0, atol=1e-12)


def test_splat_rejects_outside_domain():
    pc = PointCloud([[0.9, 0.0, 0.0]], [[1.0, 0, 0]], [[1, 1, 1]])
    with pytest.raises(PoissonError, match="outside"):
        splat_normals(pc, 16)


def test_splat_domain_error_states_the_node_hull():
    # At R = 2 the nodes sit at -0.3 and 0.3, and a point splats only if
    # every coordinate lies in [-0.3, 0.3): the first point is on the
    # hull's lower face, the second just past its upper face.
    pc = PointCloud([[-0.3, 0.0, 0.0], [0.3, 0.0, 0.0]], [[1.0, 0, 0]] * 2, [[1, 1, 1]] * 2)
    with pytest.raises(PoissonError) as info:
        splat_normals(pc, 2)
    assert str(info.value) == (
        f"point outside the splat domain (e.g. {np.array([0.3, 0.0, 0.0])}); "
        "at resolution 2 the nodes cover [-0.3, 0.3)^3"
    )
    splat_normals(PointCloud(pc.positions[:1], pc.normals[:1], pc.colors[:1]), 2)


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

@pytest.mark.parametrize("planes", [1, 2, 5])
def test_divergence_slabs_equal_gradient_sum(monkeypatch, planes):
    """Slabs of 1, 2 and 5 planes put slab edges everywhere, unevenly."""
    r = 17
    monkeypatch.setattr(poisson, "_SLAB_NODES", planes * r * r)
    vec = np.random.default_rng(planes).normal(size=(r, r, r, 3))
    want = sum(np.gradient(vec[..., a], axis=a) for a in range(3))
    got = divergence(Field(GridSpec(r), vec)).data
    assert got.tobytes() == want.tobytes()


def test_reconstruct_same_with_one_plane_slabs(monkeypatch):
    pc = sphere_cloud(3000, seed=4)
    want, _ = reconstruct(pc, 24)
    monkeypatch.setattr(poisson, "_SLAB_NODES", 1)
    got, _ = reconstruct(pc, 24)
    assert got.vertices.tobytes() == want.vertices.tobytes()
    assert np.array_equal(got.faces, want.faces)


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cloud_80k(nested_mesh):
    """80,000 seeded surface samples of the nested cubes."""
    mesh, _ = normalize_mesh(nested_mesh)
    return sample_surface(mesh, 80_000, seed=0)


@pytest.fixture(scope="module")
def fields_128(cloud_80k):
    """Density, normalised vector field, source and potential at 128^3 for
    cloud_80k, and the bytes of one float64 grid."""
    r = 128
    vec, den = splat_normals(cloud_80k, r)
    vec.data[...] /= np.maximum(den.data, 1e-12)[..., None]
    f = divergence(vec)
    phi, _ = solve_poisson(f)
    return vec, den, f, phi, 8 * r**3


def test_splat_memory_budget(cloud_80k):
    """The splat holds the vector field (3 grids) and the density (1) it
    returns, and adds into them in place: no whole-grid bincount result.
    Per point it holds the stencil one corner at a time: the fractional
    coordinates (24 B), the base node (8), the three new axis weights
    (24), the two latest corners' nodes and weights (32), a pair weight
    and one weighted normal component (16). That is about 104 B (96
    measured), so 128 B bounds it. Bincounting an (8, N) stencil per
    component holds 4 grids and 217 B per point, and 5 grids when the
    density is counted first."""
    r = 128
    _, peak = _traced_peak(lambda: splat_normals(cloud_80k, r))
    assert peak <= 4 * 8 * r**3 + 128 * len(cloud_80k)


def test_reconstruct_memory_budget(cloud_80k):
    """No phase of a reconstruction holds more than 4 grids:
    the splat holds the field and the density, the divergence the field
    and f (the density is parked as its nonzero nodes), the solve f and
    its own 2, and extraction the potential and under 2 of its own. On
    top come two slabs of the slab-wise passes and a per-point term of
    128 B: the splat's stencil (about 104 B) or the parked density (16 B
    per nonzero node, 3.1 nodes per sample here). Keeping the density
    whole beside the divergence and the solve, with (8, N) stencils in
    the splat and a density trim, held 5.95 grids."""
    r = 128
    (mesh, _), peak = _traced_peak(lambda: reconstruct(cloud_80k, r))
    assert mesh.n_faces > 100_000
    assert peak <= 4 * 8 * r**3 + 2 * 8 * poisson._SLAB_NODES + 128 * len(cloud_80k)


def test_reconstruct_extraction_phase_budget(monkeypatch, cloud_80k):
    """From the moment reconstruct enters extraction, it holds phi, the
    parked density (about 50 B per sample here) and marching cubes' under
    2 grids: at most 3 grids and 128 B per point (3.05 grids measured).
    Rebuilding the density as a grid for extraction holds 4.05."""
    r = 128
    extract, peaks = poisson.extract_isosurface, []

    def traced(*args):
        tracemalloc.reset_peak()
        mesh = extract(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])
        return mesh

    monkeypatch.setattr(poisson, "extract_isosurface", traced)
    (mesh, _), _ = _traced_peak(lambda: reconstruct(cloud_80k, r))
    assert mesh.n_faces > 200_000 and len(peaks) == 1
    assert peaks[0] <= 3 * 8 * r**3 + 128 * len(cloud_80k)


def test_divergence_memory_budget(fields_128):
    """The divergence keeps f, one grid. A slab of planes holds one
    difference at a time, and numpy halves it in place, so the two slab
    temporaries allowed here (_SLAB_NODES float64 each, a quarter grid at
    128^3) are slack: 1 + 2 / 4 = 1.5 grids. Differencing the whole grid
    at once holds 2.0."""
    vec, _, _, _, grid = fields_128
    _, peak = _traced_peak(lambda: divergence(vec))
    assert peak <= grid + 2 * 8 * poisson._SLAB_NODES
    assert peak <= 1.5 * grid


def test_solve_memory_budget(fields_128):
    """The solve holds phi, the copy of -f that the inverse transforms in
    place, and one work buffer that the sine transforms and then the
    residual's operator write into: 2 grids of its own, 3 with the
    caller's f. The sine matrix and the per-plane eigenvalue divisors are
    R^2 arrays, 1/128 of a grid each here, so 2.5 grids leaves room for
    dozens of them. A conjugate-gradient loop around the same inverse,
    with its residual and search direction, holds 3.02."""
    _, _, f, _, grid = fields_128
    (phi, info), peak = _traced_peak(lambda: solve_poisson(f))
    assert info.converged and info.iterations == 1
    assert peak <= 2.5 * grid


def test_extract_memory_budget(fields_128):
    """Marching cubes holds at most 5 B per node in its node pass, about
    100 B per face in its vertex pass (3 int64 vertex ids per face and
    19 float64 per vertex, at about 2 faces per vertex) and one block of
    the sliver filter (23 float64 per face, _FACE_BLOCK faces). With
    281,092 faces that is 10.5 + 28.1 + 12.1 MB, 3.0 grids of 16.8 MB.
    Filtering every face at once holds 4.96 grids."""
    from xray3d import mcubes

    _, den, _, phi, grid = fields_128
    nodes, weights = _parked(den)
    mesh, peak = _traced_peak(lambda: extract_isosurface(phi, nodes, weights))
    assert mesh.n_faces > 200_000
    assert peak <= 5 * den.data.size + 100 * mesh.n_faces + 23 * 8 * mcubes._FACE_BLOCK
    assert peak <= 3.0 * grid


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
    phi, info = solve_poisson(Field(grid, f))
    assert info.relative_residual <= 1e-9
    err = np.abs(phi.data - phi_star).max()
    assert err <= 1e-6 * np.abs(phi_star).max()


@pytest.mark.parametrize("r", [2, 3, 17, 48])
def test_preconditioner_inverts_discrete_laplacian(r):
    b = np.random.default_rng(r).normal(size=(r, r, r))
    recovered = _discrete_neg_lap(_inverse_neg_laplacian(b.copy(), np.empty_like(b)))
    assert np.linalg.norm(recovered - b) <= 1e-12 * np.linalg.norm(b)


def test_unscreened_solve_takes_one_iteration():
    grid = GridSpec(32)
    f = np.random.default_rng(3).normal(size=(32, 32, 32))
    phi, info = solve_poisson(Field(grid, f))
    assert info.relative_residual <= 1e-12 and info.iterations == 1
    residual = np.linalg.norm(_discrete_neg_lap(phi.data) + f)
    assert residual <= 1e-12 * np.linalg.norm(f)


def test_solve_does_not_depend_on_memory_layout():
    # The sine transforms reshape their buffers in place, so a source in
    # Fortran order must still give the C-order source's solution.
    grid = GridSpec(16)
    f = np.random.default_rng(3).normal(size=(16, 16, 16))
    want, _ = solve_poisson(Field(grid, f))
    got, info = solve_poisson(Field(grid, np.asfortranarray(f)))
    assert info.converged
    np.testing.assert_array_equal(got.data, want.data)


def test_solve_non_convergence_reported_not_raised(monkeypatch):
    # The direct solve is exact up to rounding (about 1e-15 relative), so
    # a tolerance below rounding is missed, and the miss is only reported.
    monkeypatch.setattr(poisson, "_SOLVE_TOL", 1e-16)
    grid = GridSpec(24)
    f = np.random.default_rng(6).normal(size=(24, 24, 24))
    phi, info = solve_poisson(Field(grid, f))
    assert not info.converged
    assert info.iterations == 1
    assert info.relative_residual > 1e-16


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_solve_names_a_non_finite_source_node(value):
    f = np.random.default_rng(5).normal(size=(8, 8, 8))
    f[2, 5, 7] = value
    with pytest.raises(ValueError, match=rf"not finite: node \(2, 5, 7\) is {value}$"):
        solve_poisson(Field(GridSpec(8), f))


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
        phi, info = solve_poisson(Field(grid, f))
        assert info.relative_residual <= 1e-8
        return np.abs(phi.data - phi_star).max()

    assert run(64) < run(32)


def test_extract_sphere_sdf():
    grid = GridSpec(64)
    coords = grid_node_positions(grid)
    X, Y, Z = np.meshgrid(coords, coords, coords, indexing="ij")
    sdf = np.sqrt(X**2 + Y**2 + Z**2) - 0.4
    pc = sphere_cloud(4000)
    _, den = splat_normals(pc, 64)
    mesh = extract_isosurface(Field(grid, sdf), *_parked(den))
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
        extract_isosurface(flat, *_parked(flat))


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


def test_reconstruct_sphere_radial_accuracy():
    mesh, info = reconstruct(sphere_cloud(), 64)
    assert info.converged and info.iterations == 1
    radii = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(radii - 0.4).max() <= 2 * (1.2 / 64)
    assert closed_two_manifold(mesh)


def test_reconstruct_inward_normals_flip_orientation():
    out_mesh, _ = reconstruct(sphere_cloud(4000), 48)
    in_mesh, _ = reconstruct(sphere_cloud(4000, inward=True), 48)

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


def test_reconstruct_raises_on_stalled_solver(monkeypatch):
    # A tolerance below rounding: the solve's residual misses it.
    monkeypatch.setattr(poisson, "_SOLVE_TOL", 1e-16)
    with pytest.raises(SolverConvergenceError, match="missed its tolerance: .* above 1e-16$"):
        reconstruct(sphere_cloud(2000), 48)


def test_reconstruct_rotation_equivariance():
    pc = sphere_cloud(3000, seed=2)
    bump = pc.positions * (1 + 0.15 * np.sign(pc.positions[:, :1]))  # break symmetry
    bump = np.clip(bump, -0.52, 0.52)
    normals = pc.normals
    base = PointCloud(bump, normals, pc.colors)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rotated = PointCloud(bump @ rot.T, normals @ rot.T, pc.colors)

    mesh_a, _ = reconstruct(base, 32)
    mesh_b, _ = reconstruct(rotated, 32)
    want = mesh_a.vertices @ rot.T
    from scipy.spatial import cKDTree

    d, _ = cKDTree(mesh_b.vertices).query(want)
    assert d.max() < 1e-6


@pytest.mark.parametrize("name", sorted(standard_suite()))
def test_default_resolution_keeps_every_shell(name):
    """At the default resolution each fixture, encoded from the sweep's
    two views (256^2, 12 layers), comes back with as many shells as it
    was built with. Chamfer cannot see this: a finer grid outresolves the
    hits and joins the nested cubes' cavity wall to their outer wall."""
    mesh = normalize_mesh(standard_suite()[name])[0]
    shells = 3 if name == "nested_cubes" else 1
    for az, el in zip(*sample_view_angles(0, 2)):
        camera = camera_from_spherical(az, el, width=256, height=256, fov_x=DEFAULT_FOV_X)
        cloud = decode_to_pointcloud(encode(mesh, camera, 12), frame="world")
        recon, _ = reconstruct(cloud)
        assert components(recon) == shells, (az, el)
