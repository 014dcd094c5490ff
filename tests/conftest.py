import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from xray3d.fixtures import cube, icosphere, nested_cubes, torus


@pytest.fixture
def cube_mesh():
    return cube()


@pytest.fixture
def colored_cube():
    return cube(colored=True)


@pytest.fixture(scope="session")
def sphere_mesh():
    return icosphere(3)


@pytest.fixture(scope="session")
def torus_mesh():
    return torus()


@pytest.fixture(scope="session")
def nested_mesh():
    return nested_cubes()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def closed_two_manifold(mesh) -> bool:
    """Every edge shared by exactly two faces."""
    counts: dict[tuple[int, int], int] = {}
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    return bool(counts) and all(c == 2 for c in counts.values())


def components(mesh) -> int:
    """Connected components of the faces: the shells of a closed mesh.
    Two faces are connected when they share a vertex; vertices that no
    face uses are not counted."""
    faces = np.asarray(mesh.faces)
    used, index = np.unique(faces, return_inverse=True)
    ring = index.reshape(faces.shape)
    starts, ends = ring.ravel(), np.roll(ring, 1, axis=1).ravel()
    graph = coo_matrix((np.ones(starts.size), (starts, ends)), shape=(used.size, used.size))
    return int(connected_components(graph, directed=False)[0])


def euler_characteristic(mesh) -> int:
    edges = set()
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            edges.add((min(a, b), max(a, b)))
    return mesh.n_vertices - len(edges) + mesh.n_faces


def box_surface_distance(points: np.ndarray, half_extent: float) -> np.ndarray:
    """Unsigned distance from points to the surface of an origin-centered
    axis-aligned cube with the given half extent."""
    q = np.abs(points) - half_extent
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=1)
    inside = np.minimum(q.max(axis=1), 0.0)
    return np.abs(outside + inside)
