import tracemalloc

import numpy as np
import pytest

from xray3d import mcubes
from xray3d.mcubes import _TRI_TABLE_ROWS, marching_cubes

# Bourke's numbering, written out here rather than read from the module:
# corners 0-3 ring the cube's lower z face, 4-7 its upper one, and edge e
# joins the two corners listed for it.
_CORNERS = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
            (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)]
_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
          (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7)]


def _reference_marching_cubes(values, iso, origin, spacing):
    """Oracle: visit the cells in C order, emit each table triangle with
    its winding reversed (along the gradient), interpolate an edge the
    first time a triangle uses it, weld by the key (i, j, k, axis) of the
    edge's lower node, number the vertices in key order, and drop
    triangles that repeat a vertex or whose cross product is zero. Also
    returns how many triangles were dropped."""
    nx, ny, nz = values.shape
    position, triangles = {}, []
    for i in range(nx - 1):
        for j in range(ny - 1):
            for k in range(nz - 1):
                nodes = [(i + dx, j + dy, k + dz) for dx, dy, dz in _CORNERS]
                config = sum(1 << bit for bit, node in enumerate(nodes) if values[node] < iso)
                row = _TRI_TABLE_ROWS[config]
                for t in range(0, len(row) - 2, 3):
                    keys = []
                    for e in row[t:t + 3]:
                        lo, hi = sorted(nodes[c] for c in _EDGES[e])
                        axis = [a != b for a, b in zip(lo, hi)].index(True)
                        key = lo + (axis,)
                        if key not in position:
                            v0, v1 = float(values[lo]), float(values[hi])
                            frac = 0.5 if abs(v1 - v0) < 1e-300 else (iso - v0) / (v1 - v0)
                            frac = min(max(frac, 0.0), 1.0)
                            position[key] = [
                                origin[a] + (lo[a] + (frac if a == axis else 0.0)) * spacing
                                for a in range(3)
                            ]
                        keys.append(key)
                    triangles.append((keys[0], keys[2], keys[1]))
    order = sorted(position)
    index = {key: n for n, key in enumerate(order)}
    faces = []
    for tri in triangles:
        a, b, c = (position[key] for key in tri)
        u = [b[n] - a[n] for n in range(3)]
        v = [c[n] - a[n] for n in range(3)]
        cross = (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])
        if len(set(tri)) == 3 and any(cross):
            faces.append([index[key] for key in tri])
    vertices = np.array([position[key] for key in order], dtype=np.float64).reshape(-1, 3)
    return vertices, np.array(faces, dtype=np.int64).reshape(-1, 3), len(triangles) - len(faces)


def _fields():
    rng = np.random.default_rng(14)
    cases = []
    for r in range(2, 13):  # cubic grids, integer values, iso on nodes and between them
        values = rng.integers(-2, 3, size=(r, r, r)).astype(np.float64)
        cases.append((f"int{r}", values, float(rng.integers(-1, 2))))
        cases.append((f"int{r}_half", values, 0.5))
    for shape in [(2, 7, 5), (9, 2, 4), (5, 6, 2), (3, 11, 8), (12, 4, 7)]:
        values = rng.integers(-3, 4, size=shape).astype(np.float64)
        cases.append((f"int{shape}", values, 0.0))
        cases.append((f"normal{shape}", rng.normal(size=shape), 0.1))
    # a sphere the grid boundary cuts, so crossings sit on the border edges
    g = np.arange(10.0)
    X, Y, Z = np.meshgrid(g, g, g[:7], indexing="ij")
    sphere = np.sqrt((X - 2) ** 2 + (Y - 8) ** 2 + (Z - 3) ** 2)
    cases.append(("sphere_cut", sphere, 4.0))
    cases.append(("sphere_cut_off_node", sphere, 4.3))
    cases.append(("all_inside", np.zeros((4, 3, 5)), 1.0))
    cases.append(("all_outside", np.zeros((4, 3, 5)), -1.0))
    return cases


_FIELDS = _fields()


@pytest.mark.parametrize("values, iso", [c[1:] for c in _FIELDS], ids=[c[0] for c in _FIELDS])
def test_marching_cubes_matches_cell_by_cell_oracle(values, iso):
    origin, spacing = np.array([-0.3, 0.25, 1.5]), 0.37
    got = marching_cubes(values, iso, origin, spacing)
    vertices, faces, _ = _reference_marching_cubes(values, iso, origin, spacing)
    assert got.vertices.shape == vertices.shape and got.vertices.tobytes() == vertices.tobytes()
    assert got.faces.dtype == np.int64 and np.array_equal(got.faces, faces)


@pytest.mark.parametrize("block", [1, 7])
def test_sliver_filter_block_edges(monkeypatch, block):
    """Blocks of 1 and 7 faces put block edges between every pair of
    faces and at uneven places, on the grids whose slivers are dropped;
    the faces must not change."""
    want = [marching_cubes(values, iso, np.zeros(3), 1.0) for _, values, iso in _FIELDS]
    monkeypatch.setattr(mcubes, "_FACE_BLOCK", block)
    for (name, values, iso), w in zip(_FIELDS, want):
        got = marching_cubes(values, iso, np.zeros(3), 1.0)
        assert np.array_equal(got.faces, w.faces), name
        assert got.vertices.tobytes() == w.vertices.tobytes(), name


def test_oracle_cases_cover_slivers_and_borders():
    """The grids above reach what the oracle is there for: iso levels on
    nodes whose zero-area slivers are dropped, and crossings on edges of
    the grid's border."""
    dropped = border = 0
    for _, values, iso in _FIELDS:
        vertices, _, n = _reference_marching_cubes(values, iso, np.zeros(3), 1.0)
        hi = np.array(values.shape) - 1
        border += np.count_nonzero(((vertices == 0) | (vertices == hi)).any(axis=1))
        dropped += n
    assert dropped > 0 and border > 0


def test_marching_cubes_memory_bounded():
    """The node pass holds at most 5 bytes per node (`inside`, the corner
    bits and one comparison mask, then `inside` and the 3-byte crossing
    mask) and frees them. The vertex pass holds about 19 float64 per
    vertex (indices, end values, steps, positions), and the sliver filter
    about 23 per face (face ids, three corner positions, two differences,
    their cross product and its squares); with two faces per vertex that
    is about 270 bytes per face, so 320 bounds it. Building the corner
    bits in int64 and gathering (cells x 16) int64 table rows, as a sort-
    based weld does, peaks at 104 MB here."""
    r = 128
    g = np.arange(r, dtype=np.float64) - (r - 1) / 2
    values = np.sqrt(g[:, None, None] ** 2 + g[:, None] ** 2 + g ** 2) - 60.0
    tracemalloc.start()
    try:
        mesh = marching_cubes(values, 0.0, np.zeros(3), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mesh.n_faces > 100_000
    assert peak <= 5 * values.size + 320 * mesh.n_faces
