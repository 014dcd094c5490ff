"""Marching cubes over a regular scalar grid (Lorensen & Cline, "Marching
cubes", SIGGRAPH 1987), with cube corners and edges in Bourke's numbering
("Polygonising a scalar field", 1994).

Vertices are interpolated on cell edges, welded through global edge ids
so the output is a closed surface wound along the gradient wherever the
iso level does not touch the grid boundary. The triangles of each of the
256 corner configurations follow from one rule, applied at import:
1. On each cube face, seen from outside, each run of corners below iso
   is cut off by a segment from the face edge before the run to the edge
   after it, counter-clockwise. The two below-iso corners of an ambiguous
   face stay apart.
2. The segments chain into loops, each wound along the gradient.
3. Each loop is fanned from its first vertex whose diagonals all cross
   the cell's interior: a neighbouring cell's triangles may also lie on a
   cube face, so no diagonal joins two edges of one face.
The loops and triangle counts are those of the classic table; the
triangles of loops with 4 or more vertices may differ.

The vertices are the crossing edges (those whose two nodes lie on
different sides of the iso level) in edge-id order, listed by one scan
of a per-edge mask; each triangle corner finds its vertex by binary
search. Besides the grid, the extraction holds a few bytes per node (the
inside mask, the corner bits, the crossing mask) and per-cell arrays only
for the cells the surface passes through.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

# Cube corners, Bourke numbering: p0..p3 ring at k, p4..p7 ring at k+1.
_CORNER_OFFSETS = np.array(
    [
        (0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
        (0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1),
    ],
    dtype=np.int64,
)
# Edge e joins corners _EDGE_CORNERS[e]: e0..e3 ring p0..p3, e4..e7 ring
# p4..p7, e8..e11 join the rings.
_EDGE_CORNERS = ((0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6),
                 (6, 7), (7, 4), (0, 4), (1, 5), (2, 6), (3, 7))
# Edge e -> (base corner offset, axis): the edge runs one step along
# +axis from the base grid node.
_EDGE_BASE = np.column_stack([
    _CORNER_OFFSETS[list(_EDGE_CORNERS)].min(axis=1),
    np.argmax(np.ptp(_CORNER_OFFSETS[list(_EDGE_CORNERS)], axis=1), axis=1),
])
# Cube faces, corners counter-clockwise seen from outside.
_FACES = ((0, 3, 2, 1), (4, 5, 6, 7), (0, 1, 5, 4), (1, 2, 6, 5), (2, 3, 7, 6), (3, 0, 4, 7))
_EDGE_OF = {pair: e for e, (a, b) in enumerate(_EDGE_CORNERS) for pair in ((a, b), (b, a))}
_EDGE_FACES = [{f for f, face in enumerate(_FACES) if {a, b} <= set(face)} for a, b in _EDGE_CORNERS]


def _cell_triangles(config: int) -> list[int]:
    """Edge ids, three per triangle, of the surface in a cell whose
    below-iso corners are the set bits of `config`, wound along the
    gradient (steps 1-3 of the module docstring)."""
    below = [config >> c & 1 for c in range(8)]
    after = {}  # each crossing edge -> the next edge of its loop
    for face in _FACES:
        for i in range(4):
            if below[face[i]] and not below[face[i - 1]]:  # a run starts at face[i]
                j = i
                while below[face[(j + 1) % 4]]:
                    j += 1
                after[_EDGE_OF[face[i - 1], face[i]]] = _EDGE_OF[face[j % 4], face[(j + 1) % 4]]
    triangles = []
    while after:
        loop = [min(after)]
        while (e := after.pop(loop[-1])) != loop[0]:
            loop.append(e)
        n = len(loop)
        # the apex: no diagonal from it joins two edges of one cube face
        k = next(k for k in range(n) if not any(
            _EDGE_FACES[loop[k]] & _EDGE_FACES[loop[(k + d) % n]] for d in range(2, n - 1)))
        loop = loop[k:] + loop[:k]
        triangles += [e for b in range(1, n - 1) for e in (loop[0], loop[b], loop[b + 1])]
    return triangles


# Triangle edges per configuration, -1 padded, and the count of edges used.
_TRI_TABLE = np.array([(_cell_triangles(c) + [-1] * 16)[:16] for c in range(256)], dtype=np.int8)
_TRI_COUNT = np.count_nonzero(_TRI_TABLE >= 0, axis=1)


# Faces per block of the sliver filter, whose corner positions,
# differences and cross products take about 23 float64 a face: 12 MB a
# block, where filtering the 263,000 faces of a 128^3 sphere at once held
# 48 MB.
_FACE_BLOCK = 1 << 16


def _crossing_edges(inside: np.ndarray) -> np.ndarray:
    """Ids 3 * node + axis, ascending, of the grid edges whose two nodes
    differ in `inside` (node is the flat index of the edge's lower end)."""
    crossing = np.zeros(inside.shape + (3,), dtype=bool)
    np.not_equal(inside[1:], inside[:-1], out=crossing[:-1, :, :, 0])
    np.not_equal(inside[:, 1:], inside[:, :-1], out=crossing[:, :-1, :, 1])
    np.not_equal(inside[:, :, 1:], inside[:, :, :-1], out=crossing[:, :, :-1, 2])
    return np.flatnonzero(crossing)


def _corner_edges(inside: np.ndarray) -> np.ndarray:
    """Edge id of every table-triangle corner, cell by cell in C order."""
    nx, ny, nz = inside.shape
    # Cell (i, j, k)'s corner bits, stored at its lowest node so that a
    # cell's flat index is its node's; the last node of each axis has no
    # cell and keeps 0.
    config = np.zeros(inside.shape, dtype=np.uint8)
    bits = inside.view(np.uint8)
    for bit, (dx, dy, dz) in enumerate(_CORNER_OFFSETS):
        config[:-1, :-1, :-1] |= bits[dx:dx + nx - 1, dy:dy + ny - 1, dz:dz + nz - 1] << bit
    cell = np.flatnonzero((config > 0) & (config < 255))
    cfg = config.ravel()[cell]
    # local edge e of the cell at node c is edge 3 * c + offset[e]
    di, dj, dk, axis = _EDGE_BASE.T
    offset = 3 * ((di * ny + dj) * nz + dk) + axis
    rows = _TRI_TABLE[cfg]                   # (n_cells, 16) local edges, -1 padded
    return np.repeat(3 * cell, _TRI_COUNT[cfg]) + offset[rows[rows >= 0]]


def _edge_vertices(values: np.ndarray, iso: float, edge_ids: np.ndarray,
                   origin: np.ndarray, spacing: float) -> np.ndarray:
    """Where the iso level crosses each edge (ids as in _crossing_edges),
    by linear interpolation between the edge's two nodes."""
    nx, ny, nz = values.shape
    gi = edge_ids // 3 // nz // ny
    gj = (edge_ids // 3 // nz) % ny
    gk = (edge_ids // 3) % nz
    axis = edge_ids % 3

    v0 = values[gi, gj, gk]
    step = np.zeros((len(edge_ids), 3), dtype=np.int64)
    step[np.arange(len(edge_ids)), axis] = 1
    v1 = values[gi + step[:, 0], gj + step[:, 1], gk + step[:, 2]]
    denom = v1 - v0
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (iso - v0) / denom
    frac = np.where(np.abs(denom) < 1e-300, 0.5, frac)
    frac = np.clip(frac, 0.0, 1.0)

    node = np.stack([gi, gj, gk], axis=1).astype(np.float64)
    return np.asarray(origin, dtype=np.float64) + (node + frac[:, None] * step) * spacing


def marching_cubes(
    values: np.ndarray,
    iso: float,
    origin: np.ndarray,
    spacing: float,
) -> TriangleMesh:
    """Extract the iso-surface of a node-centered scalar grid.

    values[i, j, k] is the sample at origin + (i, j, k) * spacing.
    Vertices land on grid-cell edges by linear interpolation; shared
    edges reuse one welded vertex, so closed level sets give closed
    two-manifold meshes. Every face's right-hand normal points from the
    values below iso toward the values above it (along the gradient).
    Vertices come in crossing-edge order: by the flat index of the
    edge's lower node, then by the edge's axis.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 3 or min(values.shape) < 2:
        raise ValueError("need a 3D grid with at least 2 nodes per axis")
    inside = values < iso

    # A table triangle uses exactly the crossing edges of its cell, so the
    # crossing edges, in id order, are the welded vertices, and each
    # triangle corner finds its vertex by binary search.
    unique_ids = _crossing_edges(inside)
    if unique_ids.size == 0:
        return TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=np.int64))
    face_vertex = np.searchsorted(unique_ids, _corner_edges(inside))
    del inside

    verts = _edge_vertices(values, iso, unique_ids, origin, spacing)
    faces = face_vertex.reshape(-1, 3)

    # Drop zero-area slivers where the iso level passes exactly through
    # grid nodes and two edge vertices coincide, a block of faces at a time.
    keep = np.empty(len(faces), dtype=bool)
    for lo in range(0, len(faces), _FACE_BLOCK):
        block = faces[lo:lo + _FACE_BLOCK]
        a, b, c = verts[block[:, 0]], verts[block[:, 1]], verts[block[:, 2]]
        area2 = np.linalg.norm(np.cross(b - a, c - a), axis=1)
        i, j, k = block.T
        keep[lo:lo + _FACE_BLOCK] = (i != j) & (j != k) & (i != k) & (area2 > 0)
    return TriangleMesh(verts, faces[keep])
