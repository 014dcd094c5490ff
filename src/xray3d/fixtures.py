"""Procedural test meshes: cube, icosphere, torus, nested cube-in-cube.

These ship in place of downloaded datasets so sweeps and tests run
offline. All meshes are watertight, CCW-wound with outward normals.
"""

from __future__ import annotations

import numpy as np

from .mesh import TriangleMesh

# 12 CCW triangles of the axis-aligned unit cube, outward-facing.
_CUBE_CORNERS = np.array(
    [
        [-1, -1, -1],
        [+1, -1, -1],
        [+1, +1, -1],
        [-1, +1, -1],
        [-1, -1, +1],
        [+1, -1, +1],
        [+1, +1, +1],
        [-1, +1, +1],
    ],
    dtype=np.float64,
)

_CUBE_FACES = np.array(
    [
        [0, 2, 1], [0, 3, 2],  # -z
        [4, 5, 6], [4, 6, 7],  # +z
        [0, 1, 5], [0, 5, 4],  # -y
        [2, 3, 7], [2, 7, 6],  # +y
        [1, 2, 6], [1, 6, 5],  # +x
        [3, 0, 4], [3, 4, 7],  # -x
    ],
    dtype=np.int64,
)


def cube(extent: float = 1.0, center=(0.0, 0.0, 0.0), colored: bool = False) -> TriangleMesh:
    """Axis-aligned cube with the given edge length."""
    verts = _CUBE_CORNERS * (extent / 2.0) + np.asarray(center, dtype=np.float64)
    colors = None
    if colored:
        colors = (_CUBE_CORNERS + 1.0) / 2.0
    return TriangleMesh(verts, _CUBE_FACES.copy(), vertex_colors=colors)


def _flip_faces(faces: np.ndarray) -> np.ndarray:
    flipped = faces.copy()
    flipped[:, [1, 2]] = flipped[:, [2, 1]]
    return flipped


def nested_cubes(
    outer_extent: float = 1.0,
    wall: float = 0.05,
    inner_extent: float = 0.5,
) -> TriangleMesh:
    """Hollow thick-walled box with a smaller solid cube sealed inside.

    The wall's inner shell faces into the cavity, so a central ray meets
    two wall surfaces before reaching the hidden inner cube. Used to
    exercise multi-layer capture of interior geometry.
    """
    if not (inner_extent < outer_extent - 2 * wall):
        raise ValueError("inner cube must fit inside the wall cavity")
    shells = [
        (outer_extent, _CUBE_FACES),
        (outer_extent - 2 * wall, _flip_faces(_CUBE_FACES)),
        (inner_extent, _CUBE_FACES),
    ]
    verts, faces = [], []
    offset = 0
    for extent, f in shells:
        verts.append(_CUBE_CORNERS * (extent / 2.0))
        faces.append(f + offset)
        offset += len(_CUBE_CORNERS)
    return TriangleMesh(np.vstack(verts), np.vstack(faces))


def icosphere(subdivisions: int = 3, radius: float = 0.5, colored: bool = False) -> TriangleMesh:
    """Subdivided icosahedron projected onto a sphere."""
    t = (1.0 + np.sqrt(5.0)) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )

    for _ in range(subdivisions):
        edge_mid: dict[tuple[int, int], int] = {}
        vert_list = list(verts)

        def midpoint(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in edge_mid:
                m = vert_list[i] + vert_list[j]
                m = m / np.linalg.norm(m)
                edge_mid[key] = len(vert_list)
                vert_list.append(m)
            return edge_mid[key]

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
        verts = np.array(vert_list)
        faces = np.array(new_faces, dtype=np.int64)

    verts = verts * radius
    colors = (verts / (2 * radius) + 0.5) if colored else None
    return TriangleMesh(verts, faces, vertex_colors=colors)


def torus(
    major_radius: float = 0.32,
    minor_radius: float = 0.14,
    major_segments: int = 48,
    minor_segments: int = 24,
) -> TriangleMesh:
    """Ring torus in the xz-plane (tube axis along y), wound outward:
    each quad steps around the tube (v), then around the ring (u), so its
    normal dP/dv x dP/du points away from the core circle."""
    u = np.linspace(0, 2 * np.pi, major_segments, endpoint=False)
    v = np.linspace(0, 2 * np.pi, minor_segments, endpoint=False)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    ring = major_radius + minor_radius * np.cos(vv)
    verts = np.stack(
        [ring * np.cos(uu), minor_radius * np.sin(vv), ring * np.sin(uu)], axis=-1
    ).reshape(-1, 3)

    faces = []
    for i in range(major_segments):
        for j in range(minor_segments):
            a = i * minor_segments + j
            b = i * minor_segments + (j + 1) % minor_segments
            c = ((i + 1) % major_segments) * minor_segments + (j + 1) % minor_segments
            d = ((i + 1) % major_segments) * minor_segments + j
            faces.append([a, b, c])
            faces.append([a, c, d])
    return TriangleMesh(verts, np.array(faces, dtype=np.int64))


def standard_suite() -> dict[str, TriangleMesh]:
    """The four sweep fixtures, keyed by name."""
    return {
        "cube": cube(),
        "icosphere": icosphere(3),
        "torus": torus(),
        "nested_cubes": nested_cubes(),
    }
