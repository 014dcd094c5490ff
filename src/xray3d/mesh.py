"""Triangle mesh container, normalization, and per-face geometry."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (bad indices, degenerate faces, empty input)."""


@dataclass(frozen=True)
class RigidTransform:
    """Uniform-scale rigid map p -> scale * (rotation @ p) + translation."""

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        rot = np.asarray(self.rotation, dtype=np.float64).reshape(3, 3)
        tr = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", _frozen(rot))
        object.__setattr__(self, "translation", _frozen(tr))
        error = np.abs(rot @ rot.T - np.eye(3)).max()
        if not error <= 1e-9:  # also rejects nan
            raise ValueError(f"rotation block is not orthonormal (|R R^T - I| reaches {error:.3g})")
        det = np.linalg.det(rot)
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"rotation determinant must be +1, got {det:.6g}")
        if not self.scale > 0:
            raise ValueError("scale must be positive")

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=np.float64)
        return self.scale * (pts @ self.rotation.T) + self.translation

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3), 1.0)


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only view of arr (of the caller's own array when it is
    already contiguous), so the caller's array keeps its write flag."""
    arr = np.ascontiguousarray(arr).view()
    arr.setflags(write=False)
    return arr


def _ramp(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., size-1 for each run of `sizes`, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


@dataclass
class TriangleMesh:
    """Indexed triangle soup with optional per-vertex colors.

    Arrays are frozen after construction; all operations return new meshes.
    Colors are RGB in [0, 1]. Faces must index valid vertices and use three
    distinct indices each. A mesh carries no normals: its surface normal is
    the winding-defined face normal (face_normals).
    """

    vertices: np.ndarray
    faces: np.ndarray
    vertex_colors: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = _frozen(np.asarray(self.vertices, dtype=np.float64).reshape(-1, 3))
        self.faces = _frozen(np.asarray(self.faces, dtype=np.int64).reshape(-1, 3))
        if self.vertex_colors is not None:
            self.vertex_colors = _frozen(
                np.asarray(self.vertex_colors, dtype=np.float64).reshape(-1, 3)
            )
        self.validate()

    def validate(self) -> None:
        if not np.all(np.isfinite(self.vertices)):
            i, k = np.argwhere(~np.isfinite(self.vertices))[0]
            raise MeshError(f"non-finite vertex coordinate {self.vertices[i, k]!s} at vertex {i}")
        if self.faces.size:
            if self.faces.min() < 0 or self.faces.max() >= len(self.vertices):
                raise MeshError(
                    f"face index out of range (max {self.faces.max()}, "
                    f"{len(self.vertices)} vertices)"
                )
            f = self.faces
            repeated = (f[:, 0] == f[:, 1]) | (f[:, 1] == f[:, 2]) | (f[:, 0] == f[:, 2])
            if repeated.any():
                i = np.argmax(repeated)
                raise MeshError(f"degenerate face {i} with repeated vertex index {f[i].tolist()}")
        colors = self.vertex_colors
        if colors is not None:
            if len(colors) != len(self.vertices):
                raise MeshError("vertex_colors length does not match vertex count")
            if colors.size and (colors.min() < -1e-9 or colors.max() > 1 + 1e-9):
                i, k = np.argwhere((colors < -1e-9) | (colors > 1 + 1e-9))[0]
                raise MeshError(f"vertex colors must lie in [0, 1], got {colors[i, k]!s} "
                                f"at vertex {i}")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def is_empty(self) -> bool:
        return len(self.vertices) == 0 or len(self.faces) == 0

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        if self.n_vertices == 0:
            raise MeshError("empty mesh has no bounds")
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def transformed(self, transform: RigidTransform) -> "TriangleMesh":
        return TriangleMesh(transform.apply(self.vertices), self.faces, self.vertex_colors)

    def triangle_corners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        v = self.vertices
        return v[self.faces[:, 0]], v[self.faces[:, 1]], v[self.faces[:, 2]]


def _unit_normals(cross: np.ndarray) -> np.ndarray:
    """Unit vectors along (n, 3) face cross products `(b - a) x (c - a)`;
    zero for a zero-area face. The one normal formula of the package."""
    lengths = np.linalg.norm(cross, axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lengths > 0, cross / lengths, 0.0)


def face_normals(mesh: TriangleMesh) -> np.ndarray:
    """Geometric (winding-defined) unit normals for every face.

    Zero-area faces produce zero vectors.
    """
    a, b, c = mesh.triangle_corners()
    return _unit_normals(np.cross(b - a, c - a))


def _surface_colors(
    mesh: TriangleMesh, face: np.ndarray, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """The colors of surface_attributes."""
    if mesh.vertex_colors is None:
        return np.ones((len(face), 3))
    w0 = 1.0 - u - v
    c = mesh.vertex_colors
    f = mesh.faces[face]
    colors = w0[:, None] * c[f[:, 0]] + u[:, None] * c[f[:, 1]] + v[:, None] * c[f[:, 2]]
    return np.clip(colors, 0.0, 1.0)


def surface_attributes(
    mesh: TriangleMesh, face: np.ndarray, u: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(normals, colors) at surface points given by face index and the
    barycentric weights u, v of the face's second and third vertices.

    Normals are the winding-defined face normals, never flipped toward a
    viewer. Colors interpolate the vertex colors, clipped to [0, 1];
    colorless meshes report white.
    """
    return face_normals(mesh)[face], _surface_colors(mesh, face, u, v)


def normalize_mesh(mesh: TriangleMesh) -> tuple[TriangleMesh, RigidTransform]:
    """Center the bounding box at the origin and scale max extent to 1.

    One uniform scale factor is used for all three axes, so shape is
    preserved. Returns the normalized mesh and the original->normalized
    transform.
    """
    if mesh.is_empty:
        raise MeshError("cannot normalize an empty mesh")
    lo, hi = mesh.bounds()
    extent = float((hi - lo).max())
    if extent <= 0:
        raise MeshError("zero-extent mesh (all vertices coincident)")
    center = (lo + hi) / 2.0
    scale = 1.0 / extent
    transform = RigidTransform(np.eye(3), -scale * center, scale)
    return mesh.transformed(transform), transform
