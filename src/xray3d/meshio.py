"""OBJ and PLY readers/writers.

OBJ is ASCII `v`/`vn`/`f` records with the common `v x y z r g b` color
extension; polygons with more than three vertices are fan-triangulated.
PLY reads ASCII and binary-little-endian and writes binary, vertex properties
x/y/z[/nx/ny/nz][/red/green/blue] and faces as index lists. Materials,
textures, and other elements are ignored.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .codec import PointCloud
from .mesh import MeshError, TriangleMesh


class MeshIOError(MeshError):
    """File does not parse as the declared mesh format."""


def load_mesh(path, fmt: str | None = None) -> TriangleMesh:
    """Load an OBJ or PLY mesh; format inferred from the extension."""
    path = Path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "obj":
        return _load_obj(path)
    if fmt == "ply":
        return _load_ply(path)
    raise MeshIOError(f"unsupported mesh format {fmt!r}")


def save_mesh(mesh: TriangleMesh, path, fmt: str | None = None) -> None:
    """Save to OBJ or PLY (binary little-endian); inferred from extension."""
    if mesh.is_empty:
        raise MeshError("refusing to save an empty mesh")
    path = Path(path)
    fmt = (fmt or path.suffix.lstrip(".")).lower()
    if fmt == "obj":
        _save_obj(mesh, path)
    elif fmt == "ply":
        _save_ply(mesh, path)
    else:
        raise MeshIOError(f"unsupported mesh format {fmt!r}")


# --- OBJ ---------------------------------------------------------------

def _load_obj(path: Path) -> TriangleMesh:
    vertices: list[list[float]] = []
    colors: list[list[float]] = []
    normals: list[list[float]] = []
    faces: list[list[int]] = []

    def vertex_index(token: str) -> int:
        idx = int(token.split("/")[0])
        return idx - 1 if idx > 0 else len(vertices) + idx

    try:
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                tag = parts[0]
                if tag == "v":
                    if len(parts) not in (4, 7):
                        raise MeshIOError(f"{path}:{lineno}: malformed vertex record")
                    vertices.append([float(x) for x in parts[1:4]])
                    if len(parts) == 7:
                        colors.append([float(x) for x in parts[4:7]])
                elif tag == "vn":
                    normals.append([float(x) for x in parts[1:4]])
                elif tag == "f":
                    if len(parts) < 4:
                        raise MeshIOError(f"{path}:{lineno}: face with fewer than 3 vertices")
                    ids = [vertex_index(tok) for tok in parts[1:]]
                    for k in range(1, len(ids) - 1):
                        faces.append([ids[0], ids[k], ids[k + 1]])
    except (ValueError, IndexError) as exc:
        raise MeshIOError(f"failed to parse {path}: {exc}") from exc

    if not vertices or not faces:
        raise MeshIOError(f"{path}: empty mesh (no vertices or faces)")
    if colors and len(colors) != len(vertices):
        raise MeshIOError(f"{path}: only some vertices carry colors")

    vertex_normals = None
    if normals and len(normals) == len(vertices):
        vertex_normals = _renormalize(np.asarray(normals, dtype=np.float64))
    return TriangleMesh(
        vertices=np.asarray(vertices, dtype=np.float64),
        faces=np.asarray(faces, dtype=np.int64),
        vertex_normals=vertex_normals,
        vertex_colors=np.asarray(colors, dtype=np.float64) if colors else None,
    )


def _renormalize(normals: np.ndarray) -> np.ndarray:
    lengths = np.linalg.norm(normals, axis=1, keepdims=True)
    return np.where(lengths > 1e-12, normals / np.maximum(lengths, 1e-12), 0.0)


def _fmt3(row) -> str:
    # repr of Python floats is the shortest exact round-trip form
    return f"{float(row[0])!r} {float(row[1])!r} {float(row[2])!r}"


def _save_obj(mesh: TriangleMesh, path: Path) -> None:
    lines = []
    colors = mesh.vertex_colors
    for i, v in enumerate(mesh.vertices):
        if colors is not None:
            lines.append(f"v {_fmt3(v)} {_fmt3(colors[i])}")
        else:
            lines.append(f"v {_fmt3(v)}")
    if mesh.vertex_normals is not None:
        for n in mesh.vertex_normals:
            lines.append(f"vn {_fmt3(n)}")
        for f in mesh.faces:
            lines.append(f"f {f[0]+1}//{f[0]+1} {f[1]+1}//{f[1]+1} {f[2]+1}//{f[2]+1}")
    else:
        for f in mesh.faces:
            lines.append(f"f {f[0]+1} {f[1]+1} {f[2]+1}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# --- PLY ---------------------------------------------------------------

_PLY_SCALARS = {
    "char": "i1", "int8": "i1",
    "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2",
    "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4",
    "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4",
    "double": "f8", "float64": "f8",
}


def _scalar_code(name: str) -> str:
    try:
        return _PLY_SCALARS[name]
    except KeyError:
        raise ValueError(f"unsupported PLY scalar type {name!r}") from None


def _parse_ply(path: Path) -> dict[str, list[dict]]:
    """Parse all elements of a PLY file into rows of name->value dicts."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"ply":
            raise MeshIOError(f"{path}: missing 'ply' magic line")
        fmt = None
        elements: list[tuple[str, int, list]] = []
        while True:
            line = fh.readline()
            if not line:
                raise MeshIOError(f"{path}: header ended without end_header")
            tokens = line.decode("ascii", errors="replace").split()
            if not tokens or tokens[0] == "comment":
                continue
            if tokens[0] == "format":
                fmt = tokens[1]
                if fmt not in ("ascii", "binary_little_endian"):
                    raise MeshIOError(f"{path}: unsupported PLY format {fmt!r}")
            elif tokens[0] == "element":
                elements.append((tokens[1], int(tokens[2]), []))
            elif tokens[0] == "property":
                if not elements:
                    raise MeshIOError(f"{path}: property before any element")
                if tokens[1] == "list":
                    elements[-1][2].append(("list", tokens[2], tokens[3], tokens[4]))
                else:
                    elements[-1][2].append(("scalar", tokens[1], tokens[2]))
            elif tokens[0] == "end_header":
                break
        if fmt is None:
            raise MeshIOError(f"{path}: missing format line")
        try:
            if fmt == "ascii":
                return _read_ply_ascii(fh, elements)
            return _read_ply_binary(fh, elements)
        except (ValueError, struct.error) as exc:
            raise MeshIOError(f"failed to parse {path}: {exc}") from exc


def _read_ply_ascii(fh, elements):
    values = {}
    lines = iter(fh.read().decode("ascii", errors="replace").split("\n"))
    for name, count, props in elements:
        rows = []
        for _ in range(count):
            for line in lines:
                tokens = line.split()
                if tokens:
                    break
            else:
                raise ValueError(f"element {name}: ran out of rows")
            row = {}
            pos = 0
            for prop in props:
                if prop[0] == "list":
                    n = int(tokens[pos])
                    row[prop[3]] = [float(t) for t in tokens[pos + 1: pos + 1 + n]]
                    if len(row[prop[3]]) != n:
                        raise ValueError(f"element {name}: short list row")
                    pos += 1 + n
                else:
                    row[prop[2]] = float(tokens[pos])
                    pos += 1
            rows.append(row)
        values[name] = rows
    return values


def _read_ply_binary(fh, elements):
    values = {}
    for name, count, props in elements:
        if all(p[0] == "scalar" for p in props):
            dtype = np.dtype([(p[2], "<" + _scalar_code(p[1])) for p in props])
            buf = fh.read(dtype.itemsize * count)
            if len(buf) < dtype.itemsize * count:
                raise ValueError(f"element {name}: truncated data")
            arr = np.frombuffer(buf, dtype=dtype)
            values[name] = [
                {field: float(arr[field][i]) for field in dtype.names}
                for i in range(count)
            ]
        else:
            rows = []
            for _ in range(count):
                row = {}
                for prop in props:
                    if prop[0] == "list":
                        count_dt = np.dtype("<" + _scalar_code(prop[1]))
                        head = fh.read(count_dt.itemsize)
                        if len(head) < count_dt.itemsize:
                            raise ValueError(f"element {name}: truncated list count")
                        n = int(np.frombuffer(head, count_dt)[0])
                        item = np.dtype("<" + _scalar_code(prop[2]))
                        buf = fh.read(item.itemsize * n)
                        if len(buf) < item.itemsize * n:
                            raise ValueError(f"element {name}: truncated list")
                        row[prop[3]] = np.frombuffer(buf, item).tolist()
                    else:
                        code = np.dtype("<" + _scalar_code(prop[1]))
                        buf = fh.read(code.itemsize)
                        if len(buf) < code.itemsize:
                            raise ValueError(f"element {name}: truncated data")
                        row[prop[2]] = float(np.frombuffer(buf, code)[0])
                rows.append(row)
            values[name] = rows
    return values


def _ply_vertices(path: Path, parsed) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    vrows = parsed.get("vertex", [])
    if not vrows:
        raise MeshIOError(f"{path}: no vertex element")
    positions = np.array([[r["x"], r["y"], r["z"]] for r in vrows])
    normals = None
    if all(k in vrows[0] for k in ("nx", "ny", "nz")):
        normals = _renormalize(np.array([[r["nx"], r["ny"], r["nz"]] for r in vrows]))
    colors = None
    if all(k in vrows[0] for k in ("red", "green", "blue")):
        colors = np.array([[r["red"], r["green"], r["blue"]] for r in vrows]) / 255.0
    return positions, normals, colors


def _load_ply(path: Path) -> TriangleMesh:
    parsed = _parse_ply(path)
    positions, normals, colors = _ply_vertices(path, parsed)
    faces = []
    for row in parsed.get("face", []):
        ids = [int(i) for i in row.get("vertex_indices", row.get("vertex_index", []))]
        for k in range(1, len(ids) - 1):
            faces.append([ids[0], ids[k], ids[k + 1]])
    if not faces:
        raise MeshIOError(f"{path}: no faces (use load_pointcloud_ply for point sets)")
    return TriangleMesh(
        vertices=positions,
        faces=np.asarray(faces, dtype=np.int64),
        vertex_normals=normals,
        vertex_colors=colors,
    )


def load_pointcloud_ply(path) -> PointCloud:
    """Read a vertex-only PLY with positions, normals, and colors."""
    path = Path(path)
    positions, normals, colors = _ply_vertices(path, _parse_ply(path))
    if normals is None:
        raise MeshIOError(f"{path}: point cloud PLY lacks normals")
    if colors is None:
        colors = np.ones_like(positions)
    return PointCloud(positions, normals, colors)


def _ply_header(n_vertices: int, n_faces: int, with_normals: bool, with_colors: bool) -> bytes:
    lines = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {n_vertices}",
        "property float x",
        "property float y",
        "property float z",
    ]
    if with_normals:
        lines += ["property float nx", "property float ny", "property float nz"]
    if with_colors:
        lines += ["property uchar red", "property uchar green", "property uchar blue"]
    if n_faces >= 0:
        lines += [f"element face {n_faces}", "property list uchar int vertex_indices"]
    lines.append("end_header")
    return ("\n".join(lines) + "\n").encode("ascii")


def _save_ply(mesh: TriangleMesh, path: Path) -> None:
    with_normals = mesh.vertex_normals is not None
    with_colors = mesh.vertex_colors is not None
    header = _ply_header(mesh.n_vertices, mesh.n_faces, with_normals, with_colors)

    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4")]
    if with_normals:
        fields += [("nx", "<f4"), ("ny", "<f4"), ("nz", "<f4")]
    if with_colors:
        fields += [("red", "u1"), ("green", "u1"), ("blue", "u1")]
    vdata = np.zeros(mesh.n_vertices, dtype=np.dtype(fields))
    vdata["x"], vdata["y"], vdata["z"] = mesh.vertices.T.astype(np.float32)
    if with_normals:
        vdata["nx"], vdata["ny"], vdata["nz"] = mesh.vertex_normals.T.astype(np.float32)
    if with_colors:
        rgb = np.rint(np.clip(mesh.vertex_colors, 0, 1) * 255).astype(np.uint8)
        vdata["red"], vdata["green"], vdata["blue"] = rgb.T

    fdata = np.zeros(mesh.n_faces, dtype=np.dtype([("n", "u1"), ("i", "<i4", (3,))]))
    fdata["n"] = 3
    fdata["i"] = mesh.faces.astype(np.int32)

    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vdata.tobytes())
        fh.write(fdata.tobytes())


def save_pointcloud_ply(cloud: PointCloud, path) -> None:
    """Write a decoded point cloud (binary PLY): x y z nx ny nz red green blue."""
    n = len(cloud)
    header = _ply_header(n, -1, with_normals=True, with_colors=True)
    rgb = np.rint(np.clip(cloud.colors, 0, 1) * 255).astype(np.uint8)
    fields = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
              ("nx", "<f4"), ("ny", "<f4"), ("nz", "<f4"),
              ("red", "u1"), ("green", "u1"), ("blue", "u1")]
    vdata = np.zeros(n, dtype=np.dtype(fields))
    vdata["x"], vdata["y"], vdata["z"] = cloud.positions.T.astype(np.float32)
    vdata["nx"], vdata["ny"], vdata["nz"] = cloud.normals.T.astype(np.float32)
    vdata["red"], vdata["green"], vdata["blue"] = rgb.T
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vdata.tobytes())
