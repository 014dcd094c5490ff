"""OBJ and PLY readers/writers.

OBJ is ASCII `v`/`f` records with the common `v x y z r g b` color
extension; polygons with more than three vertices are fan-triangulated.
A face corner keeps only its vertex index (`v`, `v/vt`, `v//vn` and
`v/vt/vn` corners read alike). PLY reads ASCII and binary-little-endian
and writes binary, vertex properties x/y/z[/red/green/blue] and faces as
index lists; point clouds add nx/ny/nz. Mesh normals (`vn` records, PLY
nx/ny/nz on a mesh), texture coordinates, materials and other elements
are ignored: a mesh's normals are its winding-defined face normals.

The OBJ reader takes the file as one buffer. It reads lines as text mode
would (CRLF and a lone CR end a line too, bad UTF-8 is replaced) and gets
each line's kind from its first bytes, decoding a line on its own only
when it starts with whitespace or a non-ASCII byte. The lines of each
kind are joined and split once; where the tags fall among those tokens
gives each record's size, which is checked with the record's `path:line`
(the earliest bad record is named). It reads one record kind at a time:
the `v` tokens become arrays and are dropped before the `f` lines are
split, so only one kind's Python strings are alive at once. The OBJ
writer formats blocks of _OBJ_BLOCK rows into one open file, so its
Python numbers and text are bounded by the block, not by the mesh. The
PLY reader and writer convert whole arrays: Python walks rows of
list-valued PLY elements only to check record sizes and find where
values sit. Each kind of value is parsed, gathered or formatted by one
numpy call or one `%`-format (one per block in the OBJ writer).
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path

import numpy as np

from .codec import PointCloud
from .mesh import MeshError, TriangleMesh, _ramp


class MeshIOError(MeshError):
    """File does not parse as the declared mesh format."""


def load_mesh(path) -> TriangleMesh:
    """Load an OBJ or PLY mesh; format inferred from the extension."""
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "obj":
        return _load_obj(path)
    if fmt == "ply":
        return _load_ply(path)
    raise MeshIOError(f"unsupported mesh format {fmt!r}")


def save_mesh(mesh: TriangleMesh, path) -> None:
    """Save to OBJ or PLY (binary little-endian); inferred from extension."""
    if mesh.is_empty:
        raise MeshError("refusing to save an empty mesh")
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    if fmt == "obj":
        _save_obj(mesh, path)
    elif fmt == "ply":
        _write_ply(path, mesh.vertices, None, mesh.vertex_colors, mesh.faces)
    else:
        raise MeshIOError(f"unsupported mesh format {fmt!r}")


def _fan(ids: np.ndarray, sizes) -> np.ndarray:
    """Fan-triangulate polygons stored back to back in `ids` with `sizes` corners."""
    sizes = np.asarray(sizes, dtype=np.int64)
    n_tri = np.maximum(sizes - 2, 0)
    first = np.repeat(np.cumsum(sizes) - sizes, n_tri)
    second = first + 1 + _ramp(n_tri)
    return np.stack([ids[first], ids[second], ids[second + 1]], axis=1)


# --- OBJ ---------------------------------------------------------------

# Rows formatted per write: a block of six numbers a row holds about 25 MB
# of Python numbers and text, where formatting a whole 131,562-vertex
# mesh of three a row at once held 52 MB (tracemalloc).
_OBJ_BLOCK = 1 << 16
# Face corners cut per block on reading: a corner's vertex index is held
# as a str of up to 64 B until its block is parsed, so a block holds
# about 256 KB.
_OBJ_CORNER_BLOCK = 1 << 12


def _obj_line(data: bytes, at: np.ndarray, i: int) -> str:
    return data[at[i]:at[i + 1]].decode("utf-8", errors="replace")


def _obj_kinds(data: bytes, at: np.ndarray) -> np.ndarray:
    """Each line's record kind, read from the first bytes of the line: 1 or
    2 for `v` or `f`, 0 for any other line."""
    tags = ("v", "f")
    # the bytes that end a token: ASCII whitespace, a line's own newline included
    end = np.array([chr(b).isspace() for b in range(128)] + [False] * 128)
    buf = np.frombuffer(data + b"\n\n", dtype=np.uint8)
    b0, b1 = (buf[at[:-1] + k] for k in range(2))
    v, f = b0 == ord("v"), b0 == ord("f")
    kind = np.select([v & end[b1], f & end[b1]], [1, 2])
    # Bytes cannot tell where the first token starts after leading
    # whitespace, or whether a non-ASCII byte is (Unicode) whitespace.
    unsure = (end[b0] & (b0 != ord("\n"))) | (b0 > 127) | ((v | f) & (b1 > 127))
    for i in np.flatnonzero(unsure):
        head = _obj_line(data, at, i).split(None, 1)[:1]
        kind[i] = tags.index(head[0]) + 1 if head and head[0] in tags else 0
    return kind


def _obj_records(data: bytes, at: np.ndarray, chosen: np.ndarray, tag: str):
    """The value tokens of the chosen lines in file order, their tags
    dropped, and how many values each line has."""
    runs = np.flatnonzero(np.diff(chosen, prepend=False, append=False)).reshape(-1, 2)
    text = b"\n".join(data[at[a]:at[b]] for a, b in runs.tolist())
    tokens = text.decode("utf-8", errors="replace").split()
    n = int(chosen.sum())
    k = len(tokens) // n if n else 1
    if len(tokens) == k * n and tokens.count(tag) == n == tokens[::k].count(tag):
        del tokens[::k]  # every line has k tokens, its tag first
        return tokens, np.full(n, k - 1)
    tokens = np.array(tokens, dtype=object)
    starts = np.flatnonzero(tokens == tag)
    if len(starts) != n:  # the tag is also a value somewhere: count line by line
        counts = [len(_obj_line(data, at, i).split()) for i in np.flatnonzero(chosen)]
        starts = np.cumsum(counts) - counts
    values = np.ones(len(tokens), dtype=bool)
    values[starts] = False
    return tokens[values].tolist(), np.diff(starts, append=len(tokens)) - 1


def _obj_columns(values: list, counts: np.ndarray, lo: int, hi: int) -> list:
    """Values lo..hi-1 of every line (each has at least hi), in order."""
    if lo == 0 and np.all(counts == hi):
        return values
    starts = np.cumsum(counts) - counts
    return np.array(values, dtype=object)[(starts[:, None] + np.arange(lo, hi)).ravel()].tolist()


def _corner_ids(corners: list, parse) -> np.ndarray | None:
    """The vertex index of each `v`, `v/vt`, `v//vn` or `v/vt/vn` corner.
    Corners are cut at their first "/" a block at a time, so only one
    block's pieces are held at once; parse(tokens, dtype, shape) converts
    a block's tokens, or records its failure and returns None."""
    blocks = [parse([c.partition("/")[0] for c in corners[lo:lo + _OBJ_CORNER_BLOCK]],
                    np.int64, -1)
              for lo in range(0, len(corners), _OBJ_CORNER_BLOCK)]
    return None if not blocks or any(b is None for b in blocks) else np.concatenate(blocks)


def _load_obj(path: Path) -> TriangleMesh:
    data = path.read_bytes()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # line i is data[at[i]:at[i + 1]], its newline included
    at = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1
    at = np.concatenate([[0], at, [len(data) + 1]])
    kind = _obj_kinds(data, at)
    slashed = b"/" in data  # else every corner is a bare vertex index

    # Each record kind is tokenised, checked and converted, and its tokens
    # dropped, before the next kind is tokenised. What is wrong is raised
    # after both: the earliest malformed record, then an empty mesh, then
    # partial colours, then the first failed parse (positions, colours,
    # vertex ids, in that order).
    bad, failed = [], []

    def well_formed(code: int, wrong: np.ndarray, what: str) -> bool:
        if wrong.any():
            bad.append((np.flatnonzero(kind == code)[np.argmax(wrong)] + 1, what))
        return not wrong.any()

    def parse(tokens: list, dtype=np.float64, shape=(-1, 3)) -> np.ndarray | None:
        try:
            return np.array(tokens, dtype=dtype).reshape(shape)
        except (ValueError, OverflowError) as exc:
            failed.append(exc)

    vertices = colors = ids = None
    values, v_len = _obj_records(data, at, kind == 1, "v")
    colored = v_len == 6
    if well_formed(1, (v_len != 3) & (v_len != 6), "malformed vertex record"):
        vertices = parse(_obj_columns(values, v_len, 0, 3))
        if len(v_len) and colored.all():
            colors = parse(_obj_columns(values, v_len, 3, 6))
    del values
    corners, sizes = _obj_records(data, at, kind == 2, "f")
    if well_formed(2, sizes < 3, "face with fewer than 3 vertices"):
        ids = _corner_ids(corners, parse) if slashed else parse(corners, np.int64, -1)
    del corners

    if bad:
        lineno, what = min(bad)
        raise MeshIOError(f"{path}:{lineno}: {what}")
    if not len(v_len) or not len(sizes):
        raise MeshIOError(f"{path}: empty mesh (no vertices or faces)")
    if colored.any() and not colored.all():
        raise MeshIOError(f"{path}: only some vertices carry colors")
    if failed:
        raise MeshIOError(f"failed to parse {path}: {failed[0]}") from failed[0]

    # a negative index counts back from the `v` records defined before its face
    defined = np.repeat(np.cumsum(kind == 1)[kind == 2], sizes)
    ids = np.where(ids > 0, ids - 1, defined + ids)
    return TriangleMesh(vertices, _fan(ids, sizes), colors)


def _write_obj_rows(fh, fmt: str, *columns: np.ndarray) -> None:
    """Write `fmt` once per row of the columns set side by side, formatting
    _OBJ_BLOCK rows at a time."""
    for start in range(0, len(columns[0]), _OBJ_BLOCK):
        block = np.hstack([c[start:start + _OBJ_BLOCK] for c in columns])
        fh.write(fmt * len(block) % tuple(block.ravel().tolist()))


def _save_obj(mesh: TriangleMesh, path: Path) -> None:
    # %r of a Python float is its shortest exact round-trip repr
    v = [mesh.vertices] + ([] if mesh.vertex_colors is None else [mesh.vertex_colors])
    with open(path, "w", encoding="utf-8") as fh:
        _write_obj_rows(fh, "v" + " %r" * 3 * len(v) + "\n", *v)
        _write_obj_rows(fh, "f %d %d %d\n", mesh.faces + 1)


# --- PLY ---------------------------------------------------------------

_PLY_SCALARS = {
    "char": "i1", "int8": "i1", "uchar": "u1", "uint8": "u1",
    "short": "i2", "int16": "i2", "ushort": "u2", "uint16": "u2",
    "int": "i4", "int32": "i4", "uint": "u4", "uint32": "u4",
    "float": "f4", "float32": "f4", "double": "f8", "float64": "f8",
}


def _ply_dtype(name: str) -> np.dtype:
    return np.dtype("<" + _PLY_SCALARS[name])


def _ply_header(path: Path, fh) -> tuple[str, list]:
    """Read up to `end_header`: the format and [(element, count, props)], where
    a prop is (name, count dtype or None for a scalar, value dtype)."""
    if fh.readline().strip() != b"ply":
        raise MeshIOError(f"{path}: missing 'ply' magic line")
    fmt = None
    elements: list[tuple[str, int, list]] = []
    for lineno, line in enumerate(fh, 2):
        tokens = line.decode("ascii", errors="replace").split()
        key = tokens[0] if tokens else ""
        if key == "end_header":
            if fmt is None:
                raise MeshIOError(f"{path}: missing format line")
            return fmt, elements
        try:
            if key == "format":
                fmt = tokens[1]
            elif key == "element":
                elements.append((tokens[1], int(tokens[2]), []))
            elif key == "property" and tokens[1] == "list":
                _, _, count_type, value_type, name = tokens
                elements[-1][2].append((name, _ply_dtype(count_type), _ply_dtype(value_type)))
            elif key == "property":
                _, value_type, name = tokens
                elements[-1][2].append((name, None, _ply_dtype(value_type)))
        except (IndexError, KeyError, ValueError):
            raise MeshIOError(
                f"{path}:{lineno}: malformed PLY header line {' '.join(tokens)!r}") from None
        if key == "format" and fmt not in ("ascii", "binary_little_endian"):
            raise MeshIOError(f"{path}: unsupported PLY format {fmt!r}")
    raise MeshIOError(f"{path}: header ended without end_header")


def _parse_ply(path: Path) -> dict[str, dict]:
    """Parse every element into columns: property name -> values, or
    (values, sizes) for a list property. One walk serves both formats: a
    position counts tokens in ASCII and bytes in binary."""
    with open(path, "rb") as fh:
        fmt, elements = _ply_header(path, fh)
        body = fh.read()
    text = fmt == "ascii"
    width = (lambda dt: 1) if text else (lambda dt: dt.itemsize)
    try:
        if text:
            lines = body.decode("ascii", errors="replace").split("\n")
            rows = [r for r in map(str.split, lines) if r]
            row_len = np.array([len(r) for r in rows], dtype=np.int64)
            row_end = np.cumsum(row_len)
            data = np.array(list(chain.from_iterable(rows)), dtype=np.float64)
        else:
            data = np.frombuffer(body, dtype=np.uint8)
        parsed, pos, row = {}, 0, 0
        for name, count, props in elements:
            if text and row + count > len(rows):
                raise ValueError(f"element {name}: ran out of rows")
            starts = {prop: [] for prop, _, _ in props}
            sizes = {prop: [] for prop, count_dt, _ in props if count_dt}
            if sizes:  # list properties: walk the rows
                ends = []
                for _ in range(count):
                    for prop, count_dt, dt in props:
                        n = 1
                        if count_dt:
                            if pos + width(count_dt) > len(data):
                                raise ValueError(f"element {name}: truncated data")
                            c = data[pos] if text else np.frombuffer(body, count_dt, 1, pos)[0]
                            if not c.is_integer() or c < 0:  # nan and inf too
                                raise ValueError(f"element {name} row {len(ends)}: "
                                                 f"{'negative' if c < 0 else 'non-integer'} "
                                                 f"list count {c!s}")
                            n = int(c)
                            pos += width(count_dt)
                            sizes[prop].append(n)
                        starts[prop].append(pos)
                        pos += n * width(dt)
                    ends.append(pos)
                    if text and pos != row_end[row + len(ends) - 1]:
                        break
            else:  # scalars only: every position follows from the row size
                offsets = np.cumsum([0] + [width(dt) for _, _, dt in props])
                first = pos + offsets[-1] * np.arange(count)
                starts = {prop: first + off for (prop, _, _), off in zip(props, offsets)}
                pos += offsets[-1] * count
                ends = first + offsets[-1]
            if text and (bad := np.flatnonzero(ends != row_end[row:row + len(ends)])).size:
                i = int(bad[0])
                raise ValueError(f"element {name} row {i}: {row_len[row + i]} values, "
                                 f"expected {ends[i] - row_end[row + i] + row_len[row + i]}")
            if pos > len(data):
                raise ValueError(f"element {name}: truncated data")
            columns = parsed[name] = {}
            for prop, count_dt, dt in props:
                at = np.asarray(starts[prop], dtype=np.int64)
                if count_dt:
                    n = np.array(sizes[prop], dtype=np.int64)
                    at = np.repeat(at, n) + _ramp(n) * width(dt)
                values = data[at] if text else (
                    data[at[:, None] + np.arange(dt.itemsize)].view(dt).ravel())
                columns[prop] = (values, n) if count_dt else values
            row += count
        return parsed
    except (ValueError, IndexError) as exc:
        raise MeshIOError(f"failed to parse {path}: {exc}") from exc


def _ply_vertices(path: Path, parsed) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
    vertex = parsed.get("vertex", {})

    def stack(*names):
        columns = [vertex.get(n) for n in names]
        if all(isinstance(c, np.ndarray) for c in columns):
            return np.column_stack(columns).astype(np.float64)

    positions = stack("x", "y", "z")
    if positions is None or not len(positions):
        raise MeshIOError(f"{path}: no vertex element with x/y/z")
    colors = stack("red", "green", "blue")
    return positions, stack("nx", "ny", "nz"), None if colors is None else colors / 255.0


def _load_ply(path: Path) -> TriangleMesh:
    parsed = _parse_ply(path)
    positions, _, colors = _ply_vertices(path, parsed)
    face = parsed.get("face", {})
    ids = face.get("vertex_indices", face.get("vertex_index"))
    faces = _fan(*ids) if isinstance(ids, tuple) else []
    if (bad := ~np.isfinite(faces) | (faces != np.trunc(faces))).any():  # ASCII or float lists
        raise MeshIOError(f"{path}: face {faces[bad.any(1)][0].tolist()} has a non-integer index")
    if not len(faces):
        raise MeshIOError(f"{path}: no faces (use load_pointcloud_ply for point sets)")
    return TriangleMesh(positions, faces, colors)


def load_pointcloud_ply(path) -> PointCloud:
    """Read a vertex-only PLY with positions, normals, and colors."""
    path = Path(path)
    positions, normals, colors = _ply_vertices(path, _parse_ply(path))
    if normals is None:
        raise MeshIOError(f"{path}: point cloud PLY lacks normals")
    if colors is None:
        colors = np.ones_like(positions)
    lengths = np.linalg.norm(normals, axis=1)
    bad = ~(np.isfinite(positions).all(axis=1) & np.isfinite(lengths) & (lengths > 1e-12))
    if bad.any():
        i = int(np.argmax(bad))
        raise MeshIOError(f"{path}: point {i} has position {positions[i].tolist()} and normal "
                          f"{normals[i].tolist()}; both must be finite and the normal non-zero")
    return PointCloud(positions, normals / lengths[:, None], colors)


def save_pointcloud_ply(cloud: PointCloud, path) -> None:
    """Write a decoded point cloud (binary PLY): x y z nx ny nz red green blue."""
    _write_ply(Path(path), cloud.positions, cloud.normals, cloud.colors)


def _write_ply(path: Path, positions, normals, colors, faces=None) -> None:
    """Binary little-endian PLY: float x/y/z [nx/ny/nz], uchar red/green/blue,
    and a triangle list element when `faces` is given."""
    rgb = None if colors is None else np.rint(np.clip(colors, 0, 1) * 255)
    columns = [(name, kind, column) for names, kind, values in (
        ("x y z", "float", positions),
        ("nx ny nz", "float", normals),
        ("red green blue", "uchar", rgb),
    ) if values is not None for name, column in zip(names.split(), np.asarray(values).T)]
    vdata = np.zeros(len(positions), [(name, _ply_dtype(kind)) for name, kind, _ in columns])
    for name, _, column in columns:
        vdata[name] = column
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(positions)}"]
    header += [f"property {kind} {name}" for name, kind, _ in columns]
    fdata = np.zeros(0 if faces is None else len(faces), dtype=[("n", "u1"), ("i", "<i4", (3,))])
    if faces is not None:
        header += [f"element face {len(faces)}", "property list uchar int vertex_indices"]
        fdata["n"], fdata["i"] = 3, faces
    with open(path, "wb") as fh:
        fh.write(("\n".join(header + ["end_header"]) + "\n").encode("ascii"))
        fh.write(vdata.tobytes())
        fh.write(fdata.tobytes())
