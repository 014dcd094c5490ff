import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xray3d.codec import PointCloud
from xray3d.fixtures import cube, icosphere
from xray3d.mesh import MeshError, TriangleMesh
from xray3d import meshio
from xray3d.meshio import (
    MeshIOError,
    load_mesh,
    load_pointcloud_ply,
    save_mesh,
    save_pointcloud_ply,
)


def test_obj_round_trip_exact(tmp_path, cube_mesh):
    path = tmp_path / "cube.obj"
    save_mesh(cube_mesh, path)
    again = load_mesh(path)
    assert again.n_vertices == 8 and again.n_faces == 12
    np.testing.assert_array_equal(again.faces, cube_mesh.faces)
    np.testing.assert_allclose(again.vertices, cube_mesh.vertices, atol=1e-6)


def test_obj_colors_round_trip(tmp_path, colored_cube):
    path = tmp_path / "cube.obj"
    save_mesh(colored_cube, path)
    again = load_mesh(path)
    np.testing.assert_allclose(again.vertex_colors, colored_cube.vertex_colors, atol=1e-6)


def test_obj_fan_triangulation(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_mesh(path)
    assert mesh.n_faces == 2
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3]])


@pytest.mark.parametrize("suffix", ["obj", "ply"])
def test_polygon_fans_match_loop(tmp_path, suffix):
    rng = np.random.default_rng(5)
    polygons = [rng.permutation(12)[:k].tolist() for k in rng.integers(3, 9, size=20)]
    expected = [[p[0], p[k], p[k + 1]] for p in polygons for k in range(1, len(p) - 1)]
    vertices = "".join(f"{x} {y} 0\n" for x, y in rng.uniform(size=(12, 2)))
    path = tmp_path / f"polygons.{suffix}"
    if suffix == "obj":
        path.write_text(
            "".join("v " + line + "\n" for line in vertices.splitlines())
            + "".join("f " + " ".join(str(i + 1) for i in p) + "\n" for p in polygons)
        )
    else:
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 12\n"
            "property float x\nproperty float y\nproperty float z\n"
            f"element face {len(polygons)}\nproperty list uchar int vertex_indices\nend_header\n"
            + vertices
            + "".join(f"{len(p)} " + " ".join(map(str, p)) + "\n" for p in polygons)
        )
    np.testing.assert_array_equal(load_mesh(path).faces, expected)


def test_obj_negative_indices(tmp_path):
    path = tmp_path / "neg.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\n")
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2]])


def test_obj_face_index_out_of_range(tmp_path):
    path = tmp_path / "bad.obj"
    lines = [f"v {x} {y} 0" for x in (0, 1) for y in (0, 1, 2, 3)]
    path.write_text("\n".join(lines) + "\nf 1 2 10\n")
    with pytest.raises(MeshError, match="out of range"):
        load_mesh(path)


def test_obj_slash_tokens_and_running_negative_index(tmp_path):
    path = tmp_path / "mixed.obj"
    path.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvn 0 0 1\n"
        "f 1/1/1 2/2/2 3/3/3\n"
        "v 1 1 0\n"
        "f -3 -2 -1\n"  # counts back from the 4 vertices defined so far
        "v 2 2 0\n"
    )
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [1, 2, 3]])


def test_obj_normal_records_are_ignored(tmp_path):
    # a mesh's normals are its face normals: `vn` records and the normal
    # index of a corner are read past like `vt` records
    with_normals = tmp_path / "with_normals.obj"
    with_normals.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nvn 0 0 1\nvn 0 0 1\nvn 0 0 1\nvn 0 0 1\n"
        "f 1//1 2//2 3//3\nf 2//2 4//4 3//3\n"
    )
    without = tmp_path / "without.obj"
    without.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\nf 1//1 2//2 3//3\nf 2//2 4//4 3//3\n"
    )
    _assert_same_mesh(load_mesh(with_normals), load_mesh(without))


def _assert_same_mesh(got, want):
    """Every field of two TriangleMesh objects equal to the bit, dtype and shape included."""
    for field in dataclasses.fields(TriangleMesh):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert (a is None) == (b is None), field.name
        if b is not None:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name


def _reference_load_obj(path):
    """Oracle: split the file line by line in text mode and sort each
    record's tokens into lists, checking counts as it goes. Only `v` and
    `f` records are read; a corner keeps the index before its first "/"."""
    xyz, rgb, corners, sizes, defined = [], [], [], [], []
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            parts = line.split()
            tag = parts[0] if parts else ""
            if tag == "v":
                if len(parts) not in (4, 7):
                    raise MeshIOError(f"{path}:{lineno}: malformed vertex record")
                xyz += parts[1:4]
                rgb += parts[4:]
            elif tag == "f":
                if len(parts) < 4:
                    raise MeshIOError(f"{path}:{lineno}: face with fewer than 3 vertices")
                corners += parts[1:]
                sizes.append(len(parts) - 1)
                defined.append(len(xyz) // 3)
    if not xyz or not corners:
        raise MeshIOError(f"{path}: empty mesh (no vertices or faces)")
    if rgb and len(rgb) != len(xyz):
        raise MeshIOError(f"{path}: only some vertices carry colors")
    try:
        vertices = np.array(xyz, dtype=np.float64).reshape(-1, 3)
        colors = np.array(rgb, dtype=np.float64).reshape(-1, 3) if rgb else None
        ids = np.array([c.partition("/")[0] for c in corners], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise MeshIOError(f"failed to parse {path}: {exc}") from exc
    defined = np.repeat(np.array(defined, dtype=np.int64), sizes)
    ids = np.where(ids > 0, ids - 1, defined + ids)
    faces, at = [], 0
    for n in sizes:
        faces += [[ids[at], ids[at + k], ids[at + k + 1]] for k in range(1, n - 1)]
        at += n
    return TriangleMesh(vertices, faces, colors)


def _assert_loads_as_oracle(path):
    """load_mesh gives the oracle's mesh, or raises the oracle's error."""
    try:
        want = _reference_load_obj(path)
    except MeshError as exc:
        with pytest.raises(MeshError) as got:
            load_mesh(path)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
    else:
        _assert_same_mesh(load_mesh(path), want)


_OBJ_CORPUS = {
    "comments_and_other_records": (
        b"# a comment\nmtllib a.mtl\no thing\ng group\ns 1\nusemtl red\n"
        b"v 0 0 0\nv 1 0 0\nvt 0 0\nv 0 1 0\n# v 9 9\nf 1 2 3\nl 1 2\n"
    ),
    "leading_whitespace": b"  v 0 0 0\n\tv 1 0 0\n \t v 0 1 0\n\t f 1 2 3\n   \n\t\n",
    "crlf": b"v 0 0 0\r\nv 1 0 0\r\nv 0 1 0\r\nf 1 2 3\r\n",
    "lone_cr": b"v 0 0 0\rv 1 0 0\rv 0 1 0\rf 1 2 3",
    "mixed_endings": b"v 0 0 0\r\nv 1 0 0\rv 0 1 0\nv 1 1 0\r\rf 1 2 3 4\r\n",
    "tabs_and_runs": b"v\t0\t0   0\nv 1\t\t0 0 \nv 0 1 0\t\nf\t1  2\t3\n",
    "no_break_space": (
        "v\u00a00 0 0\nv 1\u00a00 0\n\u00a0v 0 1 0\nv 1 1\u20030\nf 1 2 3\u00a04\n"
    ).encode("utf-8"),
    "not_utf8": b"# caf\xe9\xff\n\xfe\nv 0 0 0\nv 1 0 0\nv 0 1 0\ng \x80\nf 1 2 3\n",
    "byte_order_mark": b"\xef\xbb\xbfv 9 9 9\nv 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    "double_slash_corners": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 2\nvn 0 0 3\nf 1//1 2//2 3//3\n"
    ),
    "full_corners": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvt 0 0\nvt 1 0\nvn 1 0 0\nvn 0 1 0\nvn 0 0 1\n"
        b"f 1/1/1 2/2/2 3/1/3\nf 3/2 2/1 1/2\n"
    ),
    "negative_after_later_v": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf -3 -2 -1\nv 1 1 0\nf -3 -2 -1\nv 2 2 0\n"
        b"f -1 -2 -3\nf 1 -1 3\n"
    ),
    "negative_normals": (
        b"v 0 0 0\nvn 0 0 1\nv 1 0 0\nvn 0 1 0\nv 0 1 0\nvn 1 0 0\n"
        b"f -3//-3 -2//-2 -1//-1\nf 1//1 2//2 3//3\n"
    ),
    "polygons": (
        b"v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 2 0\nv -1 0.5 0\n"
        b"f 1 2 3 4\nf 4 3 5\nf 1 2 3 5 4 6\n"
    ),
    "colors": (
        b"v 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 0 1 0 0 0 1\nv 1 1 0 0.5 0.25 0.125\n"
        b"f 1 2 3\nf 2 4 3\n"
    ),
    "colors_and_normals": (
        b"v 0 0 0 1 0 0\nv 1 0 0 0 1 0\nv 0 1 0 0 0 1\n"
        b"vn 0 0 3\nvn 0 4 0\nvn 1e-13 0 0\nf 1//1 2//2 3//3\n"
    ),
    "normal_ids_differ": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 1 0\nvn 1 0 0\nf 1//3 2//2 3//1\n"
    ),
    "normal_tag_among_values": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1 vn\nvn 0 1 0\nvn 1 0 0 x vn\nf 1//1 2//2 3//3\n"
    ),
    "unused_normal_value": b"v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 z\nf 1 2 3\n",
    "interleaved_records": (
        b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 1 1 0\nf 2 4 3\n# mid\nv 2 0 0\n"
        b"f 2 5 4\nv 2 2 0\nf 4 5 6 3\n"
    ),
    "odd_numbers": (
        b"v 1_0 +2 -0.0\nv 1e-3 .5 5.\nv -0 1E2 00\nf 1 2 3\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_OBJ_CORPUS))
def test_obj_reader_matches_line_by_line_oracle(tmp_path, name):
    path = tmp_path / f"{name}.obj"
    path.write_bytes(_OBJ_CORPUS[name])
    _assert_same_mesh(load_mesh(path), _reference_load_obj(path))


@pytest.mark.parametrize("text", [
    "v 0 0 0\nv 1 0 0\nf 1 2\nv 0 1\nf 1 2 3\n",  # a short face, then a short vertex
    "v 0 0 0\nv 1 0\nf 1 2\nf 1 2 3\n",  # a short vertex, then a short face
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 1\nf 1 2\nv 0 0\nf 1 2 3\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nv 0 0 0 1\nvn 0\n",
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 x 3\nv 0 0 y\n",  # two parse errors: vertices go first
    "v 0 0 0 1 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n",
    # a malformed `vn` record goes unread, like a `vt` record: this one loads
    "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 0 1\nvn 0 0 z\nf 1 2 3\n",
    "v 1 v 2\nv 0 0 0\nf 1 2 3\n",
    "f 1 2 f\nv 0 0 0\nv 1 0 0\nv 0 1 0\n",
    "# nothing but\nvt 0 0\n",
], ids=["face_then_vertex", "vertex_then_face", "normal_first", "vertex_then_normal",
        "parse_order", "some_colors", "bad_normal_value",
        "tag_as_vertex_value", "tag_as_corner", "empty"])
def test_obj_errors_match_line_by_line_oracle(tmp_path, text):
    path = tmp_path / "bad.obj"
    path.write_text(text)
    _assert_loads_as_oracle(path)


_SLASHED_HEAD = "v 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nvn 0 1 0\nvn 1 0 0\nf 1//1 2//2 3//3\n"


@pytest.mark.parametrize("block", [1, 2])
def test_obj_corner_blocks_match_line_by_line_oracle(tmp_path, monkeypatch, block):
    """Corner blocks of 1 and 2 put block edges inside and between faces;
    arrays, and the first failed parse in file order, stay the oracle's."""
    monkeypatch.setattr(meshio, "_OBJ_CORNER_BLOCK", block)
    for name in ("double_slash_corners", "full_corners", "negative_normals",
                 "colors_and_normals", "normal_ids_differ"):
        path = tmp_path / f"{name}.obj"
        path.write_bytes(_OBJ_CORPUS[name])
        _assert_loads_as_oracle(path)
    for tail in ("f 1//1 2//x 3//3\nf 1//1 y//2 3//3\n",  # a bad normal index goes unread
                 "f 1//1 q//2 3//3\nf 1//1 x//2 3//3\n",  # the earlier of two bad ids
                 "f 3//3 2//2 99999999999999999999//1\nf 1//1 z//2 3//3\n",
                 "f 3//3 2//2 1//99999999999999999999\nf 1//1 2//z 3//3\n"):  # loads
        path = tmp_path / "tail.obj"
        path.write_text(_SLASHED_HEAD + tail)
        _assert_loads_as_oracle(path)


def test_obj_earliest_bad_record_is_named(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\nv 0 0\n")
    with pytest.raises(MeshIOError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}:4: face with fewer than 3 vertices"

def test_obj_malformed_vertex(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 1 2\nf 1 1 1\n")
    with pytest.raises(MeshIOError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}:1: malformed vertex record"


def test_obj_empty_file(tmp_path):
    path = tmp_path / "empty.obj"
    path.write_text("# nothing\n")
    with pytest.raises(MeshIOError, match="empty"):
        load_mesh(path)


def test_obj_text_layout(tmp_path):
    mesh = TriangleMesh(
        [[0, 0, 0], [1, 0, 0], [0, 0.1, -2.5]],
        [[0, 1, 2]],
        vertex_colors=[[1, 0.5, 0], [0, 1, 0], [0.2, 0.2, 0.3]],
    )
    path = tmp_path / "tri.obj"
    save_mesh(mesh, path)
    assert path.read_bytes() == (
        b"v 0.0 0.0 0.0 1.0 0.5 0.0\n"
        b"v 1.0 0.0 0.0 0.0 1.0 0.0\n"
        b"v 0.0 0.1 -2.5 0.2 0.2 0.3\n"
        b"f 1 2 3\n"
    )


def _reference_obj_bytes(mesh):
    """Oracle: one formatted line per record, as a line-by-line writer
    would write them."""
    colors = mesh.vertex_colors
    lines = []
    for i, (x, y, z) in enumerate(mesh.vertices.tolist()):
        rgb = "" if colors is None else " {!r} {!r} {!r}".format(*colors[i].tolist())
        lines.append(f"v {x!r} {y!r} {z!r}{rgb}\n")
    for a, b, c in (mesh.faces + 1).tolist():
        lines.append(f"f {a} {b} {c}\n")
    return "".join(lines).encode("utf-8")


# The colored case keeps the id it had when meshes also wrote normals.
@pytest.mark.parametrize("colored", [False, True], ids=["bare", "colors_and_normals"])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_obj_writer_block_edges(tmp_path, extra, colored):
    n = meshio._OBJ_BLOCK + extra
    rng = np.random.default_rng(n)
    # short reprs keep the test quick; the first and last rows need all 17 digits
    vertices = rng.integers(-999, 1000, size=(n, 3)) / 8.0
    colors = rng.integers(0, 33, size=(n, 3)) / 32.0
    vertices[0], colors[0] = [-0.0, 1e-300, 1e300], [1 / 3, 0, 1]
    vertices[-1], colors[-1] = rng.normal(size=3), rng.random(3)
    ring = np.arange(n)
    mesh = TriangleMesh(
        vertices, np.stack([ring, (ring + 1) % n, (ring + 2) % n], axis=1),
        vertex_colors=colors if colored else None,
    )
    path = tmp_path / "block.obj"
    save_mesh(mesh, path)
    assert path.read_bytes() == _reference_obj_bytes(mesh)


@pytest.fixture(scope="module")
def large_obj(tmp_path_factory):
    """A mesh shaped like a Poisson reconstruction at 128^3 (2^17 + 3
    vertices, two faces per vertex, no colours or normals), and its OBJ."""
    n = 2**17 + 3
    rng = np.random.default_rng(17)
    first = rng.integers(0, n, size=2 * n)
    mesh = TriangleMesh(rng.normal(size=(n, 3)),
                        np.stack([first, (first + 1) % n, (first + 2) % n], axis=1))
    path = tmp_path_factory.mktemp("large") / "large.obj"
    save_mesh(mesh, path)
    return mesh, path


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_obj_save_memory_bounded_by_block(tmp_path, large_obj):
    """One block of rows with k numbers each holds, per number, its
    float64 in the block (8 B), a Python float (24 B) with its list and
    tuple slots (16 B), 3 B of format string and at most 25 B of text (a
    shortest repr of a normal deviate has at most 24 characters, plus its
    separator): 76 B, so 96 B bounds it. The writer also holds the 1-based
    faces, 24 B per face. Formatting the whole mesh at once peaks at 55 MB
    here."""
    mesh, _ = large_obj
    peak = _traced_peak(lambda: save_mesh(mesh, tmp_path / "again.obj"))
    assert peak <= 96 * 3 * meshio._OBJ_BLOCK + 24 * mesh.n_faces


def test_obj_load_memory_bounded_by_one_record_kind(large_obj):
    """The reader holds the file's bytes, 16 B per line (line starts and
    kinds) and the parsed vertices (24 B each) while it turns the face
    records, the largest kind here, into ids. For those it holds their
    lines' bytes twice more (joined, then decoded; at most 23 B per line),
    four tokens per line at up to 64 B each (a str of up to 7 ASCII
    characters is 56 B, plus its list slot) and 24 B of ids per face.
    Tokenising every record kind before converting any also holds the
    vertex tokens and peaks at 147 MB here."""
    mesh, path = large_obj
    peak = _traced_peak(lambda: load_mesh(path))
    n_v, n_f = mesh.n_vertices, mesh.n_faces
    per_face = 2 * 23 + 4 * 64 + 24
    assert peak <= path.stat().st_size + 16 * (n_v + n_f) + 24 * n_v + per_face * n_f


def test_obj_load_with_normals_memory_bounded(tmp_path):
    """A `v//vn` file: when the reader turns the face corners into vertex
    ids, it holds the file's bytes, 16 B per line, the parsed vertices
    (24 B each) and, per face, three corner tokens (a str of up to 15
    ASCII characters is 64 B, plus its list slot), the ids in blocks and
    joined (2 x 24 B) and the corner count (8 B): 248 B, within 320 B.
    Cutting one block of corners at "/" adds up to 256 B a corner.
    Cutting every corner at once holds 439 B per face past the file, the
    lines and the vertices here."""
    n = 2**15 + 3
    rng = np.random.default_rng(18)
    first = rng.integers(0, n, size=2 * n)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    mesh = TriangleMesh(rng.normal(size=(n, 3)),
                        np.stack([first, (first + 1) % n, (first + 2) % n], axis=1))
    path = tmp_path / "normals.obj"
    path.write_text(
        "".join("v %r %r %r\n" % tuple(row) for row in mesh.vertices.tolist())
        + "".join("vn %r %r %r\n" % tuple(row) for row in normals.tolist())
        + "".join("f %d//%d %d//%d %d//%d\n" % (a, a, b, b, c, c)
                  for a, b, c in (mesh.faces + 1).tolist())
    )
    peak = _traced_peak(lambda: load_mesh(path))
    n_v, n_f = mesh.n_vertices, mesh.n_faces
    assert peak <= (path.stat().st_size + 16 * (2 * n_v + n_f) + 24 * n_v + 320 * n_f
                    + 256 * meshio._OBJ_CORNER_BLOCK)


@st.composite
def obj_meshes(draw):
    n = draw(st.integers(3, 12))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    vertices = draw(arrays(np.float64, (n, 3), elements=finite))
    faces = draw(st.lists(st.permutations(range(n)).map(lambda p: p[:3]), min_size=1, max_size=8))
    colors = None
    if draw(st.booleans()):
        colors = draw(arrays(np.float64, (n, 3), elements=st.floats(0, 1)))
    return TriangleMesh(vertices, faces, vertex_colors=colors)


@given(obj_meshes())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_obj_round_trip_property(tmp_path_factory, mesh):
    path = tmp_path_factory.getbasetemp() / "property.obj"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert again.vertices.tobytes() == mesh.vertices.tobytes()  # bit-exact, -0.0 included
    np.testing.assert_array_equal(again.faces, mesh.faces)
    if mesh.vertex_colors is None:
        assert again.vertex_colors is None
    else:
        assert again.vertex_colors.tobytes() == mesh.vertex_colors.tobytes()


def test_save_empty_mesh_rejected(tmp_path):
    empty = TriangleMesh(np.empty((0, 3)), np.empty((0, 3), dtype=int))
    with pytest.raises(MeshError):
        save_mesh(empty, tmp_path / "x.obj")


def test_save_unwritable_path(cube_mesh):
    with pytest.raises(OSError):
        save_mesh(cube_mesh, "/nonexistent-dir/cube.obj")


def test_ply_binary_round_trip(tmp_path):
    mesh = icosphere(1, colored=True)
    path = tmp_path / "sphere.ply"
    save_mesh(mesh, path)
    again = load_mesh(path)
    assert again.n_faces == mesh.n_faces
    np.testing.assert_array_equal(again.faces, mesh.faces)
    np.testing.assert_allclose(again.vertices, mesh.vertices, atol=1e-6)
    np.testing.assert_allclose(again.vertex_colors, mesh.vertex_colors, atol=1.0 / 255)


def test_ply_ascii_parse(tmp_path):
    path = tmp_path / "tri.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "comment hand written\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "element face 1\n"
        "property list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0 255 0 0\n"
        "1 0 0 0 255 0\n"
        "0 1 0 0 0 255\n"
        "3 0 1 2\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_vertices == 3 and mesh.n_faces == 1
    np.testing.assert_allclose(mesh.vertex_colors[0], [1, 0, 0], atol=1e-9)


def test_ply_quad_faces_triangulated(tmp_path):
    path = tmp_path / "quad.ply"
    path.write_text(
        "ply\nformat ascii 1.0\n"
        "element vertex 4\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar int vertex_indices\n"
        "end_header\n"
        "0 0 0\n1 0 0\n1 1 0\n0 1 0\n"
        "4 0 1 2 3\n"
    )
    mesh = load_mesh(path)
    assert mesh.n_faces == 2


def test_ply_binary_polygons_with_extra_properties(tmp_path):
    path = tmp_path / "mixed.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 5\nproperty float x\nproperty float y\nproperty float z\n"
        "element face 2\nproperty uchar flags\nproperty list uchar int vertex_index\n"
        "element edge 1\nproperty int a\nproperty list ushort short b\n"
        "end_header\n"
    )
    vertices = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0]]
    body = struct.pack("<15f", *np.ravel(vertices))
    body += struct.pack("<BB4i", 7, 4, 0, 1, 2, 3) + struct.pack("<BB3i", 9, 3, 1, 4, 2)
    body += struct.pack("<iH2h", 5, 2, -1, 4)
    path.write_bytes(header.encode("ascii") + body)
    mesh = load_mesh(path)
    np.testing.assert_array_equal(mesh.vertices, vertices)
    np.testing.assert_array_equal(mesh.faces, [[0, 1, 2], [0, 2, 3], [1, 4, 2]])


_ASCII_TRIANGLE_HEADER = (
    "ply\nformat ascii 1.0\n"
    "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
    "element face 1\nproperty list uchar int vertex_indices\n"
    "end_header\n"
)


@pytest.mark.parametrize("body, message", [
    ("0 0 0 9\n1 0 0\n0 1 0\n3 0 1 2\n", "element vertex row 0: 4 values, expected 3"),
    # the same number of values as a valid body, so only row boundaries catch it
    ("0 0 0 1\n0 0\n0 1 0\n3 0 1 2\n", "element vertex row 0: 4 values, expected 3"),
    ("0 0 0\n1 0 0\n0 1 0\n3 0 1 2 7\n", "element face row 0: 5 values, expected 4"),
], ids=["vertex", "shifted", "face"])
def test_ply_ascii_surplus_value_rejected(tmp_path, body, message):
    path = tmp_path / "surplus.ply"
    path.write_text(_ASCII_TRIANGLE_HEADER + body)
    with pytest.raises(MeshIOError, match=message):
        load_mesh(path)


@pytest.mark.parametrize("face_rows, message", [
    ("3 0 1.7 2\n", "{path}: face [0.0, 1.7, 2.0] has a non-integer index"),
    ("3 0 nan 2\n", "{path}: face [0.0, nan, 2.0] has a non-integer index"),
    ("3 0 1 2\n3.5 2 1 0\n", "failed to parse {path}: element face row 1: "
                               "non-integer list count 3.5"),
    ("3 0 1 2\ninf 2 1 0\n", "failed to parse {path}: element face row 1: "
                               "non-integer list count inf"),
], ids=["fractional-index", "nan-index", "fractional-count", "inf-count"])
def test_ply_ascii_face_numbers_must_be_whole(tmp_path, face_rows, message):
    # ASCII values are read as floats; a truncating cast would load 1.7 as 1.
    path = tmp_path / "fraction.ply"
    rows = face_rows.count("\n")
    path.write_text(_ASCII_TRIANGLE_HEADER.replace("element face 1", f"element face {rows}")
                    + "0 0 0\n1 0 0\n0 1 0\n" + face_rows)
    with pytest.raises(MeshIOError) as info:
        load_mesh(path)
    assert str(info.value) == message.format(path=path)


def test_ply_binary_float_face_index_must_be_whole(tmp_path):
    path = tmp_path / "float_list.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\n"
        "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
        "element face 1\nproperty list uchar float vertex_indices\n"
        "end_header\n"
    )
    body = struct.pack("<9f", 0, 0, 0, 1, 0, 0, 0, 1, 0) + struct.pack("<B3f", 3, 0, 1.5, 2)
    path.write_bytes(header.encode("ascii") + body)
    with pytest.raises(MeshIOError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}: face [0.0, 1.5, 2.0] has a non-integer index"
    path.write_bytes(header.encode("ascii") + body[:-8] + struct.pack("<2f", 1, 2))
    np.testing.assert_array_equal(load_mesh(path).faces, [[0, 1, 2]])


@pytest.mark.parametrize("fmt, count, message", [
    ("binary_little_endian", 3.0, None),
    ("binary_little_endian", 2.5, "non-integer list count 2.5"),
    ("binary_little_endian", -1.0, "negative list count -1.0"),
    ("ascii", -1, "negative list count -1.0"),
], ids=["binary-whole", "binary-fraction", "binary-negative", "ascii-negative"])
def test_ply_list_count_must_be_whole_and_non_negative(tmp_path, fmt, count, message):
    # A binary count is read with its declared type: a float 3.0 is three
    # indices, not the integer 1077936128 that its bytes spell.
    path = tmp_path / "count.ply"
    header = _ASCII_TRIANGLE_HEADER.replace("ascii", fmt)
    if fmt == "ascii":
        data = (header + f"0 0 0\n1 0 0\n0 1 0\n{count} 0 1 2\n").encode("ascii")
    else:
        header = header.replace("list uchar int", "list float int")
        data = (header.encode("ascii") + struct.pack("<9f", 0, 0, 0, 1, 0, 0, 0, 1, 0)
                + struct.pack("<f3i", count, 0, 1, 2))
    path.write_bytes(data)
    if message is None:
        np.testing.assert_array_equal(load_mesh(path).faces, [[0, 1, 2]])
        return
    with pytest.raises(MeshIOError) as info:
        load_mesh(path)
    assert str(info.value) == f"failed to parse {path}: element face row 0: {message}"

@pytest.mark.parametrize("good, bad, lineno", [
    ("format ascii 1.0", "format", 2),
    ("property list uchar int vertex_indices", "property list uchar", 8),
    ("element vertex 3", "element vertex many", 3),
], ids=["format", "list", "count"])
def test_ply_malformed_header_line(tmp_path, good, bad, lineno):
    path = tmp_path / "bad.ply"
    path.write_text(_ASCII_TRIANGLE_HEADER.replace(good, bad) + "0 0 0\n")
    with pytest.raises(MeshIOError) as info:
        load_mesh(path)
    assert str(info.value) == f"{path}:{lineno}: malformed PLY header line {bad!r}"


def test_ply_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"plx\nformat ascii 1.0\nend_header\n")
    with pytest.raises(MeshIOError, match="magic"):
        load_mesh(path)


def test_ply_truncated_binary(tmp_path, cube_mesh):
    path = tmp_path / "cube.ply"
    save_mesh(cube_mesh, path)
    data = path.read_bytes()
    path.write_bytes(data[:-20])
    with pytest.raises(MeshIOError):
        load_mesh(path)


def test_unknown_format_rejected(tmp_path, cube_mesh):
    with pytest.raises(MeshIOError, match="unsupported"):
        save_mesh(cube_mesh, tmp_path / "cube.stl")
    with pytest.raises(MeshIOError, match="unsupported"):
        load_mesh(tmp_path / "cube.stl")


def _example_cloud(n=100, seed=3):
    rng = np.random.default_rng(seed)
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return PointCloud(rng.uniform(-0.5, 0.5, (n, 3)), normals, rng.uniform(0, 1, (n, 3)))


def test_pointcloud_ply_round_trip(tmp_path):
    cloud = _example_cloud()
    path = tmp_path / "cloud.ply"
    save_pointcloud_ply(cloud, path)
    again = load_pointcloud_ply(path)
    assert len(again) == len(cloud)
    np.testing.assert_allclose(again.positions, cloud.positions, atol=1e-6)
    np.testing.assert_allclose(again.normals, cloud.normals, atol=1e-3)
    np.testing.assert_allclose(again.colors, cloud.colors, atol=1.0 / 255)


def test_pointcloud_ply_ascii_load(tmp_path):
    path = tmp_path / "cloud.ply"
    path.write_text(
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property float nx\nproperty float ny\nproperty float nz\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0.25 -0.5 0.125 0 0 2 255 0 51\n"
        "-0.375 0 0.5 3 4 0 0 255 0\n"
        "0 0.0625 -0.25 0 -1 0 0 0 255\n"
    )
    cloud = load_pointcloud_ply(path)
    np.testing.assert_array_equal(
        cloud.positions, [[0.25, -0.5, 0.125], [-0.375, 0, 0.5], [0, 0.0625, -0.25]]
    )
    np.testing.assert_allclose(cloud.normals, [[0, 0, 1], [0.6, 0.8, 0], [0, -1, 0]], atol=1e-12)
    np.testing.assert_allclose(cloud.colors, [[1, 0, 0.2], [0, 1, 0], [0, 0, 1]], atol=1e-12)


def test_pointcloud_ply_not_a_mesh(tmp_path):
    save_pointcloud_ply(_example_cloud(), tmp_path / "cloud.ply")
    with pytest.raises(MeshIOError, match="load_pointcloud_ply"):
        load_mesh(tmp_path / "cloud.ply")
