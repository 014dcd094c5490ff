import math

import numpy as np
import pytest

from xray3d.camera import DEFAULT_FOV_X
from xray3d.cli import main
from xray3d.codec import XRayTensor, read_xray, write_xray
from xray3d.fixtures import cube, icosphere
from xray3d.meshio import load_mesh, load_pointcloud_ply, save_mesh


@pytest.fixture
def cube_obj(tmp_path):
    path = tmp_path / "cube.obj"
    save_mesh(cube(), path)
    return path


@pytest.fixture
def sphere_obj(tmp_path):
    path = tmp_path / "sphere.obj"
    save_mesh(icosphere(2), path)
    return path


def front_view_cube_hits(size: int) -> int:
    """Exact hit count of the default front view of the unit cube.

    Pinhole model: the ray through pixel centre i meets the front face
    (z = 0.5, depth 0.7) at 0.7 * (i - size / 2) / fx; every ray that
    meets it also leaves through the back face, and no other ray hits.
    """
    fx = 0.5 * size / math.tan(0.5 * DEFAULT_FOV_X)
    offsets = 0.7 * (np.arange(size) - 0.5 * size) / fx
    return 2 * int(np.sum(np.abs(offsets) <= 0.5)) ** 2


def run_cli(*argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)


def test_encode_writes_file_and_stats(tmp_path, cube_obj, capsys):
    out = tmp_path / "cube.xray"
    code = run_cli("encode", cube_obj, out, "--width", "64", "--height", "64")
    assert code == 0
    assert out.exists()
    printed = capsys.readouterr().out
    assert f"total hits: {front_view_cube_hits(64)}," in printed
    tensor = read_xray(out)
    assert tensor.layers == 8 and tensor.width == 64
    # front view central pixel depths
    px = tensor.data[:, :, 32, 32]
    assert px[0, 1] == pytest.approx(0.7, abs=1e-5)
    assert px[1, 1] == pytest.approx(1.7, abs=1e-5)


def test_encode_missing_file_exit_1(tmp_path, capsys):
    code = run_cli("encode", tmp_path / "absent.obj", tmp_path / "o.xray")
    assert code == 1
    assert "absent.obj" in capsys.readouterr().err


def test_encode_malformed_ply_header_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.ply"
    path.write_text("ply\nformat\nelement vertex 0\nend_header\n")
    code = run_cli("encode", path, tmp_path / "o.xray")
    assert code == 1
    assert f"error: {path}:2: malformed PLY header line 'format'" in capsys.readouterr().err


def test_encode_zero_layers_exit_2(tmp_path, cube_obj):
    code = run_cli("encode", cube_obj, tmp_path / "o.xray", "--layers", "0")
    assert code == 2


def test_decode_points_only(tmp_path, cube_obj):
    xray = tmp_path / "c.xray"
    assert run_cli("encode", cube_obj, xray, "--width", "48", "--height", "48") == 0
    out = tmp_path / "points.ply"
    assert run_cli("decode", xray, out, "--points-only") == 0
    cloud = load_pointcloud_ply(out)
    assert len(cloud) == front_view_cube_hits(48)
    # points on the cube surface (world frame by default)
    q = np.abs(cloud.positions) - 0.5
    sdf = np.linalg.norm(np.maximum(q, 0), axis=1) + np.minimum(q.max(axis=1), 0)
    assert np.abs(sdf).max() < 1e-3


def test_decode_full_reconstruction_closed(tmp_path, cube_obj, capsys):
    xray = tmp_path / "c.xray"
    run_cli("encode", cube_obj, xray, "--width", "96", "--height", "96",
            "--azimuth", "30", "--elevation", "25")
    out = tmp_path / "recon.obj"
    assert run_cli("decode", xray, out, "--poisson-res", "64") == 0
    assert "residual" in capsys.readouterr().out
    mesh = load_mesh(out)
    counts: dict[tuple[int, int], int] = {}
    for f in mesh.faces:
        for a, b in ((f[0], f[1]), (f[1], f[2]), (f[2], f[0])):
            key = (min(a, b), max(a, b))
            counts[key] = counts.get(key, 0) + 1
    assert all(c == 2 for c in counts.values())


def test_decode_empty_tensor_errors(tmp_path, capsys):
    xray = tmp_path / "zero.xray"
    write_xray(XRayTensor(np.zeros((2, 8, 8, 8), dtype=np.float32), 0.8, np.eye(4)), xray)
    code = run_cli("decode", xray, tmp_path / "out.ply", "--points-only")
    assert code == 1
    assert "empty point cloud" in capsys.readouterr().err


def test_decode_corrupt_file_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.xray"
    bad.write_bytes(b"XRAX" + b"\x00" * 120)
    assert run_cli("decode", bad, tmp_path / "out.ply", "--points-only") == 1
    assert run_cli("info", bad) == 1


def test_eval_identical_files(tmp_path, sphere_obj, capsys):
    code = run_cli("eval", sphere_obj, sphere_obj, "--samples", "4096")
    assert code == 0
    printed = capsys.readouterr().out
    cd = float(printed.split("CD  = ")[1].split()[0])
    assert cd <= 0.005
    assert "FS@0.1" in printed


def test_eval_reports_icp(sphere_obj, capsys):
    assert run_cli("eval", sphere_obj, sphere_obj, "--samples", "1024") == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("ICP ") and line.endswith(" iterations, converged")


def test_eval_csv_append(tmp_path, sphere_obj):
    csv = tmp_path / "scores.csv"
    run_cli("eval", sphere_obj, sphere_obj, "--samples", "1024", "--csv", csv)
    run_cli("eval", sphere_obj, sphere_obj, "--samples", "1024", "--csv", csv)
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("pred,gt,")
    assert len(lines) == 3


def test_eval_disjoint_meshes_zero_fscore(tmp_path, capsys):
    flat = tmp_path / "flat.obj"
    from xray3d.mesh import TriangleMesh

    plate = cube()
    save_mesh(TriangleMesh(plate.vertices * [1, 0.01, 0.01], plate.faces), flat)
    round_ = tmp_path / "sphere.obj"
    save_mesh(icosphere(1), round_)
    assert run_cli("eval", flat, round_, "--samples", "1024", "--threshold", "0.01") == 0
    printed = capsys.readouterr().out
    fs = float(printed.split("= ")[2].split()[0])
    assert fs < 0.2


def test_views_command(tmp_path, cube_obj):
    out_dir = tmp_path / "views"
    assert run_cli("views", cube_obj, "--num", "8", "--seed", "5",
                   "--out-dir", out_dir, "--width", "32", "--height", "32") == 0
    files = sorted(out_dir.glob("*.xray"))
    assert len(files) == 8
    for f in files:
        tensor = read_xray(f)
        position = np.asarray(tensor.c2w, dtype=np.float64)[:3, 3]
        assert np.linalg.norm(position) == pytest.approx(1.2, abs=1e-6)
        assert "az" in f.name and "el" in f.name


def test_views_zero_count_exit_2(tmp_path, cube_obj):
    assert run_cli("views", cube_obj, "--num", "0") == 2


_SWEEP = ("sweep", "{dir}", "--out", "{out}", "--layers-list", "1", "--res-list", "8",
          "--views", "1")


@pytest.mark.parametrize("argv", [
    ("views", "{mesh}", "--out-dir", "{out}", "--width", "0"),
    ("views", "{mesh}", "--out-dir", "{out}", "--height", "0"),
    (*_SWEEP, "--poisson-res", "1"),
    (*_SWEEP, "--poisson-res", "257"),
    (*_SWEEP, "--samples", "0"),
], ids=["views-width", "views-height", "sweep-poisson-res-1", "sweep-poisson-res-257",
        "sweep-samples"])
def test_usage_errors_exit_2(tmp_path, cube_obj, argv):
    out = tmp_path / "out"
    argv = [a.format(mesh=cube_obj, dir=cube_obj.parent, out=out) for a in argv]
    assert run_cli(*argv) == 2
    assert not out.exists()


def test_views_seeds_differ(tmp_path, cube_obj):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_cli("views", cube_obj, "--num", "2", "--seed", "1", "--out-dir", a,
            "--width", "16", "--height", "16")
    run_cli("views", cube_obj, "--num", "2", "--seed", "2", "--out-dir", b,
            "--width", "16", "--height", "16")
    assert {f.name for f in a.glob("*.xray")} != {f.name for f in b.glob("*.xray")}


def test_info_reports_storage_claim(tmp_path, capsys):
    xray = tmp_path / "t.xray"
    write_xray(
        XRayTensor(np.zeros((8, 8, 256, 256), dtype=np.float32), 0.857556, np.eye(4)),
        xray,
    )
    assert run_cli("info", xray) == 0
    printed = capsys.readouterr().out
    assert "96.88% smaller than a 256^3 dense voxel grid" in printed
    assert "layer 0" in printed


def test_info_layer_occupancy_cube(tmp_path, cube_obj, capsys):
    xray = tmp_path / "c.xray"
    run_cli("encode", cube_obj, xray, "--width", "32", "--height", "32")
    capsys.readouterr()
    run_cli("info", xray)
    printed = capsys.readouterr().out
    lines = [ln for ln in printed.split("\n") if ln.strip().startswith("layer ")]
    occ = [float(ln.split(":")[1].split("%")[0]) for ln in lines]
    assert occ[0] == occ[1]  # front view of a convex solid: enter + exit
    assert all(v == 0.0 for v in occ[2:])


def test_sweep_command_deterministic(tmp_path, cube_obj):
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    save_mesh(cube(), mesh_dir / "cube.obj")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ["sweep", mesh_dir, "--layers-list", "1,2", "--res-list", "32",
            "--views", "1", "--seed", "9", "--poisson-res", "32",
            "--samples", "1024", "--no-timings"]
    assert run_cli(*args, "--out", out_a) == 0
    assert run_cli(*args, "--out", out_b) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    lines = out_a.read_text().strip().split("\n")
    assert lines[0].startswith("mesh,view,layers,resolution")
    assert len(lines) == 3


def test_sweep_plot_and_usage_errors(tmp_path, cube_obj):
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    save_mesh(cube(), mesh_dir / "cube.obj")
    svg = tmp_path / "plot.svg"
    assert run_cli("sweep", mesh_dir, "--layers-list", "1", "--res-list", "16",
                   "--views", "1", "--poisson-res", "24", "--samples", "512",
                   "--out", tmp_path / "s.csv", "--plot", svg) == 0
    assert svg.read_text().startswith("<svg")
    assert run_cli("sweep", mesh_dir, "--layers-list", "x,y",
                   "--out", tmp_path / "s.csv") == 2
    assert run_cli("sweep", mesh_dir, "--views", "0",
                   "--out", tmp_path / "s.csv") == 2
    assert run_cli("sweep", tmp_path / "nowhere", "--out", tmp_path / "s.csv") == 1


def test_unknown_command_exit_2():
    assert run_cli("frobnicate") == 2
