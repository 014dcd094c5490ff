import inspect
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xray3d
from xray3d import cli as cli_mod
from xray3d import poisson, sweep
from xray3d.camera import DEFAULT_FOV_X, camera_from_spherical
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


def run_process(cwd, *argv) -> subprocess.CompletedProcess:
    """Run `python -m xray3d.cli` as its own process in cwd, importing the
    package from the same source tree as these tests."""
    src = Path(xray3d.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "xray3d.cli", *map(str, argv)], cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def ico_xray(tmp_path_factory):
    """The default encode of a PLY icosphere."""
    folder = tmp_path_factory.mktemp("ico")
    save_mesh(icosphere(2), folder / "ico.ply")
    assert run_cli("encode", folder / "ico.ply", folder / "ico.xray") == 0
    return folder / "ico.xray"


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


def test_decode_accepts_zero_trim(tmp_path, cube_obj):
    """--trim 0 is how scripts written before the trim was removed spell
    the default, and it still writes the mesh the default writes."""
    xray = tmp_path / "c.xray"
    run_cli("encode", cube_obj, xray, "--width", "48", "--height", "48")
    plain, zero = tmp_path / "plain.obj", tmp_path / "zero.obj"
    assert run_cli("decode", xray, plain, "--poisson-res", "32") == 0
    assert run_cli("decode", xray, zero, "--poisson-res", "32", "--trim", "0") == 0
    assert zero.read_bytes() == plain.read_bytes() and load_mesh(zero).n_faces > 0


def test_decode_process_takes_zero_trim_and_refuses_the_removed_flags(tmp_path, ico_xray):
    """--trim 0 is the benchmark's spelling; the removed values exit 2."""
    done = run_process(tmp_path, "decode", ico_xray, "t.obj", "--poisson-res", "64", "--trim", "0")
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "t.obj").exists()
    for bad in (["--trim", "0.01"], ["--screening", "0.5"]):
        assert run_process(tmp_path, "decode", ico_xray, "s.obj", *bad).returncode == 2, bad


def _negative_depth(x: XRayTensor) -> XRayTensor:
    data = x.data.copy()
    layer, row, col = np.argwhere(data[:, 0] > 0.5)[0]
    data[layer, 1, row, col] = -0.5
    return XRayTensor(data, x.fov_x, x.c2w)


def _mirrored_pose(x: XRayTensor) -> XRayTensor:
    c2w = x.c2w.copy()
    c2w[:3, 0] *= -1
    return XRayTensor(x.data, x.fov_x, c2w)


@pytest.mark.parametrize("corrupt, message", [
    (_negative_depth, "non-positive depth -0.5 at layer"),
    (_mirrored_pose, "determinant must be +1"),
])
def test_decode_process_refuses_a_bad_tensor_writing_nothing(tmp_path, ico_xray, corrupt, message):
    write_xray(corrupt(read_xray(ico_xray)), tmp_path / "bad.xray")
    done = run_process(tmp_path, "decode", "--points-only", "bad.xray", "bad.ply")
    assert done.returncode == 1 and message in done.stderr, done.stderr
    assert not (tmp_path / "bad.ply").exists()


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
    ("decode", "{xray}", "{out}", "--trim", "0.01"),
    ("decode", "{xray}", "{out}", "--trim", "-1"),
    ("decode", "{xray}", "{out}", "--trim", "nan"),
    ("decode", "{xray}", "{out}", "--screening", "0.5"),
    ("views", "{mesh}", "--out-dir", "{out}", "--layers", "0"),
    (*_SWEEP, "--layers-list", "2,0"),
    ("eval", "{mesh}", "{mesh}", "--threshold", "0"),
    (*_SWEEP, "--threshold", "-1"),
    (*_SWEEP, "--threshold", "inf"),
], ids=["views-width", "views-height", "sweep-poisson-res-1", "sweep-poisson-res-257",
        "sweep-samples", "decode-trim", "decode-trim-negative", "decode-trim-nan",
        "decode-screening", "views-layers-0", "sweep-layers-0", "eval-threshold-zero",
        "sweep-threshold-negative", "sweep-threshold-inf"])
def test_usage_errors_exit_2(tmp_path, cube_obj, argv):
    out = tmp_path / "out"
    xray = tmp_path / "t.xray"
    run_cli("encode", cube_obj, xray, "--width", "16", "--height", "16")
    argv = [a.format(mesh=cube_obj, dir=cube_obj.parent, out=out, xray=xray) for a in argv]
    assert run_cli(*argv) == 2
    assert not out.exists()


@pytest.fixture
def no_input_reads(monkeypatch):
    """Make the CLI's mesh and tensor readers fail the test if called."""
    def no_read(*args, **kwargs):
        raise AssertionError("read an input before checking the options")

    for name in ("load_mesh", "read_xray"):
        monkeypatch.setattr(cli_mod, name, no_read)


@pytest.mark.parametrize("argv, message", [
    (("encode", "{mesh}", "{out}", "--layers", "0"),
     "argument --layers: must be at least 1, got 0"),
    (("encode", "{mesh}", "{out}", "--fov", "-1"), "argument --fov: must lie in (0, pi), got -1"),
    (("encode", "{mesh}", "{out}", "--fov", "nan"), "argument --fov: must lie in (0, pi), got nan"),
    (("sweep", "{dir}", "--out", "{out}", "--fov", "4"),
     "argument --fov: must lie in (0, pi), got 4"),
    (("sweep", "{dir}", "--out", "{out}", "--layers-list", "3,0"),
     "argument --layers-list: must be at least 1, got 0"),
    (("eval", "{mesh}", "{mesh}", "--threshold", "-1"),
     "argument --threshold: must lie in (0, inf), got -1"),
    (("eval", "{mesh}", "{mesh}", "--threshold", "nan"),
     "argument --threshold: must lie in (0, inf), got nan"),
    (("decode", "{out}", "{out}.obj", "--frame", "camera"),
     "--frame camera requires --points-only: reconstruction runs in the world-frame"),
    (("decode", "{out}", "{out}.obj", "--poisson-res", "300"),
     "argument --poisson-res: must be in [2, 256], got 300"),
    (("sweep", "{dir}", "--out", "{out}", "--poisson-res", "1"),
     "argument --poisson-res: must be in [2, 256], got 1"),
    (("eval", "{mesh}", "{mesh}", "--samples", "0"),
     "argument --samples: must be at least 1, got 0"),
    (("sweep", "{dir}", "--out", "{out}", "--samples", "-2"),
     "argument --samples: must be at least 1, got -2"),
    (("sweep", "{dir}", "--out", "{out}", "--views", "0"),
     "argument --views: must be at least 1, got 0"),
    (("sweep", "{dir}", "--out", "{out}", "--res-list", "32,1"),
     "argument --res-list: must be at least 2, got 1"),
    (("views", "{mesh}", "--out-dir", "{out}", "--num", "0"),
     "argument --num: must be at least 1, got 0"),
    (("views", "{mesh}", "--out-dir", "{out}", "--width", "0"),
     "argument --width: must be at least 1, got 0"),
    (("encode", "{mesh}", "{out}", "--height", "-1"),
     "argument --height: must be at least 1, got -1"),
    (("encode", "{mesh}", "{out}", "--distance", "0"),
     "argument --distance: must lie in (0, inf), got 0"),
    (("encode", "{mesh}", "{out}", "--distance", "inf"),
     "argument --distance: must lie in (0, inf), got inf"),
    (("encode", "{mesh}", "{out}", "--azimuth", "nan"),
     "argument --azimuth: must be finite, got nan"),
    (("encode", "{mesh}", "{out}", "--elevation", "inf"),
     "argument --elevation: must be finite, got inf"),
    (("eval", "{mesh}", "{mesh}", "--seed", "-1"), "argument --seed: must be at least 0, got -1"),
    (("sweep", "{dir}", "--out", "{out}", "--seed", "-1"),
     "argument --seed: must be at least 0, got -1"),
    (("views", "{mesh}", "--out-dir", "{out}", "--seed", "-1"),
     "argument --seed: must be at least 0, got -1"),
    (("encode", "{mesh}", "{missing}/o.xray"),
     "argument out_path: must be in an existing directory, got {missing}/o.xray"),
    (("decode", "{out}", "{missing}/r.obj"),
     "argument out_path: must be in an existing directory, got {missing}/r.obj"),
    (("eval", "{mesh}", "{mesh}", "--csv", "{missing}/e.csv"),
     "argument --csv: must be in an existing directory, got {missing}/e.csv"),
    (("sweep", "{dir}", "--out", "{missing}/s.csv"),
     "argument --out: must be in an existing directory, got {missing}/s.csv"),
    (("sweep", "{dir}", "--out", "{out}", "--plot", "{missing}/s.svg"),
     "argument --plot: must be in an existing directory, got {missing}/s.svg"),
], ids=["encode-layers", "encode-fov-negative", "encode-fov-nan", "sweep-fov", "sweep-layers-list",
        "eval-threshold-negative", "eval-threshold-nan", "decode-camera-frame",
        "decode-poisson-res", "sweep-poisson-res", "eval-samples", "sweep-samples", "sweep-views",
        "sweep-res-list", "views-num", "views-width", "encode-height", "encode-distance",
        "encode-distance-inf", "encode-azimuth-nan", "encode-elevation-inf", "eval-seed",
        "sweep-seed", "views-seed", "encode-out-dir", "decode-out-dir", "eval-csv-dir",
        "sweep-out-dir", "sweep-plot-dir"])
def test_usage_errors_name_the_bad_value_before_reading_files(
    tmp_path, cube_obj, capsys, no_input_reads, argv, message
):
    fields = dict(mesh=cube_obj, dir=cube_obj.parent, out=tmp_path / "out",
                  missing=tmp_path / "missing")
    argv = [a.format(**fields) for a in argv]
    assert run_cli(*argv) == 2
    assert message.format(**fields) in capsys.readouterr().err


@pytest.mark.parametrize("elevation", ["90", "-90"])
def test_straight_up_or_down_view_fails_before_reading_the_mesh(
    tmp_path, capsys, no_input_reads, elevation
):
    out = tmp_path / "top.xray"
    assert run_cli("encode", tmp_path / "missing.obj", out, "--elevation", elevation) == 1
    err = capsys.readouterr().err
    assert "lies on the y axis, so the view direction is parallel to the up vector" in err
    assert not out.exists()


def test_range_and_type_errors_share_argparse_format(tmp_path, cube_obj, capsys):
    """An out-of-range value fails like a malformed one: argparse's usage
    line, then `argument --flag:` and the value."""
    for value, reason in (("0", "must be at least 1, got 0"), ("x", "invalid int value: 'x'")):
        assert run_cli("encode", cube_obj, tmp_path / "o.xray", "--layers", value) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: xray3d encode ")
        assert err.endswith(f"xray3d encode: error: argument --layers: {reason}\n")
    assert not (tmp_path / "o.xray").exists()


def test_decode_camera_frame_points_only_still_writes_points(tmp_path, cube_obj):
    xray = tmp_path / "c.xray"
    assert run_cli("encode", cube_obj, xray, "--width", "16", "--height", "16") == 0
    out = tmp_path / "points.ply"
    assert run_cli("decode", xray, out, "--points-only", "--frame", "camera") == 0
    assert len(load_pointcloud_ply(out)) == front_view_cube_hits(16)


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


def test_info_words_a_negative_saving_as_larger(tmp_path, capsys):
    # 5 layers of a 4x4 frame store more than a 4^3 grid: 1 - 5/4 = -25%.
    xray = tmp_path / "t.xray"
    write_xray(XRayTensor(np.zeros((5, 8, 4, 4), dtype=np.float32), 0.8, np.eye(4)), xray)
    assert run_cli("info", xray) == 0
    printed = capsys.readouterr().out
    assert "storage: 25.00% larger than a 4^3 dense voxel grid" in printed
    assert "-25" not in printed and "smaller" not in printed


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


def test_poisson_resolution_has_one_default():
    parser = cli_mod.build_parser()
    assert {
        inspect.signature(poisson.reconstruct).parameters["resolution"].default,
        inspect.signature(sweep.run_sweep).parameters["poisson_res"].default,
        parser.parse_args(["decode", "in.xray", "out.obj"]).poisson_res,
        parser.parse_args(["sweep", "meshes"]).poisson_res,
    } == {poisson.DEFAULT_RESOLUTION}


def test_frame_size_layer_and_view_defaults_agree():
    parser = cli_mod.build_parser()
    encoded = parser.parse_args(["encode", "m.obj", "o.xray"])
    viewed = parser.parse_args(["views", "m.obj"])
    camera = camera_from_spherical(0.0, 0.0)
    assert {camera.width, camera.height, encoded.width, encoded.height,
            viewed.width, viewed.height} == {256}
    assert encoded.layers == viewed.layers == 8
    assert (parser.parse_args(["sweep", "meshes"]).views
            == inspect.signature(sweep.run_sweep).parameters["views"].default == 2)
