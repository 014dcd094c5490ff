"""Command-line interface: encode, decode, eval, sweep, views, info.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from pathlib import Path

import numpy as np

from .camera import (
    DEFAULT_DISTANCE,
    DEFAULT_FOV_X,
    DEFAULT_FRAME_SIZE,
    camera_from_spherical,
    sample_view_angles,
)
from .codec import (
    decode_to_pointcloud,
    encode,
    read_xray,
    storage_ratio,
    write_xray,
)
from .mesh import normalize_mesh
from .meshio import load_mesh, save_mesh, save_pointcloud_ply
from .metrics import DEFAULT_SAMPLES, DEFAULT_THRESHOLD, evaluate_pair
from .poisson import DEFAULT_RESOLUTION, MAX_RESOLUTION, reconstruct
from .raycast import build_bvh
from .sweep import DEFAULT_VIEWS, plot_sweep_svg, rows_to_csv, run_sweep


def _ranged(convert, low, high=math.inf, *, open_range=False):
    """An argparse type: convert the text, then require low <= value <= high,
    or low < value < high for an open range, which also rejects nan and inf.
    So a bad value fails while the flags are parsed, before any file is read."""
    if open_range:
        shown = "pi" if high == math.pi else high
        rule = "must be finite" if low == -math.inf else f"must lie in ({low}, {shown})"
    else:
        rule = f"must be at least {low}" if high == math.inf else f"must be in [{low}, {high}]"

    def parse(text: str):
        value = convert(text)
        if not (low < value < high if open_range else low <= value <= high):
            raise argparse.ArgumentTypeError(f"{rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value: 'x'"
    return parse


def _int_list(low: int):
    """An argparse type: a comma-separated list of integers, each at least low."""
    entry = _ranged(int, low)

    def parse(text: str) -> list[int]:
        values = [entry(tok) for tok in text.split(",") if tok.strip()]
        if not values:
            raise argparse.ArgumentTypeError(f"must list at least one integer, got {text!r}")
        return values

    parse.__name__ = "integer list"
    return parse


def _out_path(text: str) -> str:
    """An argparse type: a file to write, whose directory must exist, so
    that a run cannot do all its work and then fail to save it."""
    if not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"must be in an existing directory, got {text}")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xray3d",
        description="Layered surface tensor codec for triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    frame = argparse.ArgumentParser(add_help=False)  # the tensor shape, shared by encode and views
    frame.add_argument("--width", type=_ranged(int, 1), default=DEFAULT_FRAME_SIZE)
    frame.add_argument("--height", type=_ranged(int, 1), default=DEFAULT_FRAME_SIZE)
    frame.add_argument("--layers", type=_ranged(int, 1), default=8)

    p = sub.add_parser("encode", parents=[frame], help="encode a mesh into a .xray tensor")
    p.add_argument("mesh_path")
    p.add_argument("out_path", type=_out_path)
    p.add_argument("--azimuth", type=_ranged(float, -math.inf, open_range=True), default=0.0,
                   help="degrees about +y")
    p.add_argument("--elevation", type=_ranged(float, -math.inf, open_range=True), default=0.0,
                   help="degrees above horizon")
    p.add_argument("--distance", type=_ranged(float, 0, open_range=True), default=DEFAULT_DISTANCE)
    p.add_argument("--fov", type=_ranged(float, 0, math.pi, open_range=True),
                   help="horizontal fov, radians (default: the shorter axis spans DEFAULT_FOV_X)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a .xray tensor to points or a mesh")
    p.add_argument("xray_path")
    p.add_argument("out_path", type=_out_path)
    p.add_argument("--poisson-res", type=_ranged(int, 2, MAX_RESOLUTION),
                   default=DEFAULT_RESOLUTION, help="grid nodes per axis (default: %(default)s)")
    p.add_argument("--screening", type=float, default=0.0,
                   help="removed; only 0, the unscreened solve, is accepted")
    p.add_argument("--trim", type=float, default=0.0,
                   help="removed; only 0, which keeps every vertex, is accepted")
    p.add_argument("--points-only", action="store_true",
                   help="write the decoded point cloud instead of reconstructing")
    p.add_argument("--frame", choices=["world", "camera"], default="world")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("eval", help="chamfer/f-score between two meshes")
    p.add_argument("pred_path")
    p.add_argument("gt_path")
    p.add_argument("--samples", type=_ranged(int, 1), default=DEFAULT_SAMPLES)
    p.add_argument("--threshold", type=_ranged(float, 0, open_range=True),
                   default=DEFAULT_THRESHOLD)
    p.add_argument("--seed", type=_ranged(int, 0), default=0)
    p.add_argument("--csv", type=_out_path, help="append one CSV row to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="round-trip error sweep over layers and resolutions")
    p.add_argument("mesh_dir")
    p.add_argument("--layers-list", type=_int_list(1), default="1,2,3,4,5,6,7,8,9,10,11,12")
    p.add_argument("--res-list", type=_int_list(2), default="32,64,128,256,512,1024")
    p.add_argument("--out", type=_out_path, default="sweep.csv")
    p.add_argument("--views", type=_ranged(int, 1), default=DEFAULT_VIEWS)
    p.add_argument("--seed", type=_ranged(int, 0), default=0)
    p.add_argument("--poisson-res", type=_ranged(int, 2, MAX_RESOLUTION),
                   default=DEFAULT_RESOLUTION, help="grid nodes per axis (default: %(default)s)")
    p.add_argument("--samples", type=_ranged(int, 1), default=DEFAULT_SAMPLES)
    p.add_argument("--threshold", type=_ranged(float, 0, open_range=True),
                   default=DEFAULT_THRESHOLD)
    p.add_argument("--fov", type=_ranged(float, 0, math.pi, open_range=True), default=DEFAULT_FOV_X,
                   help="horizontal fov, radians")
    p.add_argument("--plot", type=_out_path, help="also write an SVG line chart here")
    p.add_argument("--no-timings", action="store_true",
                   help="zero the timing columns for byte-stable output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("views", parents=[frame], help="encode several sampled views of one mesh")
    p.add_argument("mesh_path")
    p.add_argument("--num", type=_ranged(int, 1), default=8)
    p.add_argument("--seed", type=_ranged(int, 0), default=0)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_views)

    p = sub.add_parser("info", help="print header and occupancy of a .xray file")
    p.add_argument("xray_path")
    p.set_defaults(func=cmd_info)
    return parser


def _require(parser_check: bool, message: str) -> None:
    """Usage-level validation: exits with code 2 like argparse errors."""
    if not parser_check:
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _print_occupancy(tensor) -> None:
    occ = tensor.layer_occupancy()
    for layer, frac in enumerate(occ):
        print(f"  layer {layer}: {frac * 100.0:6.2f}% pixels hit")


def cmd_encode(args) -> int:
    camera = camera_from_spherical(
        args.azimuth, args.elevation, args.distance,
        args.width, args.height, args.fov,
    )
    mesh, _ = normalize_mesh(load_mesh(args.mesh_path))
    tensor = encode(mesh, camera, args.layers)
    write_xray(tensor, args.out_path)
    used = int(tensor.counts.max())
    print(f"wrote {args.out_path}: L={tensor.layers} H={tensor.height} W={tensor.width}")
    print(f"total hits: {tensor.total_hits()}, deepest layer used: {used}")
    _print_occupancy(tensor)
    return 0


def cmd_decode(args) -> int:
    _require(args.screening == 0.0,
             f"--screening was removed and accepts only 0, got {args.screening:g}")
    _require(args.trim == 0.0, f"--trim was removed and accepts only 0, got {args.trim:g}")
    _require(args.points_only or args.frame == "world",
             "--frame camera requires --points-only: reconstruction runs in the "
             "world-frame Poisson domain")
    tensor = read_xray(args.xray_path)
    cloud = decode_to_pointcloud(tensor, frame=args.frame)
    del tensor  # the file's bytes are not read again
    if len(cloud) == 0:
        raise ValueError("empty point cloud (tensor has no hits)")
    print(f"decoded {len(cloud)} points")
    if args.points_only:
        save_pointcloud_ply(cloud, args.out_path)
        print(f"wrote {args.out_path}")
        return 0
    mesh, info = reconstruct(cloud, args.poisson_res)
    del cloud  # writing the mesh does not need it
    print(
        f"solver: {info.iterations} iterations, "
        f"relative residual {info.relative_residual:.3e}"
    )
    save_mesh(mesh, args.out_path)
    print(f"wrote {args.out_path}: {mesh.n_vertices} vertices, {mesh.n_faces} faces")
    return 0


def cmd_eval(args) -> int:
    pred = load_mesh(args.pred_path)
    gt = load_mesh(args.gt_path)
    report = evaluate_pair(
        pred, gt, n_samples=args.samples, threshold=args.threshold, seed=args.seed
    )
    print(f"CD  = {report.chamfer:.6f}")
    print(f"FS@{report.threshold:g} = {report.f_score:.4f} "
          f"(precision {report.precision:.4f}, recall {report.recall:.4f})")
    print(f"ICP {report.icp_iterations} iterations, "
          f"{'converged' if report.icp_converged else 'stopped at the iteration cap'}")
    if args.csv:
        path = Path(args.csv)
        new_file = not path.exists()
        with open(path, "a", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            if new_file:
                writer.writerow("pred,gt,chamfer,f_score,precision,recall,threshold".split(","))
            writer.writerow([
                args.pred_path, args.gt_path, repr(report.chamfer), repr(report.f_score),
                repr(report.precision), repr(report.recall), repr(report.threshold),
            ])
        print(f"appended to {args.csv}")
    return 0


def cmd_sweep(args) -> int:
    mesh_dir = Path(args.mesh_dir)
    if not mesh_dir.is_dir():
        raise FileNotFoundError(f"mesh directory not found: {mesh_dir}")
    paths = sorted(
        p for p in mesh_dir.iterdir() if p.suffix.lower() in (".obj", ".ply")
    )
    if not paths:
        raise ValueError(f"no .obj/.ply meshes in {mesh_dir}")
    meshes = {p.stem: load_mesh(p) for p in paths}
    rows = run_sweep(
        meshes,
        args.layers_list,
        args.res_list,
        views=args.views,
        seed=args.seed,
        poisson_res=args.poisson_res,
        n_samples=args.samples,
        threshold=args.threshold,
        fov_x=args.fov,
    )
    csv_text = rows_to_csv(rows, timings=not args.no_timings)
    Path(args.out).write_text(csv_text, encoding="utf-8")
    failures = sum(1 for r in rows if r.error)
    print(f"wrote {args.out}: {len(rows)} rows, {failures} failed cells")
    if args.plot:
        plot_sweep_svg(rows, args.plot)
        print(f"wrote {args.plot}")
    return 0


def cmd_views(args) -> int:
    views = [(az, el, camera_from_spherical(az, el, width=args.width, height=args.height))
             for az, el in zip(*sample_view_angles(args.seed, args.num))]
    mesh, _ = normalize_mesh(load_mesh(args.mesh_path))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.mesh_path).stem
    accel = build_bvh(mesh)
    for az, el, camera in views:
        tensor = encode(mesh, camera, args.layers, accel=accel)
        name = f"{stem}_az{az:+08.3f}_el{el:07.3f}.xray"
        write_xray(tensor, out_dir / name)
        print(f"wrote {out_dir / name} ({tensor.total_hits()} hits)")
    return 0


def cmd_info(args) -> int:
    tensor = read_xray(args.xray_path)
    print(f"layers: {tensor.layers}")
    print(f"height: {tensor.height}")
    print(f"width:  {tensor.width}")
    print(f"fov_x:  {tensor.fov_x:.6f} rad")
    print("c2w:")
    for row in np.asarray(tensor.c2w):
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print(f"total hits: {tensor.total_hits()}")
    _print_occupancy(tensor)
    print(f"file: {os.path.getsize(args.xray_path)} bytes")
    if tensor.height == tensor.width:
        ratio = storage_ratio(tensor.layers, tensor.width)
        change = "smaller" if ratio >= 0 else "larger"
        print(
            f"storage: {abs(ratio) * 100.0:.2f}% {change} than a "
            f"{tensor.width}^3 dense voxel grid"
        )
        print(f"a 1-bit {tensor.width}^3 occupancy grid: {(tensor.width ** 3 + 7) // 8} bytes")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
