"""Command-line interface: encode, decode, eval, sweep, views, info.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from .camera import (
    DEFAULT_DISTANCE,
    DEFAULT_FOV_X,
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
from .metrics import evaluate_pair
from .poisson import MAX_RESOLUTION, reconstruct
from .raycast import build_bvh
from .sweep import plot_sweep_svg, rows_to_csv, run_sweep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xray3d",
        description="Layered surface tensor codec for triangle meshes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a mesh into a .xray tensor")
    p.add_argument("mesh_path")
    p.add_argument("out_path")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--layers", type=int, default=8)
    p.add_argument("--azimuth", type=float, default=0.0, help="degrees about +y")
    p.add_argument("--elevation", type=float, default=0.0, help="degrees above horizon")
    p.add_argument("--distance", type=float, default=DEFAULT_DISTANCE)
    p.add_argument("--fov", type=float,
                   help="horizontal fov, radians (default: the shorter axis spans DEFAULT_FOV_X)")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a .xray tensor to points or a mesh")
    p.add_argument("xray_path")
    p.add_argument("out_path")
    p.add_argument("--poisson-res", type=int, default=128)
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
    p.add_argument("--samples", type=int, default=16384)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="append one CSV row to this file")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="round-trip error sweep over layers and resolutions")
    p.add_argument("mesh_dir")
    p.add_argument("--layers-list", default="1,2,3,4,5,6,7,8,9,10,11,12")
    p.add_argument("--res-list", default="32,64,128,256,512,1024")
    p.add_argument("--out", default="sweep.csv")
    p.add_argument("--views", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--poisson-res", type=int, default=64)
    p.add_argument("--samples", type=int, default=16384)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--fov", type=float, default=DEFAULT_FOV_X, help="horizontal fov, radians")
    p.add_argument("--plot", help="also write an SVG line chart here")
    p.add_argument("--no-timings", action="store_true",
                   help="zero the timing columns for byte-stable output")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("views", help="encode several sampled views of one mesh")
    p.add_argument("mesh_path")
    p.add_argument("--num", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--layers", type=int, default=8)
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


def _require_threshold(threshold: float) -> None:
    _require(np.isfinite(threshold) and threshold > 0,
             f"--threshold must be finite and > 0, got {threshold:g}")


def _require_layers(layers: int) -> None:
    _require(layers >= 1, f"--layers must be at least 1, got {layers}")


def _require_size(width: int, height: int) -> None:
    _require(width >= 1 and height >= 1,
             f"--width/--height must be at least 1, got {width}x{height}")


def _require_poisson_res(res: int) -> None:
    _require(2 <= res <= MAX_RESOLUTION,
             f"--poisson-res must be in [2, {MAX_RESOLUTION}], got {res}")


def _require_fov(fov: float | None) -> None:
    _require(fov is None or 0.0 < fov < np.pi, f"--fov must lie in (0, pi), got {fov}")


def cmd_encode(args) -> int:
    _require_layers(args.layers)
    _require_size(args.width, args.height)
    _require(args.distance > 0, f"--distance must be positive, got {args.distance:g}")
    _require_fov(args.fov)
    mesh = load_mesh(args.mesh_path)
    mesh, _ = normalize_mesh(mesh)
    camera = camera_from_spherical(
        args.azimuth, args.elevation, args.distance,
        args.width, args.height, args.fov,
    )
    tensor = encode(mesh, camera, args.layers)
    write_xray(tensor, args.out_path)
    occ = tensor.hit_mask().sum(axis=(1, 2))
    used = int(np.max(np.nonzero(occ)[0])) + 1 if occ.any() else 0
    print(f"wrote {args.out_path}: L={tensor.layers} H={tensor.height} W={tensor.width}")
    print(f"total hits: {tensor.total_hits()}, deepest layer used: {used}")
    _print_occupancy(tensor)
    return 0


def cmd_decode(args) -> int:
    _require_poisson_res(args.poisson_res)
    _require(args.screening == 0.0,
             f"--screening was removed and accepts only 0, got {args.screening:g}")
    _require(args.trim == 0.0, f"--trim was removed and accepts only 0, got {args.trim:g}")
    _require(args.points_only or args.frame == "world",
             "--frame camera requires --points-only: reconstruction runs in the "
             "world-frame Poisson domain")
    tensor = read_xray(args.xray_path)
    cloud = decode_to_pointcloud(tensor, frame=args.frame)
    del tensor  # the payload, 16.8 MB at 8 layers of 256^2, is not read again
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
    _require(args.samples >= 1, f"--samples must be at least 1, got {args.samples}")
    _require_threshold(args.threshold)
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


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        _require(False, f"{flag} must be a comma-separated integer list")
    _require(bool(values), f"{flag} must not be empty")
    return values


def cmd_sweep(args) -> int:
    layers_list = _parse_int_list(args.layers_list, "--layers-list")
    res_list = _parse_int_list(args.res_list, "--res-list")
    _require(min(layers_list) >= 1,
             f"--layers-list entries must be at least 1, got {min(layers_list)}")
    _require(min(res_list) >= 2, f"--res-list entries must be at least 2, got {min(res_list)}")
    _require(args.views >= 1, f"--views must be at least 1, got {args.views}")
    _require_poisson_res(args.poisson_res)
    _require(args.samples >= 1, f"--samples must be at least 1, got {args.samples}")
    _require_threshold(args.threshold)
    _require_fov(args.fov)
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
        layers_list,
        res_list,
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
    _require(args.num >= 1, f"--num must be at least 1, got {args.num}")
    _require_layers(args.layers)
    _require_size(args.width, args.height)
    mesh = load_mesh(args.mesh_path)
    mesh, _ = normalize_mesh(mesh)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.mesh_path).stem
    accel = build_bvh(mesh)
    for az, el in zip(*sample_view_angles(args.seed, args.num)):
        camera = camera_from_spherical(az, el, width=args.width, height=args.height)
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
    if tensor.height == tensor.width:
        ratio = storage_ratio(tensor.layers, tensor.width)
        change = "smaller" if ratio >= 0 else "larger"
        print(
            f"storage: {abs(ratio) * 100.0:.2f}% {change} than a "
            f"{tensor.width}^3 dense voxel grid"
        )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
